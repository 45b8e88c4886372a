package exp

import (
	"fmt"
	"io"
	"sort"

	"sttsim/internal/core"
	"sttsim/internal/sim"
	"sttsim/internal/workload"
)

// ---------------------------------------------------------------------------
// Figure 12: sensitivity to TSB placement and region count.
// ---------------------------------------------------------------------------

// Fig12Point is one (regions, placement) configuration's mean performance
// under the WB scheme, normalized to 4 regions with corner TSBs.
type Fig12Point struct {
	Regions    int
	Placement  core.Placement
	Normalized float64
	// Failed is the failure cell when any run of the point (or of the
	// normalization baseline) did not complete.
	Failed string
}

// fig12Config builds one sweep point's run configuration.
func fig12Config(prof workload.Profile, regions int, placement core.Placement) sim.Config {
	return sim.Config{
		Scheme:     sim.SchemeSTT4TSBWB,
		Assignment: workload.Homogeneous(prof),
		Regions:    regions, Placement: placement, PlacementSet: true,
	}
}

// Figure12 sweeps 4/8/16 regions x corner/stagger.
func Figure12(r *Runner) []Fig12Point {
	benches := r.Options().benchmarks()
	sweep := []struct {
		regions   int
		placement core.Placement
	}{
		{4, core.PlacementCorner}, {4, core.PlacementStagger},
		{8, core.PlacementCorner}, {8, core.PlacementStagger},
		{16, core.PlacementCorner}, {16, core.PlacementStagger},
	}
	for _, pt := range sweep {
		for _, prof := range benches {
			r.Prefetch(fig12Config(prof, pt.regions, pt.placement))
		}
	}
	mean := func(regions int, placement core.Placement) (float64, error) {
		var sum float64
		for _, prof := range benches {
			res, err := r.Run(fig12Config(prof, regions, placement))
			if err != nil {
				return 0, err
			}
			sum += PerfMetric(prof, res)
		}
		return sum / float64(len(benches)), nil
	}
	base, baseErr := mean(4, core.PlacementCorner)
	var out []Fig12Point
	for _, pt := range sweep {
		p := Fig12Point{Regions: pt.regions, Placement: pt.placement}
		if baseErr != nil {
			p.Failed = failedCell(baseErr)
			out = append(out, p)
			continue
		}
		v, err := mean(pt.regions, pt.placement)
		if err != nil {
			p.Failed = failedCell(err)
			out = append(out, p)
			continue
		}
		if base > 0 {
			p.Normalized = v / base
		}
		out = append(out, p)
	}
	return out
}

// PrintFigure12 renders the sweep.
func PrintFigure12(w io.Writer, points []Fig12Point) {
	t := &table{header: []string{"regions", "placement", "perf vs 4/corner"}}
	for _, p := range points {
		cell := f3(p.Normalized)
		if p.Failed != "" {
			cell = p.Failed
		}
		t.add(fmt.Sprintf("%d", p.Regions), p.Placement.String(), cell)
	}
	t.write(w)
}

// ---------------------------------------------------------------------------
// Figure 13: sensitivity to the parent-child hop distance.
// ---------------------------------------------------------------------------

// Fig13Apps are the benchmarks the paper's Figure 13a lists.
var Fig13Apps = []string{"ferret", "facesim", "sclust", "x264", "lbm", "hmmer",
	"libqntm", "sphinx3", "sap", "sjas", "tpcc", "sjbb"}

// Fig13Result carries both panels: buffered requests per hop distance, and
// mean performance (vs. the unprioritized 4TSB baseline) per hop distance.
type Fig13Result struct {
	// Reqs[h] is the mean number of buffered requests h hops from their
	// destination per occupied cache-layer router, averaged over the apps
	// that completed.
	Reqs [4]float64
	// PerApp[name][h] is the same per benchmark.
	PerApp map[string][4]float64
	// FailedApp[name] is the failure cell for a panel-(a) app whose
	// characterization run did not complete.
	FailedApp map[string]string
	// Improvement[h] is mean performance of WB at Hops=h normalized to the
	// plain STT-RAM-4TSB baseline, in percent, over the apps that completed.
	Improvement [4]float64
	// FailedImprovement[h] is the failure cell when no app completed at
	// re-ordering distance h.
	FailedImprovement [4]string
}

// Figure13 sweeps the re-ordering distance H = 1..3.
func Figure13(r *Runner) *Fig13Result {
	apps := Fig13Apps
	if r.Options().Quick {
		apps = apps[:6]
	}
	for _, name := range apps {
		prof := workload.MustByName(name)
		r.Prefetch(SchemeConfig(sim.SchemeSTT64TSB, prof))
		r.Prefetch(SchemeConfig(sim.SchemeSTT4TSB, prof))
		for h := 1; h <= 3; h++ {
			r.Prefetch(sim.Config{Scheme: sim.SchemeSTT4TSBWB,
				Assignment: workload.Homogeneous(prof), Hops: h})
		}
	}
	out := &Fig13Result{
		PerApp:    make(map[string][4]float64),
		FailedApp: make(map[string]string),
	}
	// Panel (a): request population by hop distance, measured on the
	// STT-RAM baseline. Failed apps render as failure cells and drop out of
	// the average.
	okApps := 0
	for _, name := range apps {
		res, err := r.RunScheme(sim.SchemeSTT64TSB, workload.MustByName(name))
		if err != nil {
			out.FailedApp[name] = failedCell(err)
			continue
		}
		okApps++
		var per [4]float64
		for h := 1; h <= 3; h++ {
			per[h] = res.HopReqs[h]
			out.Reqs[h] += res.HopReqs[h]
		}
		out.PerApp[name] = per
	}
	if okApps > 0 {
		for h := 1; h <= 3; h++ {
			out.Reqs[h] /= float64(okApps)
		}
	}
	// Panel (b): performance by re-ordering distance, averaged over the apps
	// whose baseline and WB runs both completed.
	for h := 1; h <= 3; h++ {
		var ratio float64
		ok := 0
		var lastErr error
		for _, name := range apps {
			prof := workload.MustByName(name)
			base, err := r.RunScheme(sim.SchemeSTT4TSB, prof)
			if err != nil {
				lastErr = err
				continue
			}
			res, err := r.Run(sim.Config{
				Scheme:     sim.SchemeSTT4TSBWB,
				Assignment: workload.Homogeneous(prof),
				Hops:       h,
			})
			if err != nil {
				lastErr = err
				continue
			}
			if b := PerfMetric(prof, base); b > 0 {
				ratio += PerfMetric(prof, res) / b
				ok++
			}
		}
		if ok == 0 {
			if lastErr != nil {
				out.FailedImprovement[h] = failedCell(lastErr)
			}
			continue
		}
		out.Improvement[h] = (ratio/float64(ok) - 1) * 100
	}
	return out
}

// PrintFigure13 renders both panels.
func PrintFigure13(w io.Writer, f *Fig13Result) {
	t := &table{header: []string{"bench", "1 hop", "2 hop", "3 hop"}}
	names := sortedNames(f.PerApp)
	for name := range f.FailedApp {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if cell, bad := f.FailedApp[name]; bad {
			t.add(name, cell, cell, cell)
			continue
		}
		per := f.PerApp[name]
		t.add(name, f2(per[1]), f2(per[2]), f2(per[3]))
	}
	t.add("Avg.", f2(f.Reqs[1]), f2(f.Reqs[2]), f2(f.Reqs[3]))
	t.write(w)
	fmt.Fprintln(w)
	t2 := &table{header: []string{"hops", "IPC improvement vs STT-RAM-4TSB (%)"}}
	for h := 1; h <= 3; h++ {
		cell := f2(f.Improvement[h])
		if f.FailedImprovement[h] != "" {
			cell = f.FailedImprovement[h]
		}
		t2.add(fmt.Sprintf("%d", h), cell)
	}
	t2.write(w)
}

// ---------------------------------------------------------------------------
// Figure 14: comparison against the read-preemptive write buffer (BUFF-20).
// ---------------------------------------------------------------------------

// Fig14Apps are the paper's bursty/write-intensive comparison apps; the
// average row covers the whole benchmark set.
var Fig14Apps = []string{"tpcc", "sjas", "sclust", "lbm"}

// Fig14Design identifies a design point of the Section 4.4 comparison.
type Fig14Design int

const (
	// DesignSTT is plain STT-RAM-64TSB with neither buffers nor
	// prioritization — the normalization baseline.
	DesignSTT Fig14Design = iota
	// DesignBuff20 adds Sun et al.'s 20-entry read-preemptive write buffer
	// to every bank.
	DesignBuff20
	// DesignWB is our window-based network scheme.
	DesignWB
	// DesignWBPlus1VC is the WB scheme with one extra request VC instead of
	// per-bank write buffers.
	DesignWBPlus1VC
	numFig14Designs
)

var fig14Names = [numFig14Designs]string{"STT-RAM", "BUFF-20", "WB", "+1 VC"}

// String names the design point.
func (d Fig14Design) String() string { return fig14Names[d] }

// fig14Config builds the run configuration of a design point.
func fig14Config(d Fig14Design, a workload.Assignment) sim.Config {
	switch d {
	case DesignBuff20:
		return sim.Config{Scheme: sim.SchemeSTT64TSB, Assignment: a,
			WriteBufferEntries: 20, ReadPreemption: true}
	case DesignWB:
		return sim.Config{Scheme: sim.SchemeSTT4TSBWB, Assignment: a}
	case DesignWBPlus1VC:
		return sim.Config{Scheme: sim.SchemeSTT4TSBWB, Assignment: a, ExtraReqVC: true}
	default:
		return sim.Config{Scheme: sim.SchemeSTT64TSB, Assignment: a}
	}
}

// Fig14Entry is one benchmark's normalized un-core latency per design.
type Fig14Entry struct {
	Bench      string
	Normalized [numFig14Designs]float64
	// Failed[d] is the failure cell for design d.
	Failed [numFig14Designs]string
}

// Figure14 compares the network scheme against write buffering. Benchmarks
// with any failed design drop out of the average (so every design averages
// over the same set); the per-app rows mark the failed cells.
func Figure14(r *Runner) []Fig14Entry {
	benches := r.Options().benchmarks()
	for _, prof := range benches {
		for d := Fig14Design(0); d < numFig14Designs; d++ {
			r.Prefetch(fig14Config(d, workload.Homogeneous(prof)))
		}
	}
	uncore := func(d Fig14Design, prof workload.Profile) (float64, error) {
		res, err := r.Run(fig14Config(d, workload.Homogeneous(prof)))
		if err != nil {
			return 0, err
		}
		return res.UncoreLatency(), nil
	}
	// measure collects one benchmark's value per design, recording failures.
	measure := func(prof workload.Profile) (vals [numFig14Designs]float64, failed [numFig14Designs]string, clean bool) {
		clean = true
		for d := Fig14Design(0); d < numFig14Designs; d++ {
			v, err := uncore(d, prof)
			if err != nil {
				failed[d] = failedCell(err)
				clean = false
				continue
			}
			vals[d] = v
		}
		return vals, failed, clean
	}
	entries := []Fig14Entry{{Bench: fmt.Sprintf("AVG-%d", len(benches))}}
	var avg [numFig14Designs]float64
	avgN := 0
	for _, prof := range benches {
		vals, _, clean := measure(prof)
		if !clean {
			continue
		}
		for d := Fig14Design(0); d < numFig14Designs; d++ {
			avg[d] += vals[d]
		}
		avgN++
	}
	if avgN > 0 && avg[DesignSTT] > 0 {
		entries[0].Bench = fmt.Sprintf("AVG-%d", avgN)
		for d := Fig14Design(0); d < numFig14Designs; d++ {
			entries[0].Normalized[d] = avg[d] / avg[DesignSTT]
		}
	} else {
		for d := Fig14Design(0); d < numFig14Designs; d++ {
			entries[0].Failed[d] = "FAILED(no-data)"
		}
	}
	for _, name := range Fig14Apps {
		prof := workload.MustByName(name)
		vals, failed, _ := measure(prof)
		e := Fig14Entry{Bench: name, Failed: failed}
		if failed[DesignSTT] != "" {
			// No baseline: every cell inherits the baseline failure.
			for d := Fig14Design(0); d < numFig14Designs; d++ {
				if e.Failed[d] == "" {
					e.Failed[d] = failed[DesignSTT]
				}
			}
		} else if vals[DesignSTT] > 0 {
			for d := Fig14Design(0); d < numFig14Designs; d++ {
				if e.Failed[d] == "" {
					e.Normalized[d] = vals[d] / vals[DesignSTT]
				}
			}
		}
		entries = append(entries, e)
	}
	return entries
}

// PrintFigure14 renders the normalized un-core latencies.
func PrintFigure14(w io.Writer, entries []Fig14Entry) {
	header := []string{"bench"}
	for d := Fig14Design(0); d < numFig14Designs; d++ {
		header = append(header, d.String())
	}
	t := &table{header: header}
	for _, e := range entries {
		row := []string{e.Bench}
		for d := Fig14Design(0); d < numFig14Designs; d++ {
			if e.Failed[d] != "" {
				row = append(row, e.Failed[d])
				continue
			}
			row = append(row, f3(e.Normalized[d]))
		}
		t.add(row...)
	}
	t.write(w)
}
