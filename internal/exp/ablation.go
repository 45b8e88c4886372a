package exp

import (
	"fmt"
	"io"

	"sttsim/internal/mem"
	"sttsim/internal/sim"
	"sttsim/internal/workload"
)

// This file holds the ablation studies behind the paper's design decisions
// beyond the figures it prints: the WB tagging window ("updating the
// congestion information every 100 packets provides reasonably accurate
// congestion estimates", Section 3.5), the module-interface depth, the
// hard-hold window of our arbiter implementation, and the write-latency
// inflection sweep motivated by Section 3.1's observation that delaying
// requests is "not attractive for conventional SRAM cache banks" but pays
// off as bank writes lengthen (STT-RAM, and the PCRAM extension).

// ablationApps is the write-sensitive workload set the ablations measure on.
var ablationApps = []string{"tpcc", "sclust", "lbm"}

func (r *Runner) ablationApps() []string {
	if r.opts.Quick {
		return ablationApps[:2]
	}
	return ablationApps
}

// AblationPoint is one configuration's mean performance.
type AblationPoint struct {
	Label string
	// Perf is the mean PerfMetric over the ablation apps.
	Perf float64
	// Normalized is Perf relative to the sweep's reference point.
	Normalized float64
	// Failed is the failure cell when any of the point's runs (or the
	// reference point) did not complete.
	Failed string
}

// sweep runs one configuration mutation per label and normalizes to the
// first point. The configuration fingerprint covers every knob the mutations
// touch, so no key mangling is needed to keep the points distinct.
func (r *Runner) sweep(labels []string, mutate func(cfg *sim.Config, i int)) []AblationPoint {
	point := func(i int, prof workload.Profile) sim.Config {
		cfg := sim.Config{Scheme: sim.SchemeSTT4TSBWB, Assignment: workload.Homogeneous(prof)}
		mutate(&cfg, i)
		return cfg
	}
	for i := range labels {
		for _, name := range r.ablationApps() {
			r.Prefetch(point(i, workload.MustByName(name)))
		}
	}
	points := make([]AblationPoint, 0, len(labels))
	for i, label := range labels {
		var sum float64
		failed := ""
		for _, name := range r.ablationApps() {
			prof := workload.MustByName(name)
			res, err := r.Run(point(i, prof))
			if err != nil {
				failed = failedCell(err)
				break
			}
			sum += PerfMetric(prof, res)
		}
		points = append(points, AblationPoint{
			Label:  label,
			Perf:   sum / float64(len(r.ablationApps())),
			Failed: failed,
		})
	}
	if points[0].Failed != "" {
		// No reference point: the whole sweep fails to normalize.
		for i := range points {
			if points[i].Failed == "" {
				points[i].Failed = points[0].Failed
			}
		}
		return points
	}
	base := points[0].Perf
	for i := range points {
		if base > 0 && points[i].Failed == "" {
			points[i].Normalized = points[i].Perf / base
		}
	}
	return points
}

// AblationWBWindow sweeps the window-based estimator's tagging period N.
func AblationWBWindow(r *Runner) []AblationPoint {
	windows := []int{10, 50, 100, 400, 1600}
	labels := make([]string, len(windows))
	for i, n := range windows {
		labels[i] = fmt.Sprintf("N=%d", n)
	}
	return r.sweep(labels, func(cfg *sim.Config, i int) { cfg.WBWindow = windows[i] })
}

// AblationHoldCap sweeps the arbiter's hard-hold window (our implementation
// choice; -1 disables holds so delayed requests are only demoted).
func AblationHoldCap(r *Runner) []AblationPoint {
	caps := []int{-1, 12, 40, 120}
	labels := []string{"demote-only", "hold<=12", "hold<=40", "hold<=120"}
	return r.sweep(labels, func(cfg *sim.Config, i int) { cfg.HoldCap = caps[i] })
}

// AblationBankQueue sweeps the module-interface demand-queue depth: deeper
// interfaces absorb write trains at the endpoint (hiding them from the
// network and from the re-ordering scheme), shallower ones push the queueing
// into the routers.
func AblationBankQueue(r *Runner) []AblationPoint {
	depths := []int{1, 2, 4, 8}
	labels := make([]string, len(depths))
	for i, d := range depths {
		labels[i] = fmt.Sprintf("depth=%d", d)
	}
	return r.sweep(labels, func(cfg *sim.Config, i int) { cfg.BankQueueDepth = depths[i] })
}

// WriteLatencyPoint is one write-service-time design point of the inflection
// sweep, comparing plain restricted routing against the WB scheme.
type WriteLatencyPoint struct {
	WriteCycles uint64
	// Gain is mean(WB) / mean(plain 4TSB) - the scheme's benefit at this
	// write latency.
	Gain float64
	// Failed is the failure cell when any run at this point did not
	// complete.
	Failed string
}

// AblationWriteLatency sweeps the bank write service time from SRAM-like (3
// cycles) through STT-RAM (33) to PCRAM-like (150), measuring the benefit of
// bank-aware arbitration at each point. Section 3.1 predicts ~no benefit at
// SRAM speeds and growing benefit as writes lengthen.
func AblationWriteLatency(r *Runner) []WriteLatencyPoint {
	sweep := []uint64{3, 9, 33, 65, 150}
	if r.opts.Quick {
		sweep = []uint64{3, 33, 150}
	}
	pointCfg := func(wc uint64, s sim.Scheme, prof workload.Profile) sim.Config {
		tech := mem.STTRAM.WithWriteCycles(wc)
		if wc == mem.PCRAM.WriteCycles {
			tech = mem.PCRAM
		}
		return sim.Config{
			Scheme:     s,
			Assignment: workload.Homogeneous(prof),
			CustomTech: &tech,
		}
	}
	for _, wc := range sweep {
		for _, name := range r.ablationApps() {
			for _, s := range []sim.Scheme{sim.SchemeSTT4TSB, sim.SchemeSTT4TSBWB} {
				r.Prefetch(pointCfg(wc, s, workload.MustByName(name)))
			}
		}
	}
	var out []WriteLatencyPoint
	for _, wc := range sweep {
		var plain, scheme float64
		failed := ""
		for _, name := range r.ablationApps() {
			prof := workload.MustByName(name)
			for _, s := range []sim.Scheme{sim.SchemeSTT4TSB, sim.SchemeSTT4TSBWB} {
				res, err := r.Run(pointCfg(wc, s, prof))
				if err != nil {
					failed = failedCell(err)
					break
				}
				if s == sim.SchemeSTT4TSB {
					plain += PerfMetric(prof, res)
				} else {
					scheme += PerfMetric(prof, res)
				}
			}
			if failed != "" {
				break
			}
		}
		pt := WriteLatencyPoint{WriteCycles: wc, Failed: failed}
		if failed == "" && plain > 0 {
			pt.Gain = scheme / plain
		}
		out = append(out, pt)
	}
	return out
}

// PrintAblation renders a generic sweep.
func PrintAblation(w io.Writer, title string, points []AblationPoint) {
	fmt.Fprintf(w, "%s\n", title)
	t := &table{header: []string{"config", "perf", "vs first"}}
	for _, p := range points {
		if p.Failed != "" {
			t.add(p.Label, p.Failed, p.Failed)
			continue
		}
		t.add(p.Label, f3(p.Perf), f3(p.Normalized))
	}
	t.write(w)
}

// PrintWriteLatency renders the inflection sweep.
func PrintWriteLatency(w io.Writer, points []WriteLatencyPoint) {
	t := &table{header: []string{"bank write cycles", "WB scheme gain over plain 4TSB"}}
	for _, p := range points {
		cell := fmt.Sprintf("%+.2f%%", 100*(p.Gain-1))
		if p.Failed != "" {
			cell = p.Failed
		}
		t.add(fmt.Sprintf("%d", p.WriteCycles), cell)
	}
	t.write(w)
}
