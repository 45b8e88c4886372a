package exp

import (
	"io"

	"sttsim/internal/sim"
	"sttsim/internal/workload"
)

// Extension studies beyond the paper's evaluation, exploring the directions
// its Section 5 (related work) and conclusions point at: combining the
// network-level scheme with circuit-level early write termination (Zhou et
// al.), and comparing against a hybrid SRAM/STT-RAM cache layer.

// ExtDesign identifies one extension design point.
type ExtDesign struct {
	Name string
	Cfg  sim.Config
}

// ExtEntry is one benchmark's performance per extension design, normalized
// to plain STT-RAM-64TSB.
type ExtEntry struct {
	Bench      string
	Normalized []float64
	// Failed[i] is the failure cell for design i.
	Failed []string
}

// extDesigns enumerates the comparison: plain STT-RAM, early write
// termination alone, the WB network scheme alone, both combined, and a
// hybrid layer with 16 SRAM banks.
func extDesigns() []ExtDesign {
	return []ExtDesign{
		{"STT-RAM", sim.Config{Scheme: sim.SchemeSTT64TSB}},
		{"+EWT", sim.Config{Scheme: sim.SchemeSTT64TSB, EarlyWriteTermination: true}},
		{"WB", sim.Config{Scheme: sim.SchemeSTT4TSBWB}},
		{"WB+EWT", sim.Config{Scheme: sim.SchemeSTT4TSBWB, EarlyWriteTermination: true}},
		{"Hybrid16", sim.Config{Scheme: sim.SchemeSTT64TSB, HybridSRAMBanks: 16}},
	}
}

// extConfig builds design d's run configuration for one benchmark. The
// configuration fingerprint covers EarlyWriteTermination and
// HybridSRAMBanks, so designs stay distinct without name mangling.
func extConfig(d ExtDesign, prof workload.Profile) sim.Config {
	cfg := d.Cfg
	cfg.Assignment = workload.Homogeneous(prof)
	return cfg
}

// Extensions measures the extension designs on the write-sensitive apps.
func Extensions(r *Runner) []ExtEntry {
	designs := extDesigns()
	for _, name := range r.ablationApps() {
		for _, d := range designs {
			r.Prefetch(extConfig(d, workload.MustByName(name)))
		}
	}
	var out []ExtEntry
	for _, name := range r.ablationApps() {
		prof := workload.MustByName(name)
		e := ExtEntry{Bench: name,
			Normalized: make([]float64, len(designs)),
			Failed:     make([]string, len(designs))}
		var base float64
		for i, d := range designs {
			res, err := r.Run(extConfig(d, prof))
			if err != nil {
				e.Failed[i] = failedCell(err)
				if i == 0 {
					// No baseline: mark the rest of the row as it fills in.
					base = 0
				}
				continue
			}
			perf := PerfMetric(prof, res)
			if i == 0 {
				base = perf
			}
			if e.Failed[0] != "" {
				e.Failed[i] = e.Failed[0]
				continue
			}
			if base > 0 {
				e.Normalized[i] = perf / base
			}
		}
		out = append(out, e)
	}
	return out
}

// PrintExtensions renders the comparison.
func PrintExtensions(w io.Writer, entries []ExtEntry) {
	header := []string{"bench"}
	for _, d := range extDesigns() {
		header = append(header, d.Name)
	}
	t := &table{header: header}
	for _, e := range entries {
		row := []string{e.Bench}
		for i, v := range e.Normalized {
			if i < len(e.Failed) && e.Failed[i] != "" {
				row = append(row, e.Failed[i])
				continue
			}
			row = append(row, f3(v))
		}
		t.add(row...)
	}
	t.write(w)
}
