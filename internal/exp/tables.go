package exp

import (
	"fmt"
	"io"

	"sttsim/internal/mem"
	"sttsim/internal/sim"
	"sttsim/internal/workload"
)

// Table2 renders the SRAM/STT-RAM device comparison (the paper's Table 2 is
// an input to the model; reprinting it documents the timing contract every
// experiment runs under).
func Table2(w io.Writer) {
	t := &table{header: []string{"Tech", "Area(mm2)", "ReadE(nJ)", "WriteE(nJ)",
		"Leak(mW)", "ReadLat(ns)", "WriteLat(ns)", "Read@3GHz", "Write@3GHz"}}
	for _, tech := range []mem.Tech{mem.SRAM, mem.STTRAM} {
		t.add(fmt.Sprintf("%dMB %s", tech.CapacityMB, tech.Name),
			f2(tech.AreaMM2), f3(tech.ReadEnergyNJ), f3(tech.WriteEnergyNJ),
			fmt.Sprintf("%.1f", tech.LeakagePowerMW),
			f3(tech.ReadLatencyNS), f2(tech.WriteLatencyNS),
			fmt.Sprintf("%d cycles", tech.ReadCycles), fmt.Sprintf("%d cycles", tech.WriteCycles))
	}
	t.write(w)
}

// Table3Row is one benchmark's measured characterization next to the paper's.
type Table3Row struct {
	Profile workload.Profile
	// Measured rates per kilo-instruction over the measurement window on the
	// STT-RAM baseline (the configuration Table 3 was characterized on).
	L2RPKI, L2WPKI, L2MPKI float64
	// ShadowPct is the percentage of bank accesses landing within 33 cycles
	// of a preceding write (the burstiness signal of Figure 3).
	ShadowPct float64
	// Failed is the failure cell when the run did not complete; the metric
	// fields are zero.
	Failed string
}

// Table3 re-derives the benchmark characterization from our synthetic
// streams, validating the workload generator against the paper's Table 3.
func Table3(r *Runner) []Table3Row {
	for _, prof := range r.Options().benchmarks() {
		r.Prefetch(SchemeConfig(sim.SchemeSTT64TSB, prof))
	}
	var rows []Table3Row
	for _, prof := range r.Options().benchmarks() {
		res, err := r.RunScheme(sim.SchemeSTT64TSB, prof)
		if err != nil {
			rows = append(rows, Table3Row{Profile: prof, Failed: failedCell(err)})
			continue
		}
		var instr, reads, writes, misses uint64
		for i, cs := range res.CoreStats {
			instr += res.Committed[i]
			reads += cs.Reads
			writes += cs.Writes
			_ = cs
		}
		for _, c := range res.Cache {
			misses += c.ReadMisses
		}
		ki := float64(instr) / 1000
		if ki == 0 {
			ki = 1
		}
		rows = append(rows, Table3Row{
			Profile:   prof,
			L2RPKI:    float64(reads) / ki,
			L2WPKI:    float64(writes) / ki,
			L2MPKI:    float64(misses) / ki,
			ShadowPct: res.GapHist.Percent(0) + res.GapHist.Percent(1),
		})
	}
	return rows
}

// PrintTable3 renders measured-vs-paper columns.
func PrintTable3(w io.Writer, rows []Table3Row) {
	t := &table{header: []string{"bench", "suite",
		"rpki(paper)", "rpki(meas)", "wpki(paper)", "wpki(meas)",
		"mpki(paper)", "mpki(meas)", "bursty", "shadow%"}}
	for _, row := range rows {
		p := row.Profile
		b := "Low"
		if p.Bursty {
			b = "High"
		}
		if row.Failed != "" {
			t.add(p.Name, p.Suite.String(),
				f2(p.L2RPKI), row.Failed, f2(p.L2WPKI), row.Failed,
				f2(p.L2MPKI), row.Failed, b, row.Failed)
			continue
		}
		t.add(p.Name, p.Suite.String(),
			f2(p.L2RPKI), f2(row.L2RPKI), f2(p.L2WPKI), f2(row.L2WPKI),
			f2(p.L2MPKI), f2(row.L2MPKI), b, f2(row.ShadowPct))
	}
	t.write(w)
}
