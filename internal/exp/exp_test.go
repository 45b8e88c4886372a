package exp

import (
	"strings"
	"sync"
	"testing"

	"sttsim/internal/fault"
	"sttsim/internal/sim"
	"sttsim/internal/workload"
)

var (
	sharedRunnerOnce sync.Once
	sharedRunner     *Runner
)

// tinyRunner keeps experiment tests fast: few benchmarks, short windows, and
// one fingerprint-memoized runner shared by every test, so figures that
// overlap (the SRAM baselines, alone-IPC references) simulate each config
// once per package run. Full-system experiment sweeps are still the slowest
// tests in the repo, so they are skipped under -short (the `make race` pass).
func tinyRunner(t *testing.T) *Runner {
	t.Helper()
	if testing.Short() {
		t.Skip("full-system experiment sweep; skipped in -short mode")
	}
	sharedRunnerOnce.Do(func() {
		sharedRunner = NewRunner(Options{Quick: true, WarmupCycles: 1500, MeasureCycles: 4000})
	})
	return sharedRunner
}

func TestRunnerMemoizes(t *testing.T) {
	r := tinyRunner(t)
	a, err := r.RunScheme(sim.SchemeSRAM64TSB, workload.MustByName("x264"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.RunScheme(sim.SchemeSRAM64TSB, workload.MustByName("x264"))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("identical configs should return the cached result")
	}
	c, err := r.RunScheme(sim.SchemeSTT64TSB, workload.MustByName("x264"))
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("different schemes must not share results")
	}
}

// TestExperimentTable pins the experiment table cmd/experiments and the
// root benchmarks iterate: unique names in the order `-exp all` has always
// run them (stdout of a whole campaign depends on it), each with a title.
func TestExperimentTable(t *testing.T) {
	want := []string{"table2", "table3", "fig3", "fig6", "fig7", "fig8", "fig9", "fig10",
		"fig12", "fig13", "fig14", "extensions", "resilience", "ablations"}
	var got []string
	seen := make(map[string]bool)
	for _, e := range Experiments {
		if seen[e.Name] {
			t.Errorf("experiment %q listed twice", e.Name)
		}
		seen[e.Name] = true
		if strings.TrimSpace(e.Title) == "" || e.Run == nil {
			t.Errorf("experiment %q has no title or no driver", e.Name)
		}
		got = append(got, e.Name)
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("experiment order = %v, want %v", got, want)
	}
}

func TestPerfMetricSelection(t *testing.T) {
	res := &sim.Result{IPC: []float64{1, 2}, InstructionThroughput: 3, MinIPC: 1}
	if got := PerfMetric(workload.MustByName("mcf"), res); got != 3 {
		t.Fatalf("SPEC metric = %f, want IT", got)
	}
	if got := PerfMetric(workload.MustByName("tpcc"), res); got != 1 {
		t.Fatalf("server metric = %f, want MinIPC", got)
	}
}

func TestQuickBenchmarkSubset(t *testing.T) {
	o := Options{Quick: true}
	benches := o.benchmarks()
	if len(benches) != len(quickSet) {
		t.Fatalf("quick set has %d entries, want %d", len(benches), len(quickSet))
	}
	full := Options{}
	if len(full.benchmarks()) != 42 {
		t.Fatal("full set should be all 42 benchmarks")
	}
}

func TestTable2Renders(t *testing.T) {
	var b strings.Builder
	Table2(&b)
	out := b.String()
	for _, want := range []string{"SRAM", "STT-RAM", "33 cycles", "444.6", "190.5"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2 output missing %q", want)
		}
	}
}

func TestTable3MeasuresRates(t *testing.T) {
	r := tinyRunner(t)
	rows := Table3(r)
	if len(rows) != len(quickSet) {
		t.Fatalf("rows = %d, want %d", len(rows), len(quickSet))
	}
	for _, row := range rows {
		if row.Profile.L2APKI() > 1 && row.L2RPKI+row.L2WPKI == 0 {
			t.Errorf("%s: no measured traffic", row.Profile.Name)
		}
		// Within a loose factor of the paper's rates even at tiny scale.
		if row.Profile.L2WPKI > 5 {
			ratio := row.L2WPKI / row.Profile.L2WPKI
			if ratio < 0.5 || ratio > 2 {
				t.Errorf("%s: measured wpki %.2f vs paper %.2f", row.Profile.Name, row.L2WPKI, row.Profile.L2WPKI)
			}
		}
	}
	var b strings.Builder
	PrintTable3(&b, rows)
	if !strings.Contains(b.String(), "tpcc") {
		t.Fatal("rendered table missing tpcc")
	}
}

func TestFigure3Histogram(t *testing.T) {
	r := tinyRunner(t)
	entries := Figure3(r)
	for _, e := range entries {
		var sum float64
		for _, p := range e.BinPct {
			sum += p
		}
		if sum > 0 && (sum < 99.9 || sum > 100.1) {
			t.Errorf("%s: bins sum to %.2f", e.Profile.Name, sum)
		}
	}
	var b strings.Builder
	PrintFigure3(&b, entries)
	if !strings.Contains(b.String(), "165+") {
		t.Fatal("rendered figure missing the open bin")
	}
}

func TestFigure6ShapeHolds(t *testing.T) {
	r := tinyRunner(t)
	res := Figure6(r)
	if len(res.Entries) != len(quickSet) {
		t.Fatalf("entries = %d", len(res.Entries))
	}
	for _, e := range res.Entries {
		if e.Normalized[sim.SchemeSRAM64TSB] != 1 {
			t.Errorf("%s: baseline not normalized to 1", e.Profile.Name)
		}
		for s, v := range e.Normalized {
			if v <= 0 {
				t.Errorf("%s scheme %d: non-positive normalized perf", e.Profile.Name, s)
			}
		}
	}
	avg := res.SuiteAverage(0, true)
	if avg[sim.SchemeSRAM64TSB] != 1 {
		t.Fatal("average baseline must be 1")
	}
	var b strings.Builder
	PrintFigure6(&b, res)
	if !strings.Contains(b.String(), "SPEC2006") {
		t.Fatal("rendered figure missing SPEC block")
	}
}

func TestFigure7Breakdown(t *testing.T) {
	r := tinyRunner(t)
	entries := Figure7(r)
	if len(entries) != len(Fig7Apps) {
		t.Fatalf("entries = %d, want %d", len(entries), len(Fig7Apps))
	}
	for _, e := range entries {
		if e.NetLat[sim.SchemeSRAM64TSB] <= 0 {
			t.Errorf("%s: no network latency measured", e.Bench)
		}
		// STT-RAM queueing must exceed SRAM queueing (the 33-cycle writes).
		if e.QueueLat[sim.SchemeSTT64TSB] <= e.QueueLat[sim.SchemeSRAM64TSB] {
			t.Errorf("%s: STT-RAM should queue more than SRAM at banks", e.Bench)
		}
	}
	var b strings.Builder
	PrintFigure7(&b, entries)
	if !strings.Contains(b.String(), "que lat") {
		t.Fatal("rendered figure missing queue rows")
	}
}

func TestFigure8EnergySavings(t *testing.T) {
	r := tinyRunner(t)
	entries := Figure8(r)
	for _, e := range entries {
		if e.Normalized[sim.SchemeSRAM64TSB] != 1 {
			t.Errorf("%s: baseline not 1", e.Profile.Name)
		}
		// Every STT-RAM scheme must save un-core energy vs SRAM.
		for _, s := range Fig8Schemes[1:] {
			if e.Normalized[s] >= 1 {
				t.Errorf("%s/%s: no energy saving (%.2f)", e.Profile.Name, s, e.Normalized[s])
			}
		}
	}
	var b strings.Builder
	PrintFigure8(&b, entries)
	if !strings.Contains(b.String(), "Avg.") {
		t.Fatal("rendered figure missing average row")
	}
}

func TestFigure12GeometrySweep(t *testing.T) {
	r := tinyRunner(t)
	points := Figure12(r)
	if len(points) != 6 {
		t.Fatalf("points = %d, want 6", len(points))
	}
	base := points[0]
	if base.Regions != 4 || base.Normalized != 1 {
		t.Fatalf("first point should be the 4/corner baseline, got %+v", base)
	}
	var b strings.Builder
	PrintFigure12(&b, points)
	if !strings.Contains(b.String(), "stagger") {
		t.Fatal("rendered sweep missing stagger rows")
	}
}

func TestFigure13HopSweep(t *testing.T) {
	r := tinyRunner(t)
	res := Figure13(r)
	// All three hop distances must be measured on every app.
	for h := 1; h <= 3; h++ {
		if res.Reqs[h] <= 0 {
			t.Errorf("no buffered requests measured at hop distance %d: %v", h, res.Reqs)
		}
	}
	if len(res.PerApp) == 0 {
		t.Fatal("per-app panel empty")
	}
	var b strings.Builder
	PrintFigure13(&b, res)
	if !strings.Contains(b.String(), "IPC improvement") {
		t.Fatal("rendered figure missing improvement panel")
	}
}

func TestFigure14Comparison(t *testing.T) {
	r := tinyRunner(t)
	entries := Figure14(r)
	if entries[0].Bench != "AVG-8" {
		t.Fatalf("first row should be the average, got %s", entries[0].Bench)
	}
	for _, e := range entries {
		if e.Normalized[DesignSTT] != 1 {
			t.Errorf("%s: STT baseline not 1", e.Bench)
		}
		// BUFF-20 must reduce un-core latency on these write-heavy apps.
		if e.Normalized[DesignBuff20] >= 1 {
			t.Errorf("%s: BUFF-20 did not reduce latency (%.2f)", e.Bench, e.Normalized[DesignBuff20])
		}
	}
	var b strings.Builder
	PrintFigure14(&b, entries)
	if !strings.Contains(b.String(), "BUFF-20") {
		t.Fatal("rendered figure missing BUFF-20 column")
	}
}

func TestRunnerKeyCoversAllConfigKnobs(t *testing.T) {
	r := tinyRunner(t)
	base := sim.Config{Scheme: sim.SchemeSTT4TSBWB,
		Assignment: workload.Homogeneous(workload.MustByName("x264"))}
	a, err := r.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	variants := []func(*sim.Config){
		func(c *sim.Config) { c.HoldCap = -1 },
		func(c *sim.Config) { c.BankQueueDepth = 8 },
		func(c *sim.Config) { c.HybridSRAMBanks = 8 },
		func(c *sim.Config) { c.EarlyWriteTermination = true },
		func(c *sim.Config) { c.Seed = 12345 },
		func(c *sim.Config) { c.Fault = &fault.Config{WriteErrorRate: 1e-3} },
		func(c *sim.Config) { c.AuditInterval = 500 },
		func(c *sim.Config) { c.WatchdogCycles = 12345 },
	}
	for i, mutate := range variants {
		cfg := base
		mutate(&cfg)
		b, err := r.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a == b {
			t.Errorf("variant %d: memoizer conflated distinct configurations", i)
		}
	}
}

func TestResilienceSweep(t *testing.T) {
	r := tinyRunner(t)
	entries := Resilience(r, workload.MustByName("tpcc"))
	// Quick mode: per scheme, one fault-free baseline + one rate + one kill.
	want := 3 * len(sim.AllSchemes())
	if len(entries) != want {
		t.Fatalf("sweep produced %d entries, want %d", len(entries), want)
	}
	for _, e := range entries {
		if e.Failed {
			t.Errorf("%s rate=%g kills=%d failed: %s", e.Scheme, e.Rate, e.TSBKills, e.Err)
			continue
		}
		if e.Rate == 0 && e.TSBKills == 0 {
			if e.Normalized != 1 || e.Fault != nil {
				t.Errorf("%s baseline: norm=%f fault=%+v", e.Scheme, e.Normalized, e.Fault)
			}
			continue
		}
		// The server metric is MinIPC; at this tiny test scale the slowest
		// core can make zero progress with half the TSBs dead, so only demand
		// system-level progress and a sane normalization.
		if e.IT <= 0 || e.Normalized < 0 {
			t.Errorf("%s rate=%g kills=%d: IT=%f normalized=%f", e.Scheme, e.Rate, e.TSBKills, e.IT, e.Normalized)
		}
		if e.Fault == nil {
			t.Errorf("%s rate=%g kills=%d: no fault report", e.Scheme, e.Rate, e.TSBKills)
			continue
		}
		if e.TSBKills > 0 && e.Fault.TSBsFailed != uint64(e.TSBKills) {
			t.Errorf("%s kills=%d: report says %d TSBs failed", e.Scheme, e.TSBKills, e.Fault.TSBsFailed)
		}
		// SRAM banks are immune to stochastic write errors, so the baseline
		// scheme never draws; every STT-RAM scheme must.
		if e.Rate > 0 {
			if drew := e.Fault.WriteDraws > 0; drew == (e.Scheme == sim.SchemeSRAM64TSB) {
				t.Errorf("%s rate=%g: draws=%d", e.Scheme, e.Rate, e.Fault.WriteDraws)
			}
		}
	}
	var buf strings.Builder
	PrintResilience(&buf, entries)
	if !strings.Contains(buf.String(), "rehomed") || !strings.Contains(buf.String(), "ok") {
		t.Fatalf("rendered table missing expected columns:\n%s", buf.String())
	}
}
