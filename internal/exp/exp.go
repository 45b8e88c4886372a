// Package exp contains one driver per table/figure of the paper's
// evaluation (Section 4). Each driver runs the required simulations through
// a memoizing Runner, returns a structured result, and can render itself in
// the same rows/series layout the paper reports. Experiments pairs every
// driver with its printer under the name cmd/experiments selects it by.
// EXPERIMENTS.md is copied by hand from this package's output, not
// generated from it.
package exp

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"sttsim/internal/campaign"
	"sttsim/internal/sim"
	"sttsim/internal/workload"
)

// Options configure an experiment campaign.
type Options struct {
	// WarmupCycles/MeasureCycles per run; zero means the sim defaults.
	WarmupCycles  uint64
	MeasureCycles uint64
	Seed          uint64
	// Quick restricts sweeps to a representative subset of benchmarks so the
	// whole campaign finishes in seconds rather than minutes.
	Quick bool
	// TechProfile overrides every run's bank technology with a registered
	// profile ("" keeps each scheme's paper default).
	TechProfile string
	// MeshX/MeshY/Layers override the network shape (all zero keeps the
	// paper's 8x8x2).
	MeshX, MeshY, Layers int
}

// Experiment is one table or figure of the evaluation: the name
// cmd/experiments selects it by, the title heading its output, and Run,
// which executes the driver on r and renders its result to w. Run failures
// render as FAILED(<cause>) cells; a driver never aborts.
type Experiment struct {
	Name, Title string
	Run         func(r *Runner, w io.Writer)
}

// Experiments is the evaluation in the order `experiments -exp all` runs it.
var Experiments = []Experiment{
	{"table2", "Table 2: SRAM vs STT-RAM bank parameters (32nm, 3GHz)",
		func(_ *Runner, w io.Writer) { Table2(w) }},
	{"table3", "Table 3: benchmark characterization, measured vs paper",
		func(r *Runner, w io.Writer) { PrintTable3(w, Table3(r)) }},
	{"fig3", "Figure 3: accesses following a write to the same bank (STT-RAM baseline)",
		func(r *Runner, w io.Writer) { PrintFigure3(w, Figure3(r)) }},
	{"fig6", "Figure 6: system throughput of the six schemes",
		func(r *Runner, w io.Writer) { PrintFigure6(w, Figure6(r)) }},
	{"fig7", "Figure 7: packet latency breakdown (network vs bank queuing)",
		func(r *Runner, w io.Writer) { PrintFigure7(w, Figure7(r)) }},
	{"fig8", "Figure 8: un-core energy normalized to SRAM-64TSB",
		func(r *Runner, w io.Writer) { PrintFigure8(w, Figure8(r)) }},
	{"fig9", "Figure 9: weighted speedup and instruction throughput (Cases 1-3)",
		func(r *Runner, w io.Writer) { PrintFigure9(w, Figure9(r)) }},
	{"fig10", "Figure 10: maximum slowdown in Case-2 (fairness)",
		func(r *Runner, w io.Writer) { PrintFigure10(w, Figure10(r)) }},
	{"fig12", "Figure 12: sensitivity to TSB placement and region count (WB scheme)",
		func(r *Runner, w io.Writer) { PrintFigure12(w, Figure12(r)) }},
	{"fig13", "Figure 13: sensitivity to parent-child hop distance",
		func(r *Runner, w io.Writer) { PrintFigure13(w, Figure13(r)) }},
	{"fig14", "Figure 14: comparison with the read-preemptive write buffer (BUFF-20)",
		func(r *Runner, w io.Writer) { PrintFigure14(w, Figure14(r)) }},
	{"extensions", "Extensions: early write termination (Zhou et al.) and hybrid SRAM/STT-RAM banks",
		func(r *Runner, w io.Writer) { PrintExtensions(w, Extensions(r)) }},
	{"resilience", "Resilience: degradation under stochastic write errors and TSB failures (tpcc)",
		func(r *Runner, w io.Writer) { PrintResilience(w, Resilience(r, workload.MustByName("tpcc"))) }},
	{"ablations", "Ablations: write-latency inflection, WB window, hold cap, interface depth",
		func(r *Runner, w io.Writer) {
			PrintWriteLatency(w, AblationWriteLatency(r))
			for _, a := range []struct {
				title string
				run   func(*Runner) []AblationPoint
			}{
				{"WB tagging window (Section 3.5: N=100)", AblationWBWindow},
				{"arbiter hard-hold window", AblationHoldCap},
				{"module-interface queue depth", AblationBankQueue},
			} {
				fmt.Fprintln(w)
				PrintAblation(w, a.title, a.run(r))
			}
		}},
}

// quickSet is the representative subset used with Options.Quick: the paper's
// case-study apps plus one light app per suite.
var quickSet = []string{"tpcc", "sap", "sclust", "x264", "lbm", "hmmer", "libqntm", "mcf"}

// benchmarks returns the benchmark list the options select.
func (o Options) benchmarks() []workload.Profile {
	if !o.Quick {
		return workload.Profiles
	}
	out := make([]workload.Profile, 0, len(quickSet))
	for _, n := range quickSet {
		out = append(out, workload.MustByName(n))
	}
	return out
}

// Runner resolves campaign options onto configurations and executes them
// through a campaign.Engine: runs are supervised (timeout, panic recovery,
// retry policy), deduplicated by configuration fingerprint so experiments
// sharing runs (e.g. the SRAM baseline, or alone-IPC references) pay for
// them once, and optionally checkpointed to disk.
type Runner struct {
	opts Options
	eng  *campaign.Engine
}

// NewRunner builds a runner backed by a fresh sequential engine — the
// drop-in equivalent of the old memoizing runner.
func NewRunner(opts Options) *Runner {
	return NewRunnerEngine(opts, campaign.New(campaign.Policy{Jobs: 1}))
}

// NewRunnerEngine builds a runner on an existing engine, sharing its worker
// pool, memo and checkpoint journal with other experiments.
func NewRunnerEngine(opts Options, eng *campaign.Engine) *Runner {
	return &Runner{opts: opts, eng: eng}
}

// Options returns the campaign options.
func (r *Runner) Options() Options { return r.opts }

// Engine exposes the underlying campaign engine (for stats and draining).
func (r *Runner) Engine() *campaign.Engine { return r.eng }

// resolve fills unset per-run knobs from the campaign options, so identical
// experiments hash to identical fingerprints regardless of which driver
// built the config.
func (r *Runner) resolve(cfg sim.Config) sim.Config {
	if cfg.WarmupCycles == 0 {
		cfg.WarmupCycles = r.opts.WarmupCycles
	}
	if cfg.MeasureCycles == 0 {
		cfg.MeasureCycles = r.opts.MeasureCycles
	}
	if cfg.Seed == 0 {
		cfg.Seed = r.opts.Seed
	}
	if cfg.TechProfile == "" {
		cfg.TechProfile = r.opts.TechProfile
	}
	if cfg.MeshX == 0 && cfg.MeshY == 0 && cfg.Layers == 0 {
		cfg.MeshX, cfg.MeshY, cfg.Layers = r.opts.MeshX, r.opts.MeshY, r.opts.Layers
	}
	return cfg
}

// Run executes (or joins, or replays) one simulation and blocks for its
// outcome.
func (r *Runner) Run(cfg sim.Config) (*sim.Result, error) {
	return r.eng.Run(r.resolve(cfg))
}

// Prefetch submits configurations to the engine's worker pool and drops
// the handles. Drivers submit their full sweep up front, then keep their
// sequential collection loops: with -jobs N the runs execute N-wide in the
// background while the loop joins them in deterministic order, so rendered
// output is byte-identical to a sequential campaign.
func (r *Runner) Prefetch(cfgs ...sim.Config) {
	for _, cfg := range cfgs {
		cfg = r.resolve(cfg)
		r.eng.Submit(cfg.Fingerprint(), cfg, nil)
	}
}

// RunScheme is shorthand for a homogeneous run of one benchmark.
func (r *Runner) RunScheme(scheme sim.Scheme, prof workload.Profile) (*sim.Result, error) {
	return r.Run(sim.Config{Scheme: scheme, Assignment: workload.Homogeneous(prof)})
}

// SchemeConfig is the homogeneous-run config RunScheme executes — drivers
// use it to prefetch scheme sweeps.
func SchemeConfig(scheme sim.Scheme, prof workload.Profile) sim.Config {
	return sim.Config{Scheme: scheme, Assignment: workload.Homogeneous(prof)}
}

// failedCell renders a failed run's table cell.
func failedCell(err error) string {
	return "FAILED(" + campaign.Cause(err) + ")"
}

// AloneIPC returns the mean per-copy IPC of a benchmark running alone (64
// threads/copies of itself) under the given scheme — the paper's
// IPC_alone_i reference for Equations 2 and 3.
func (r *Runner) AloneIPC(scheme sim.Scheme, prof workload.Profile) (float64, error) {
	res, err := r.RunScheme(scheme, prof)
	if err != nil {
		return 0, err
	}
	var sum float64
	for _, v := range res.IPC {
		sum += v
	}
	return sum / float64(len(res.IPC)), nil
}

// PerfMetric is the paper's per-benchmark headline number: IPC of the
// slowest thread for multi-threaded suites, instruction throughput for the
// multi-programmed SPEC suite ("the improvements reported are with the
// slowest threads"; Section 4.1).
func PerfMetric(prof workload.Profile, res *sim.Result) float64 {
	if prof.Suite == workload.SuiteSPEC {
		return res.InstructionThroughput
	}
	return res.MinIPC
}

// table is a tiny fixed-width table renderer.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) write(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.header)
	for _, row := range t.rows {
		line(row)
	}
}

// f2 formats a float with two decimals.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// f3 formats a float with three decimals.
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// sortedNames returns map keys in sorted order.
func sortedNames[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
