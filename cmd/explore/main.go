// Command explore runs a design-space exploration: it sweeps technology
// profiles, topologies, and scheme/geometry knobs over the campaign engine
// and reports the Pareto frontier on uncore latency, uncore energy, and die
// area.
//
// Usage:
//
//	explore -bench tpcc -schemes wb,rca -tech sttram,sttram-rr10 \
//	        -topo 8x8x2,8x8x3 [-regions 4,8] [-hops 1,2] [-wbuf 0,20] \
//	        [-strategy grid|random|halving] [-samples 16] [-eta 2] \
//	        [-min-cycles 5000] [-search-seed 1] [-jobs 8] \
//	        [-journal explore.journal -resume] [-out results/] \
//	        [-server http://host:8080]
//
// With no axis flags the sweep covers every registered tech profile at the
// paper's 8x8x2 shape. -server posts each point's job spec to a live sttsimd
// instead of evaluating in-process.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sttsim/internal/campaign"
	"sttsim/internal/explore"
	"sttsim/internal/mem"
	"sttsim/internal/sim"
	"sttsim/internal/version"
	api "sttsim/pkg/sttsim"
)

func main() {
	os.Exit(run())
}

func run() int {
	bench := flag.String("bench", "tpcc", "benchmark name from Table 3, or case1/case2")
	schemes := flag.String("schemes", "", "comma-separated scheme axis (sram|stt64|stt4|ss|rca|wb; empty = fixed wb)")
	tech := flag.String("tech", "", "comma-separated tech-profile axis (empty = all registered: "+
		strings.Join(mem.ProfileNames(), ", ")+")")
	topo := flag.String("topo", "", "comma-separated topology axis as XxYxL shapes (empty = fixed 8x8x2)")
	regions := flag.String("regions", "", "comma-separated region-count axis (4, 8, 16; staggered TSB placement)")
	hops := flag.String("hops", "", "comma-separated re-ordering distance axis")
	wbuf := flag.String("wbuf", "", "comma-separated write-buffer depth axis")
	warmup := flag.Uint64("warmup", 0, "warmup cycles per evaluation (0 = default)")
	measure := flag.Uint64("measure", 0, "full measurement budget per evaluation (0 = default)")
	seed := flag.Uint64("seed", 0, "workload seed (0 = default)")
	strategyName := flag.String("strategy", "grid", "search strategy: grid|random|halving")
	samples := flag.Int("samples", 16, "random strategy: points to sample")
	eta := flag.Int("eta", 2, "halving strategy: keep-fraction denominator per round")
	minCycles := flag.Uint64("min-cycles", 0, "halving strategy: first-round budget (0 = measure/8)")
	searchSeed := flag.Uint64("search-seed", 1, "strategy seed (random sampling, halving subsample)")
	jobs := flag.Int("jobs", 0, "parallel evaluations (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 0, "per-evaluation wall-clock budget (0 = none)")
	journal := flag.String("journal", "", "checkpoint journal path (enables crash-safe progress)")
	resume := flag.Bool("resume", false, "replay finished evaluations from -journal instead of re-running")
	outDir := flag.String("out", "", "write pareto.jsonl, pareto.csv, summary.txt under this directory")
	server := flag.String("server", "", "evaluate against a live sttsimd at this base URL instead of in-process")
	showVersion := flag.Bool("version", false, "print the build version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Printf("explore %s\n", version.String())
		return 0
	}
	if *resume && *journal == "" {
		fmt.Fprintln(os.Stderr, "-resume needs -journal to know where the checkpoint lives")
		return 2
	}

	base := api.JobSpec{
		Scheme:        "wb",
		Bench:         *bench,
		Seed:          *seed,
		WarmupCycles:  *warmup,
		MeasureCycles: *measure,
	}
	if _, err := sim.FromSpec(base); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	var axes []explore.Axis
	addAxis := func(a explore.Axis, err error) error {
		if err != nil {
			return err
		}
		axes = append(axes, a)
		return nil
	}
	var err error
	if *schemes != "" {
		err = addAxis(explore.SchemeAxis(splitList(*schemes)...))
	}
	if err == nil && (*tech != "" || !hasAxisFlags(*schemes, *topo, *regions, *hops, *wbuf)) {
		// Tech is the default axis: with no axis flags at all, sweep every
		// registered profile.
		err = addAxis(explore.TechAxis(splitList(*tech)...))
	}
	if err == nil && *topo != "" {
		err = addAxis(explore.TopoAxis(splitList(*topo)...))
	}
	if err == nil && *regions != "" {
		err = addAxis(intListAxis(explore.RegionsAxis, *regions))
	}
	if err == nil && *hops != "" {
		err = addAxis(intListAxis(explore.HopsAxis, *hops))
	}
	if err == nil && *wbuf != "" {
		err = addAxis(intListAxis(explore.WriteBufferAxis, *wbuf))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	space, err := explore.NewSpace(base, axes...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	var strategy explore.Strategy
	switch *strategyName {
	case "grid":
		strategy = explore.Grid{}
	case "random":
		strategy = explore.Random{Seed: *searchSeed, Samples: *samples}
	case "halving":
		strategy = explore.SuccessiveHalving{Eta: *eta, MinCycles: *minCycles, Seed: *searchSeed}
	default:
		fmt.Fprintf(os.Stderr, "unknown strategy %q (want grid|random|halving)\n", *strategyName)
		return 2
	}

	x := &explore.Explorer{
		Space:       space,
		Strategy:    strategy,
		Policy:      campaign.Policy{Jobs: *jobs, RunTimeout: *timeout},
		JournalPath: *journal,
		Resume:      *resume,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}
	if *server != "" {
		client, cerr := api.New(*server)
		if cerr != nil {
			fmt.Fprintln(os.Stderr, cerr)
			return 2
		}
		x.Client = client
	}

	// SIGINT/SIGTERM drain the campaign gracefully: the journal keeps every
	// finished verdict, and a re-run with -resume picks up the remainder.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	rep, err := x.Run(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		if ctx.Err() != nil {
			return 130 // interrupted: journal is flushed, -resume continues
		}
		return 1
	}
	fmt.Fprintf(os.Stderr, "explore: finished in %v\n", time.Since(start).Round(time.Millisecond))

	if *outDir != "" {
		if err := rep.WriteOutputs(*outDir); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "explore: wrote pareto.jsonl, pareto.csv, summary.txt under %s\n", *outDir)
	}
	if err := rep.WriteSummary(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

// hasAxisFlags reports whether any explicit axis flag was given.
func hasAxisFlags(vals ...string) bool {
	for _, v := range vals {
		if v != "" {
			return true
		}
	}
	return false
}

// splitList splits a comma-separated flag value, dropping empty elements.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// intListAxis parses a comma-separated int list into an axis.
func intListAxis(mk func(...int) (explore.Axis, error), s string) (explore.Axis, error) {
	var vals []int
	for _, part := range splitList(s) {
		n, err := strconv.Atoi(part)
		if err != nil {
			return explore.Axis{}, fmt.Errorf("explore: bad axis value %q: %v", part, err)
		}
		vals = append(vals, n)
	}
	return mk(vals...)
}
