// Command experiments regenerates every table and figure of the paper's
// evaluation section. By default it runs the full 42-benchmark campaign;
// -quick restricts sweeps to a representative subset, and -exp selects a
// single experiment.
//
// The campaign is supervised: runs execute on a bounded worker pool (-jobs),
// each with an optional wall-clock budget (-run-timeout), panic recovery and
// a retry policy for watchdog/timeout verdicts. Failed runs render as
// FAILED(<cause>) cells instead of aborting the campaign, and SIGINT/SIGTERM
// drains gracefully. With -checkpoint the campaign journals every finished
// run to a JSONL file; -resume replays the journal so an interrupted
// campaign only executes the remainder.
//
// Usage:
//
//	experiments [-quick] [-exp all|<name>] [-warmup N] [-measure N] [-seed N]
//	            [-tech PROFILE] [-topo XxYxL]
//	            [-jobs N] [-run-timeout D] [-checkpoint FILE] [-resume]
//	            [-obs-addr :6060]
//	            [-cpuprofile cpu.out] [-memprofile mem.out]
//
// The -exp names are those of exp.Experiments, in the order -exp all runs
// them (-help lists them). All experiment tables go to stdout, which is byte-identical for a given
// configuration regardless of -jobs and of checkpoint replay; timing and
// campaign diagnostics go to stderr.
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	_ "net/http/pprof" // -obs-addr debug endpoint

	"sttsim/internal/campaign"
	"sttsim/internal/exp"
	"sttsim/internal/mem"
	"sttsim/internal/noc"
	"sttsim/internal/prof"
	"sttsim/internal/version"
)

func main() {
	which := flag.String("exp", "all", "experiment to run ("+experimentNames()+")")
	quick := flag.Bool("quick", false, "restrict sweeps to a representative benchmark subset")
	warmup := flag.Uint64("warmup", 0, "warmup cycles per run (0 = default)")
	measure := flag.Uint64("measure", 0, "measured cycles per run (0 = default)")
	seed := flag.Uint64("seed", 0, "workload seed (0 = default)")
	tech := flag.String("tech", "", "override the bank technology with a registered profile (registered: "+
		strings.Join(mem.ProfileNames(), ", ")+"; empty = scheme defaults)")
	topo := flag.String("topo", "", "override the network shape as XxYxL, e.g. 8x8x3 (empty = paper's 8x8x2)")
	jobs := flag.Int("jobs", 0, "concurrent simulations (0 = GOMAXPROCS)")
	runTimeout := flag.Duration("run-timeout", 0, "wall-clock budget per simulation attempt (0 = none)")
	checkpoint := flag.String("checkpoint", "", "JSONL checkpoint journal for finished runs (empty = none)")
	resume := flag.Bool("resume", false, "replay finished runs from the checkpoint journal instead of re-executing them")
	obsAddr := flag.String("obs-addr", "", "serve net/http/pprof + expvar (live campaign progress) on this address (empty = off)")
	showVersion := flag.Bool("version", false, "print the build version and exit")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the whole campaign to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (post-campaign snapshot) to this file")
	flag.Parse()

	if *showVersion {
		fmt.Printf("experiments %s\n", version.String())
		return
	}

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	code := run(*which, *quick, *warmup, *measure, *seed, *tech, *topo, *jobs, *runTimeout, *checkpoint, *resume, *obsAddr)
	if perr := stopProf(); perr != nil {
		fmt.Fprintln(os.Stderr, "experiments: profile:", perr)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// experimentNames lists the valid -exp values.
func experimentNames() string {
	names := []string{"all"}
	for _, e := range exp.Experiments {
		names = append(names, e.Name)
	}
	return strings.Join(names, ", ")
}

// run executes the selected experiments and returns the process exit code
// (0 = every experiment passed, 1 = failures or interruption, 2 = bad
// usage). Factored out of main so deferred cleanup runs before os.Exit.
func run(which string, quick bool, warmup, measure, seed uint64, tech, topo string, jobs int, runTimeout time.Duration, checkpoint string, resume bool, obsAddr string) int {
	if resume && checkpoint == "" {
		fmt.Fprintln(os.Stderr, "experiments: -resume needs -checkpoint FILE (there is no journal to resume from)")
		return 2
	}
	known := which == "all"
	for _, e := range exp.Experiments {
		known = known || e.Name == which
	}
	if !known {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (valid: %s)\n", which, experimentNames())
		return 2
	}
	var shape noc.Topology
	if topo != "" {
		t, err := noc.ParseTopology(topo)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			return 2
		}
		shape = t
	}
	if tech != "" {
		if _, ok := mem.LookupProfile(tech); !ok {
			fmt.Fprintf(os.Stderr, "experiments: unknown tech profile %q (registered: %s)\n",
				tech, strings.Join(mem.ProfileNames(), ", "))
			return 2
		}
	}
	// SIGINT/SIGTERM cancels the campaign context: in-flight runs stop at
	// their next poll, finished verdicts stay journaled, and the drivers
	// render what they have with the rest marked FAILED(cancelled).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	eng := campaign.NewWithContext(ctx, campaign.Policy{Jobs: jobs, RunTimeout: runTimeout})
	defer eng.Close()
	if obsAddr != "" {
		// Live observability endpoint: pprof under /debug/pprof/, campaign
		// progress as JSON under /debug/vars. Registration happens once per
		// process, failures are diagnostics, and nothing touches stdout.
		expvar.Publish("campaign", expvar.Func(func() interface{} { return eng.Stats() }))
		go func() {
			if err := http.ListenAndServe(obsAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: obs endpoint: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "experiments: pprof+expvar on http://%s/debug/\n", obsAddr)
	}
	if checkpoint != "" {
		logf := func(format string, args ...any) { fmt.Fprintf(os.Stderr, "experiments: "+format+"\n", args...) }
		if _, err := eng.OpenJournal(checkpoint, resume, campaign.JournalOptions{Logf: logf}); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			return 1
		}
		if n := eng.Stats().Replayed; n > 0 {
			logf("resuming, %d finished runs replayed from %s", n, checkpoint)
		}
	}

	r := exp.NewRunnerEngine(exp.Options{
		WarmupCycles:  warmup,
		MeasureCycles: measure,
		Seed:          seed,
		Quick:         quick,
		TechProfile:   tech,
		MeshX:         shape.MeshX,
		MeshY:         shape.MeshY,
		Layers:        shape.Layers,
	}, eng)

	// verdict is one experiment's outcome for the end-of-campaign summary.
	type verdict struct {
		name      string
		failed    uint64 // run failures surfaced as FAILED(...) cells
		cancelled uint64 // runs abandoned by an interrupt mid-experiment
		skipped   bool   // campaign interrupted before this experiment started
		secs      float64
	}
	var verdicts []verdict
	w := os.Stdout
	for _, e := range exp.Experiments {
		if which != "all" && which != e.Name {
			continue
		}
		if eng.Interrupted() {
			verdicts = append(verdicts, verdict{name: e.Name, skipped: true})
			continue
		}
		start := time.Now()
		before := eng.Stats()
		fmt.Fprintf(w, "=== %s ===\n", e.Title)
		e.Run(r, w)
		after := eng.Stats()
		v := verdict{
			name:      e.Name,
			failed:    after.Failed - before.Failed,
			cancelled: after.Cancelled - before.Cancelled,
			secs:      time.Since(start).Seconds(),
		}
		verdicts = append(verdicts, v)
		// Timing to stderr: stdout stays byte-identical across -jobs levels
		// and checkpoint replays.
		fmt.Fprintf(os.Stderr, "(%s in %.1fs)\n", e.Name, v.secs)
		fmt.Fprintln(w)
	}

	eng.Drain()
	st := eng.Stats()
	fmt.Fprintf(os.Stderr, "campaign: %s\n", st)
	exitCode := 0
	if len(verdicts) > 1 || st.Failed > 0 || eng.Interrupted() {
		fmt.Fprintln(os.Stderr, "campaign summary:")
		for _, v := range verdicts {
			status := "PASS"
			detail := fmt.Sprintf("%.1fs", v.secs)
			switch {
			case v.skipped:
				status, detail = "SKIP", "interrupted before start"
			case v.failed > 0:
				status = "FAIL"
				detail = fmt.Sprintf("%d run(s) FAILED, see cells above", v.failed)
			case v.cancelled > 0:
				status = "FAIL"
				detail = fmt.Sprintf("interrupted: %d run(s) cancelled", v.cancelled)
			}
			fmt.Fprintf(os.Stderr, "  %-10s %-4s %s\n", v.name, status, detail)
			if status != "PASS" {
				exitCode = 1
			}
		}
	}
	// Close cancels the engine context, so a real SIGINT can only be told
	// apart before it.
	if eng.Interrupted() {
		fmt.Fprintln(os.Stderr, "campaign interrupted; partial results rendered above")
		exitCode = 1
	}
	if err := eng.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: closing checkpoint journal: %v\n", err)
		exitCode = 1
	}
	return exitCode
}
