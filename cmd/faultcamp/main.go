// Command faultcamp runs one fault-injection campaign and reports how the
// system degraded — or, when it stopped making progress, the structured
// failure (cycle, deadlock verdict, in-flight packet dump) instead of a
// panic trace.
//
// Usage:
//
//	faultcamp [-scheme wb] [-bench tpcc] [-rate 1e-4] [-kill-tsbs 1]
//	          [-kill-cycle 1] [-regions 4] [-seed N] [-warmup N] [-measure N]
//	          [-max-retries 3] [-deadlock] [-sweep]
//	          [-trace FILE] [-metrics-out FILE [-metrics-interval N]]
//
// Examples:
//
//	faultcamp -rate 1e-4 -kill-tsbs 1          # acceptance scenario
//	faultcamp -deadlock                        # induce + report a deadlock
//	faultcamp -sweep                           # the exp resilience sweep
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"sttsim/internal/exp"
	"sttsim/internal/fault"
	"sttsim/internal/noc"
	"sttsim/internal/obs"
	"sttsim/internal/sim"
	"sttsim/internal/stats"
	"sttsim/internal/version"
	"sttsim/internal/workload"
)

func main() {
	schemeFlag := flag.String("scheme", "wb", "scheme: sram, stt64, stt4, ss, rca, wb")
	bench := flag.String("bench", "tpcc", "benchmark name (Table 3)")
	rate := flag.Float64("rate", 0, "raw STT-RAM write error rate (per array write)")
	killTSBs := flag.Int("kill-tsbs", 0, "number of region TSBs to kill (regions 0..n-1)")
	killCycle := flag.Uint64("kill-cycle", 1, "cycle the TSB failures fire at")
	regions := flag.Int("regions", 4, "region count (4, 8, or 16)")
	seed := flag.Uint64("seed", 0, "workload seed (0 = default); fault draws derive from it")
	warmup := flag.Uint64("warmup", 0, "warmup cycles (0 = default)")
	measure := flag.Uint64("measure", 0, "measured cycles (0 = default)")
	maxRetries := flag.Int("max-retries", 0, "write retry bound (0 = default 3)")
	audit := flag.Uint64("audit", 10000, "invariant audit interval in cycles (0 disables)")
	deadlock := flag.Bool("deadlock", false, "induce a deadlock (kill a bank's local port) and show the structured report")
	sweep := flag.Bool("sweep", false, "run the full resilience sweep instead of one campaign")
	tracePath := flag.String("trace", "", "record packet-lifecycle and fault events to this file (.jsonl = JSONL, else binary)")
	metricsOut := flag.String("metrics-out", "", "write sampled time-series metrics to this file (.jsonl = JSONL, else CSV)")
	metricsInterval := flag.Uint64("metrics-interval", 1000, "sampling period in cycles for -metrics-out")
	showVersion := flag.Bool("version", false, "print the build version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Printf("faultcamp %s\n", version.String())
		return
	}

	if *sweep {
		r := exp.NewRunner(exp.Options{WarmupCycles: *warmup, MeasureCycles: *measure, Seed: *seed})
		entries, err := exp.Resilience(r, *bench)
		if err != nil {
			fmt.Fprintf(os.Stderr, "faultcamp: %v\n", err)
			os.Exit(1)
		}
		exp.PrintResilience(os.Stdout, entries)
		return
	}

	scheme, err := sim.ParseScheme(*schemeFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "faultcamp: %v\n", err)
		os.Exit(2)
	}
	prof, err := workload.ByName(*bench)
	if err != nil {
		fmt.Fprintf(os.Stderr, "faultcamp: %v\n", err)
		os.Exit(2)
	}

	fc := &fault.Config{WriteErrorRate: *rate, MaxWriteRetries: *maxRetries}
	for k := 0; k < *killTSBs; k++ {
		fc.TSBFailures = append(fc.TSBFailures, fault.TSBFailure{Cycle: *killCycle, Region: k})
	}
	if *deadlock {
		// Kill the ejection port of a mid-mesh cache bank: every demand
		// request to that bank wedges at its router, the cores' windows fill
		// on the never-completing loads, the system quiesces, and the
		// watchdog fires.
		fc.PortFaults = append(fc.PortFaults, fault.PortFault{
			Cycle: *killCycle, Node: noc.DefaultTopology().Below(27), Port: noc.PortLocal,
		})
	}

	cfg := sim.Config{
		Scheme:        scheme,
		Assignment:    workload.Homogeneous(prof),
		Regions:       *regions,
		Seed:          *seed,
		WarmupCycles:  *warmup,
		MeasureCycles: *measure,
		Fault:         fc,
		AuditInterval: *audit,
	}
	if *deadlock {
		// A short watchdog window keeps the demo snappy.
		cfg.WatchdogCycles = 2000
	}

	var sink obs.Sink
	if *tracePath != "" || *metricsOut != "" {
		cfg.Obs = &sim.ObsConfig{}
		if *tracePath != "" {
			f, ferr := os.Create(*tracePath)
			if ferr != nil {
				fmt.Fprintf(os.Stderr, "faultcamp: %v\n", ferr)
				os.Exit(1)
			}
			if strings.HasSuffix(*tracePath, ".jsonl") {
				sink = obs.NewJSONLSink(f)
			} else {
				sink = obs.NewBinarySink(f)
			}
			cfg.Obs.Sink = sink
		}
		if *metricsOut != "" {
			cfg.Obs.MetricsInterval = *metricsInterval
		}
	}

	fmt.Printf("campaign: scheme=%s bench=%s rate=%g kill-tsbs=%d@%d regions=%d\n",
		scheme, prof.Name, *rate, *killTSBs, *killCycle, *regions)

	res, err := sim.Run(cfg)
	if sink != nil {
		if cerr := sink.Close(); cerr != nil {
			fmt.Fprintf(os.Stderr, "faultcamp: trace: %v\n", cerr)
		}
	}
	if err != nil {
		var re *sim.RunError
		if errors.As(err, &re) {
			printRunError(re)
			os.Exit(3)
		}
		fmt.Fprintf(os.Stderr, "faultcamp: %v\n", err)
		os.Exit(1)
	}
	if *metricsOut != "" && res.Metrics != nil {
		if werr := writeMetrics(*metricsOut, res.Metrics); werr != nil {
			fmt.Fprintf(os.Stderr, "faultcamp: metrics: %v\n", werr)
			os.Exit(1)
		}
	}

	fmt.Println(res.Summary())
	if res.Fault != nil {
		fmt.Printf("degradation: %s\n", res.Fault)
	} else {
		fmt.Println("degradation: campaign disabled (no faults injected)")
	}
}

// writeMetrics exports the sampled time series (CSV, or JSONL for .jsonl).
func writeMetrics(path string, ml *stats.MetricsLog) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".jsonl") {
		err = ml.WriteJSONL(f)
	} else {
		err = ml.WriteCSV(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// printRunError renders the structured failure: headline, audit verdict, and
// the in-flight packet dump (first 20 packets).
func printRunError(re *sim.RunError) {
	fmt.Printf("RUN FAILED: %s/%s at cycle %d\n", re.Scheme, re.Benchmark, re.Cycle)
	fmt.Printf("  cause: %v\n", re.Err)
	if re.Invariant != nil {
		fmt.Printf("  invariant audit: %v\n", re.Invariant)
	}
	fmt.Printf("  %d packets in flight:\n", len(re.Packets))
	const max = 20
	for i, p := range re.Packets {
		if i == max {
			fmt.Printf("    ... and %d more\n", len(re.Packets)-max)
			break
		}
		fmt.Printf("    %s\n", p.String())
	}
}
