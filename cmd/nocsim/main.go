// Command nocsim runs one simulation of the 64-core / 64-bank 3D CMP and
// prints its performance, latency, traffic and energy report. With fault
// flags it runs a fault-injection campaign and reports how the system
// degraded; a run that stops making progress prints the structured failure
// (cycle, cause, invariant verdict, in-flight packets) instead.
//
// Usage:
//
//	nocsim -bench tpcc -scheme wb [-regions 8] [-stagger] [-hops 2]
//	       [-tech sttram-rr10] [-topo 8x8x3]
//	       [-warmup 20000] [-measure 60000] [-writebuf 0] [-plus1vc]
//	       [-rate 1e-4] [-kill-tsbs 1] [-kill-cycle 1] [-max-retries 3]
//	       [-deadlock] [-audit 10000]
//	       [-trace out.jsonl [-decompose]] [-metrics-out m.csv [-metrics-interval 1000]]
//	       [-cpuprofile cpu.out] [-memprofile mem.out]
//
// Exit status: 0 on success, 2 for bad flags or an invalid configuration,
// 3 when the run fails with a structured *sim.RunError (deadlock, invariant
// violation), 1 for any other error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"sttsim/internal/fault"
	"sttsim/internal/mem"
	"sttsim/internal/noc"
	"sttsim/internal/obs"
	"sttsim/internal/prof"
	"sttsim/internal/sim"
	"sttsim/internal/stats"
	"sttsim/internal/version"
	api "sttsim/pkg/sttsim"
)

// jsonReport is the machine-readable shape of a run (-json flag).
type jsonReport struct {
	Scheme                string    `json:"scheme"`
	Workload              string    `json:"workload"`
	Cycles                uint64    `json:"cycles"`
	InstructionThroughput float64   `json:"instruction_throughput"`
	MinIPC                float64   `json:"min_ipc"`
	PerCoreIPC            []float64 `json:"per_core_ipc"`
	NetTransitCycles      float64   `json:"net_transit_cycles"`
	BankQueueCycles       float64   `json:"bank_queue_cycles"`
	UncoreRoundTrip       float64   `json:"uncore_round_trip_cycles"`
	PacketsDelivered      uint64    `json:"packets_delivered"`
	FlitsDelivered        uint64    `json:"flits_delivered"`
	LinkFlits             uint64    `json:"link_flits"`
	TSVFlits              uint64    `json:"tsv_flits"`
	TSBFlits              uint64    `json:"tsb_flits"`
	UncoreEnergyJ         float64   `json:"uncore_energy_j"`
	WriteShadowPct        float64   `json:"write_shadow_pct"`
	ArbiterDelayDecisions uint64    `json:"arbiter_delay_decisions,omitempty"`
}

func main() {
	os.Exit(run())
}

// run executes one simulation and returns the process exit code. Factored
// out of main so the profiler's deferred stop runs before os.Exit.
func run() int {
	bench := flag.String("bench", "tpcc", "benchmark name from Table 3, or case1/case2")
	schemeName := flag.String("scheme", "wb", "sram|stt64|stt4|ss|rca|wb")
	techName := flag.String("tech", "", "bank technology profile (empty = scheme default; registered: "+
		strings.Join(mem.ProfileNames(), ", ")+")")
	topoName := flag.String("topo", "", "mesh topology as XxYxL, e.g. 8x8x3 (empty = paper's 8x8x2)")
	regions := flag.Int("regions", 0, "cache-layer regions (4, 8, or 16; 0 = default 8)")
	stagger := flag.Bool("stagger", true, "stagger TSB placement (vs corner)")
	hops := flag.Int("hops", 0, "parent-child re-ordering distance (0 = default 2)")
	warmup := flag.Uint64("warmup", 0, "warmup cycles (0 = default)")
	measure := flag.Uint64("measure", 0, "measured cycles (0 = default)")
	seed := flag.Uint64("seed", 0, "workload seed (0 = default)")
	writebuf := flag.Int("writebuf", 0, "per-bank write-buffer entries (20 = BUFF-20)")
	preempt := flag.Bool("preempt", false, "enable read preemption in the write buffer")
	plus1vc := flag.Bool("plus1vc", false, "grant the request class one extra VC")
	var faults faultFlags
	flag.Float64Var(&faults.rate, "rate", 0, "raw STT-RAM write error rate (per array write)")
	flag.IntVar(&faults.killTSBs, "kill-tsbs", 0, "number of region TSBs to kill (regions 0..n-1)")
	flag.Uint64Var(&faults.killCycle, "kill-cycle", 1, "cycle the TSB and -deadlock port failures fire at")
	flag.IntVar(&faults.maxRetries, "max-retries", 0, "write retry bound (0 = default 3)")
	flag.BoolVar(&faults.deadlock, "deadlock", false, "induce a deadlock (kill a bank's local port) and print the structured failure")
	audit := flag.Uint64("audit", 10000, "invariant audit interval in cycles (0 disables)")
	asJSON := flag.Bool("json", false, "emit the report as JSON")
	tracePath := flag.String("trace", "", "record packet-lifecycle events to this file (.jsonl extension means JSONL, else binary)")
	decompose := flag.Bool("decompose", false, "after the run, reduce the -trace file into the latency-breakdown table")
	metricsOut := flag.String("metrics-out", "", "sample time-series metrics and write them to this file (.jsonl extension means JSONL, else CSV)")
	metricsInterval := flag.Uint64("metrics-interval", 1000, "sampling period in cycles for -metrics-out")
	showVersion := flag.Bool("version", false, "print the build version and exit")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (post-run snapshot) to this file")
	flag.Parse()

	if *showVersion {
		fmt.Printf("nocsim %s\n", version.String())
		return 0
	}

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer func() {
		if perr := stopProf(); perr != nil {
			fmt.Fprintln(os.Stderr, "profile:", perr)
		}
	}()

	var topoShape noc.Topology
	if *topoName != "" {
		t, terr := noc.ParseTopology(*topoName)
		if terr != nil {
			fmt.Fprintln(os.Stderr, terr)
			return 2
		}
		topoShape = t
	}
	cfg, err := sim.FromSpec(api.JobSpec{
		Scheme:             *schemeName,
		Bench:              *bench,
		TechProfile:        *techName,
		MeshX:              topoShape.MeshX,
		MeshY:              topoShape.MeshY,
		Layers:             topoShape.Layers,
		Seed:               *seed,
		WarmupCycles:       *warmup,
		MeasureCycles:      *measure,
		Regions:            *regions,
		Corner:             !*stagger,
		Hops:               *hops,
		WriteBufferEntries: *writebuf,
		ReadPreemption:     *preempt,
		ExtraReqVC:         *plus1vc,
		AuditInterval:      *audit,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if cfg.Fault = faults.config(cfg.Topology()); cfg.Fault != nil {
		if faults.deadlock {
			// A short watchdog window reports the induced deadlock promptly.
			cfg.WatchdogCycles = 2000
		}
		if err := cfg.Validate(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}

	if *decompose && *tracePath == "" {
		fmt.Fprintln(os.Stderr, "-decompose needs -trace to know where the events went")
		return 2
	}
	if *metricsOut != "" && *metricsInterval == 0 {
		fmt.Fprintln(os.Stderr, "-metrics-out needs a positive -metrics-interval")
		return 2
	}
	var sink obs.Sink
	if *tracePath != "" || *metricsOut != "" {
		cfg.Obs = &sim.ObsConfig{}
		if *tracePath != "" {
			f, err := os.Create(*tracePath)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
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

	res, rerr := sim.Run(cfg)
	if sink != nil {
		// Flush buffered events before reporting (and before -decompose
		// reads the file back).
		if cerr := sink.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "trace:", cerr)
			return 1
		}
	}
	if rerr != nil {
		var re *sim.RunError
		if errors.As(rerr, &re) {
			printRunError(os.Stderr, re)
			return 3
		}
		fmt.Fprintln(os.Stderr, rerr)
		return 1
	}
	if *metricsOut != "" && res.Metrics != nil {
		if werr := writeMetrics(*metricsOut, res.Metrics); werr != nil {
			fmt.Fprintln(os.Stderr, "metrics:", werr)
			return 1
		}
	}

	if *asJSON {
		rep := jsonReport{
			Scheme:                res.Config.Scheme.String(),
			Workload:              res.Config.Assignment.Name,
			Cycles:                res.Cycles,
			InstructionThroughput: res.InstructionThroughput,
			MinIPC:                res.MinIPC,
			PerCoreIPC:            res.IPC,
			NetTransitCycles:      res.NetTransit,
			BankQueueCycles:       res.BankQueue,
			UncoreRoundTrip:       res.UncoreLatency(),
			PacketsDelivered:      res.Net.PacketsDelivered,
			FlitsDelivered:        res.Net.FlitsDelivered,
			LinkFlits:             res.Net.LinkFlits,
			TSVFlits:              res.Net.TSVFlits,
			TSBFlits:              res.Net.TSBFlits,
			UncoreEnergyJ:         res.Energy.UncoreJ(),
			WriteShadowPct:        res.GapHist.Percent(0) + res.GapHist.Percent(1),
		}
		if res.Arbiter != nil {
			rep.ArbiterDelayDecisions = res.Arbiter.DelayDecisions
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	}

	fmt.Printf("scheme            %s\n", res.Config.Scheme)
	fmt.Printf("workload          %s\n", res.Config.Assignment.Name)
	fmt.Printf("measured cycles   %d\n", res.Cycles)
	fmt.Printf("instr throughput  %.3f (sum of per-core IPC)\n", res.InstructionThroughput)
	fmt.Printf("slowest core IPC  %.4f\n", res.MinIPC)
	fmt.Printf("net transit       %.1f cycles/packet\n", res.NetTransit)
	fmt.Printf("bank queue        %.1f cycles/access\n", res.BankQueue)
	fmt.Printf("uncore round trip %.1f cycles\n", res.UncoreLatency())
	fmt.Printf("packets delivered %d (%d flits)\n", res.Net.PacketsDelivered, res.Net.FlitsDelivered)
	fmt.Printf("link/TSV/TSB flits %d / %d / %d\n", res.Net.LinkFlits, res.Net.TSVFlits, res.Net.TSBFlits)
	fmt.Printf("uncore energy     %.6f J (cache %.6f + leak %.6f, net %.6f + leak %.6f)\n",
		res.Energy.UncoreJ(), res.Energy.CacheDynamicJ, res.Energy.CacheLeakageJ,
		res.Energy.NetworkDynamicJ, res.Energy.NetworkLeakageJ)
	fmt.Printf("write shadow      %.1f%% of bank accesses within 33 cycles of a write\n",
		res.GapHist.Percent(0)+res.GapHist.Percent(1))
	fmt.Printf("2-hop buffering   %.2f requests per occupied router\n", res.HopReqs[2])
	if res.Arbiter != nil {
		fmt.Printf("arbiter           %d delay decisions, %d reads + %d writes via parents\n",
			res.Arbiter.DelayDecisions, res.Arbiter.ForwardedReads, res.Arbiter.ForwardedWrites)
	}
	if res.Fault != nil {
		fmt.Printf("degradation: %s\n", res.Fault)
	}
	fmt.Printf("\naccess-after-write gap distribution\n%s", res.GapHist)
	if *decompose {
		if derr := runDecompose(*tracePath); derr != nil {
			fmt.Fprintln(os.Stderr, "decompose:", derr)
			return 1
		}
	}
	return 0
}

// faultFlags holds the fault-campaign flags.
type faultFlags struct {
	rate       float64
	killTSBs   int
	killCycle  uint64
	maxRetries int
	deadlock   bool
}

// config translates the flags into the run's fault campaign on topology t.
// It returns nil when no fault flag is set, so fault-free runs keep their
// fingerprint and output.
func (f faultFlags) config(t noc.Topology) *fault.Config {
	if f.rate == 0 && f.killTSBs == 0 && f.maxRetries == 0 && !f.deadlock {
		return nil
	}
	fc := &fault.Config{WriteErrorRate: f.rate, MaxWriteRetries: f.maxRetries}
	for k := 0; k < f.killTSBs; k++ {
		fc.TSBFailures = append(fc.TSBFailures, fault.TSBFailure{Cycle: f.killCycle, Region: k})
	}
	if f.deadlock {
		// Kill the ejection port of the cache bank under the core nearest
		// the mesh centre (node 27 on the paper's 8x8 mesh): every demand
		// request to that bank wedges at its router, the cores' windows fill
		// on the never-completing loads, the system quiesces, and the
		// watchdog fires.
		fc.PortFaults = append(fc.PortFaults, fault.PortFault{
			Cycle: f.killCycle,
			Node:  t.Below(t.NodeAt(0, (t.MeshX-1)/2, (t.MeshY-1)/2)),
			Port:  noc.PortLocal,
		})
	}
	return fc
}

// printRunError renders the structured failure: headline, cause, audit
// verdict, and the in-flight packet dump (first 20 packets).
func printRunError(w io.Writer, re *sim.RunError) {
	fmt.Fprintf(w, "RUN FAILED: %s/%s at cycle %d\n", re.Scheme, re.Benchmark, re.Cycle)
	fmt.Fprintf(w, "  cause: %v\n", re.Err)
	if re.Invariant != nil {
		fmt.Fprintf(w, "  invariant audit: %v\n", re.Invariant)
	}
	fmt.Fprintf(w, "  %d packets in flight:\n", len(re.Packets))
	const max = 20
	for i, p := range re.Packets {
		if i == max {
			fmt.Fprintf(w, "    ... and %d more\n", len(re.Packets)-max)
			break
		}
		fmt.Fprintf(w, "    %s\n", p.String())
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

// runDecompose reduces a recorded trace into the paper-style latency
// breakdown (Figure 7's queueing-vs-service story, reconstructed per packet).
func runDecompose(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	events, err := obs.ReadTrace(f)
	if err != nil {
		return err
	}
	d, err := obs.Decompose(events)
	if err != nil {
		return err
	}
	fmt.Printf("\nlatency decomposition (%d trace events)\n", len(events))
	obs.PrintSummary(os.Stdout, d)
	return nil
}
