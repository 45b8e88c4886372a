// Command perfbench is the repository benchmark: it runs one named workload
// for a fixed wall-clock budget, checks that every output is correct, and
// prints the end-to-end metrics (untraced run) or the per-layer metrics
// (traced run). The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Workloads, metrics and the layer-to-metric map are described in
// perfbench/README.md. Build and run it through perfbench/run.sh from the
// repository root; traced runs and the serving journal write under
// outDir there.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"sttsim/internal/sim"
)

// outDir holds traced runs' span files and the serving workload's journals.
const outDir = ".bench_out"

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one workload run reports.
type outcome struct {
	attempted int
	failed    int
	// broken marks a whole-run check that failed (for example a dedup
	// invariant), independent of per-operation failures.
	broken  bool
	metrics map[string]metric
	// samples records how many observations stand behind a metric, printed
	// beside it.
	samples map[string]int
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]metric{}, samples: map[string]int{}}
}

// set records a metric measured over n samples; with no samples (NaN) it
// records 0.
func (o *outcome) set(name, unit string, v float64, n int) {
	if math.IsNaN(v) {
		v, n = 0, 0
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
	o.samples[name] = n
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAILED: "+format+"\n", args...)
}

func (o *outcome) breakRun(format string, args ...any) {
	o.broken = true
	fmt.Fprintf(os.Stderr, "perfbench: BROKEN: "+format+"\n", args...)
}

// params are the command-line inputs of one run.
type params struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	commit   string
}

// workloads maps each name to its runner.
var workloads = map[string]func(p params, h host) (*outcome, error){
	"sim-tpcc-wb":  runSimWorkload,
	"sim-gcc-sram": runSimWorkload,
	"serve-mixed":  runServe,
}

func main() {
	var p params
	var traceFlag int
	printDigests := flag.Bool("print-digests", false, "print the Result digest of every sim workload's pool entries as JSON (the content of digests.json), then exit")
	flag.StringVar(&p.workload, "workload", "", "workload name")
	flag.Int64Var(&p.seed, "seed", 1, "workload seed")
	flag.IntVar(&p.seconds, "seconds", 30, "measurement budget in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&p.commit, "commit", "unknown", "commit of the sources under test")
	flag.Parse()
	p.trace = traceFlag == 1

	// Every workload runs the simulator sequentially: intra-run parallelism
	// is a separate knob that this benchmark does not exercise.
	sim.SetParallelism(1)
	if *printDigests {
		if err := writeDigests(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[p.workload]
	if !ok || p.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds >= 1 and --trace 0|1\n", names)
		os.Exit(2)
	}

	h := hostRecord(p)
	hj, _ := json.Marshal(h)
	fmt.Printf("host %s\n", hj)

	start := time.Now()
	out, err := run(p, h)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", p.workload, err)
		os.Exit(1)
	}
	out.complete(p.trace)
	fmt.Printf("workload %s seed %d trace %v: %d attempted, %d failed, %.1fs wall\n",
		p.workload, p.seed, p.trace, out.attempted, out.failed, time.Since(start).Seconds())
	names := make([]string, 0, len(out.metrics))
	for n := range out.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := out.metrics[n]
		fmt.Printf("metric %-28s %16.6g %-12s n=%d\n", n, m.Value, m.Unit, out.samples[n])
	}
	if out.attempted < 1 {
		out.attempted = 1
		out.failed++
	}
	final := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.failed == 0 && !out.broken, out.attempted, out.failed, out.metrics}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
}
