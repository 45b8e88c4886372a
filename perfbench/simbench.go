package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"sttsim/internal/sim"
	"sttsim/internal/workload"
)

// simSpec is one simulator workload: the paper's 8x8x2 system under one
// scheme with every core running one benchmark, over fixed warmup and
// measurement windows (simulated cycles). The windows make one sim.Run take
// about a second on tpcc and half a second on gcc on a 2-CPU Xeon host.
type simSpec struct {
	scheme          sim.Scheme
	bench           string
	warmup, measure uint64
}

var simSpecs = map[string]simSpec{
	// Congested, write-heavy: region TSBs, bank-aware arbiter, WB estimator,
	// 33-cycle STT-RAM writes.
	"sim-tpcc-wb": {sim.SchemeSTT4TSBWB, "tpcc", 2000, 18000},
	// Lightly loaded, read-dominated: unrestricted routing, no prioritizer,
	// short SRAM writes.
	"sim-gcc-sram": {sim.SchemeSRAM64TSB, "gcc", 5000, 45000},
}

// simPool is how many simulator seeds a sim workload draws from. Each pool
// entry has its Result digest recorded in digests.json, so every run checks
// its output against a recorded value whatever workload seed it is given.
const simPool = 16

// poolOrder is the order in which a run visits the pool: a permutation
// drawn from the workload seed. Repeat i of a run simulates pool entry
// order[i % simPool], so one run measures a seed-chosen sample of inputs
// and its medians do not hinge on one simulator seed.
func poolOrder(seed int64) []int {
	return rand.New(rand.NewSource(seed)).Perm(simPool)
}

// simConfig is a workload's simulator configuration for one pool entry.
func simConfig(name string, entry int) sim.Config {
	sp := simSpecs[name]
	return sim.Config{
		Scheme:        sp.scheme,
		Assignment:    workload.Homogeneous(workload.MustByName(sp.bench)),
		Seed:          uint64(1000 + entry),
		WarmupCycles:  sp.warmup,
		MeasureCycles: sp.measure,
	}
}

//go:embed digests.json
var digestsJSON []byte

// recordedDigests returns the SHA-256 of the Result JSON recorded for each
// pool entry of a workload.
func recordedDigests(name string) ([]string, error) {
	var all map[string][]string
	if err := json.Unmarshal(digestsJSON, &all); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	if len(all[name]) != simPool {
		return nil, fmt.Errorf("digests.json has %d digests for %s, want %d", len(all[name]), name, simPool)
	}
	return all[name], nil
}

// resultDigest is the SHA-256 of the Result's JSON encoding, the same bytes
// the serving layer caches and journals.
func resultDigest(res *sim.Result) (string, error) {
	data, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// writeDigests prints the digest table digests.json holds, computed afresh.
func writeDigests(w io.Writer) error {
	all := map[string][]string{}
	for name := range simSpecs {
		for e := 0; e < simPool; e++ {
			res, err := sim.Run(simConfig(name, e))
			if err != nil {
				return fmt.Errorf("%s pool entry %d: %w", name, e, err)
			}
			d, err := resultDigest(res)
			if err != nil {
				return err
			}
			all[name] = append(all[name], d)
		}
	}
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// checkedRun is one sim.Run whose Result digest is checked against the
// recorded value. A run whose digest differs still reports its timings (and
// counts as failed), so a result-changing tree shows both.
type checkedRun struct {
	wall    time.Duration
	allocMB float64
	res     *sim.Result
}

func runChecked(o *outcome, cfg sim.Config, want string) (checkedRun, bool) {
	o.attempted++
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	res, err := sim.Run(cfg)
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	if err != nil {
		o.fail("sim.Run: %v", err)
		return checkedRun{}, false
	}
	cr := checkedRun{wall: wall, allocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20), res: res}
	got, err := resultDigest(res)
	if err != nil {
		o.fail("encode Result: %v", err)
		return cr, false
	}
	if got != want {
		o.fail("Result digest %s, recorded %s", got, want)
		return cr, false
	}
	return cr, true
}

// stepLoop is one sim.New plus the bare Step loop over the run's cycles.
type stepLoop struct {
	setup  time.Duration
	heapMB float64
	loop   time.Duration
}

func runStepLoop(o *outcome, cfg sim.Config) (stepLoop, bool) {
	o.attempted++
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	s, err := sim.New(cfg)
	setup := time.Since(t0)
	if err != nil {
		o.fail("sim.New: %v", err)
		return stepLoop{}, false
	}
	defer s.Close()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	heap := float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc)) / (1 << 20)
	cycles := cfg.WarmupCycles + cfg.MeasureCycles
	t1 := time.Now()
	for c := uint64(0); c < cycles; c++ {
		if err := s.Step(); err != nil {
			o.fail("Step at cycle %d: %v", c, err)
			return stepLoop{}, false
		}
	}
	return stepLoop{setup: setup, heapMB: heap, loop: time.Since(t1)}, true
}

// runSimWorkload measures one sim workload for the run's budget. Each repeat
// takes the next pool entry: a timed sim.New plus bare Step loop, then a
// timed, digest-checked sim.Run.
func runSimWorkload(p params, h host) (*outcome, error) {
	want, err := recordedDigests(p.workload)
	if err != nil {
		return nil, err
	}
	order := poolOrder(p.seed)
	if p.trace {
		return traceSim(p, simConfig(p.workload, order[0]), want[order[0]], h)
	}
	o := newOutcome()
	var setup, heap, rate, runS, alloc, ipc, uncore []float64
	deadline := time.Now().Add(time.Duration(p.seconds) * time.Second)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		entry := order[i%simPool]
		cfg := simConfig(p.workload, entry)
		if sl, ok := runStepLoop(o, cfg); ok {
			setup = append(setup, sl.setup.Seconds())
			heap = append(heap, sl.heapMB)
			rate = append(rate, float64(cfg.WarmupCycles+cfg.MeasureCycles)/sl.loop.Seconds())
		}
		if cr, _ := runChecked(o, cfg, want[entry]); cr.res != nil {
			runS = append(runS, cr.wall.Seconds())
			alloc = append(alloc, cr.allocMB)
			ipc = append(ipc, cr.res.InstructionThroughput)
			uncore = append(uncore, cr.res.UncoreLatency())
		}
		if len(runS) == 0 && o.failed > 3 {
			break
		}
	}
	if len(runS) == 0 || len(rate) == 0 {
		return nil, fmt.Errorf("no sim.Run or step loop succeeded")
	}
	o.set("setup_s", "s", median(setup), len(setup))
	o.set("run_s", "s", median(runS), len(runS))
	o.set("e2e_p50_s", "s", median(runS), len(runS))
	o.set("e2e_p95_s", "s", quantile(runS, 0.95), len(runS))
	o.set("sim_cycles_per_s", "1/s", median(rate), len(rate))
	o.set("run_alloc_mb", "MB", median(alloc), len(alloc))
	o.set("sim_heap_mb", "MB", median(heap), len(heap))
	o.set("ipc_total", "instr/cycle", mean(ipc), len(ipc))
	o.set("uncore_latency_cycles", "cycles", mean(uncore), len(uncore))
	return o, nil
}
