package main

import (
	"fmt"
	"os"
	"time"

	"sttsim/internal/cpu"
	"sttsim/internal/obs"
	"sttsim/internal/sim"
	"sttsim/internal/workload"
)

// genSampleEvery is the workload-generator timing sample period: every call
// is counted, one in this many is timed, which keeps the timer's own cost
// out of the run.
const genSampleEvery = 64

// genStats accumulates calls into the workload generators of one run. The
// simulator runs sequentially, so no locking is needed.
type genStats struct {
	calls, sampled uint64
	ns             time.Duration
}

// timedGen is the built-in generator behind a counting, sampling timer.
type timedGen struct {
	g  *workload.Generator
	st *genStats
}

func (t timedGen) Next() cpu.Access {
	t.st.calls++
	if t.st.calls%genSampleEvery != 0 {
		return t.g.Next()
	}
	t0 := time.Now()
	a := t.g.Next()
	t.st.ns += time.Since(t0)
	t.st.sampled++
	return a
}

// tracedConfig instruments cfg: each core's generator is the built-in one
// (same arguments as sim.New uses, so the Result digest is unchanged) behind
// a timer, and every lifecycle event goes to rec.
func tracedConfig(cfg sim.Config, st *genStats, rec *recorder) sim.Config {
	banks := cfg.Topology().NumBanks()
	cfg.GeneratorFactory = func(core int, prof workload.Profile, miss float64) cpu.Generator {
		return timedGen{workload.NewGeneratorBanks(prof, core, cfg.Assignment.Mode, cfg.Seed, miss, banks), st}
	}
	cfg.Obs = &sim.ObsConfig{Sink: obs.FuncSink(rec.emit)}
	return cfg
}

// traceSim is the traced run of a sim workload. A first pair of sim.Runs,
// untraced then traced, records the run; a bare step loop then times every
// Step; the recorded injections are replayed into a standalone network and
// the recorded bank accesses into standalone banks; and untraced/traced
// pairs fill the rest of the budget to measure the tracing overhead.
func traceSim(p params, cfg sim.Config, want string, h host) (*outcome, error) {
	o := newOutcome()
	spans := newSpanLog()
	deadline := time.Now().Add(time.Duration(p.seconds) * time.Second)
	var base, traced []float64
	// pair runs one untraced and one traced sim.Run and returns the traced
	// run's recording, Result and generator counts.
	pair := func(i int) (*recorder, *sim.Result, *genStats) {
		trace := fmt.Sprintf("run-%d", i)
		t0 := time.Now()
		if cr, _ := runChecked(o, cfg, want); cr.res != nil {
			base = append(base, cr.wall.Seconds())
		}
		t1 := time.Now()
		spans.add(trace, "sim.Run", 0, t0, t1)
		r, st := &recorder{}, &genStats{}
		cr, _ := runChecked(o, tracedConfig(cfg, st, r), want)
		spans.add(trace, "sim.Run.traced", 0, t1, time.Now())
		if cr.res == nil {
			return nil, nil, nil
		}
		traced = append(traced, cr.wall.Seconds())
		return r, cr.res, st
	}
	rec, res, gs := pair(0)
	if res == nil || len(base) == 0 {
		return nil, fmt.Errorf("the first untraced and traced sim.Run pair failed")
	}

	steps, err := timeSteps(o, cfg, spans)
	if err != nil {
		return nil, err
	}

	// Replay self-check: the replay must inject exactly the recorded packets
	// and bank accesses and deliver or complete every one, or its layer
	// times describe a different load.
	pkts, inFlight := rec.complete()
	fmt.Printf("replay: %d recorded packets (%d still in flight at run end are left out), %d bank accesses\n",
		len(pkts), inFlight, len(rec.accesses))
	o.attempted++
	nr, err := replayNoC(cfg, pkts, false, spans, "replay-noc")
	if err != nil || nr.injected != len(pkts) || nr.delivered != len(pkts) {
		o.fail("noc replay: injected %d, delivered %d of %d recorded packets (err %v)", nr.injected, nr.delivered, len(pkts), err)
	}
	timedPrio := nr
	if nr.prioCalls > 0 {
		o.attempted++
		timedPrio, err = replayNoC(cfg, pkts, true, spans, "replay-noc-timed")
		if err != nil || timedPrio.prioCalls != nr.prioCalls {
			o.fail("timed noc replay: %d Priority calls against %d untimed (err %v)", timedPrio.prioCalls, nr.prioCalls, err)
		}
	}
	o.attempted++
	mr, err := replayMem(cfg, rec.accesses, spans, "replay-mem")
	if err != nil || mr.enqueued != len(rec.accesses) || mr.completed != len(rec.accesses) {
		o.fail("bank replay: enqueued %d, completed %d of %d recorded accesses (err %v)", mr.enqueued, mr.completed, len(rec.accesses), err)
	}

	for i := 1; time.Now().Before(deadline); i++ {
		pair(i)
	}

	baseRun := median(base)
	o.set("trace.base_run_s", "s", baseRun, len(base))
	o.set("trace.overhead_frac", "ratio", (median(traced)-baseRun)/baseRun, len(traced))
	o.set("sim.step_us_p50", "us", quantile(steps, 0.5), len(steps))
	o.set("sim.step_us_p99", "us", quantile(steps, 0.99), len(steps))
	if gs.sampled > 0 {
		o.set("workload.next_ns", "ns", float64(gs.ns.Nanoseconds())/float64(gs.sampled), int(gs.sampled))
	}
	o.set("workload.next_calls", "count", float64(gs.calls), 1)

	var committed, stallROB, stallMSHR uint64
	for i, c := range res.Committed {
		committed += c
		stallROB += res.CoreStats[i].StallROB
		stallMSHR += res.CoreStats[i].StallMSHR
	}
	o.set("cpu.committed", "count", float64(committed), 1)
	o.set("cpu.stall_rob", "count", float64(stallROB), 1)
	o.set("cpu.stall_mshr", "count", float64(stallMSHR), 1)

	if nr.cycles > 0 {
		o.set("noc.step_us", "us", nr.stepWall.Seconds()*1e6/float64(nr.cycles), int(nr.cycles))
	}
	o.set("noc.flits_delivered", "count", float64(res.Net.FlitsDelivered), 1)
	o.set("noc.buffer_writes", "count", float64(res.Net.BufferWrites), 1)
	o.set("noc.tsb_flits", "count", float64(res.Net.TSBFlits), 1)
	o.set("noc.transit_cycles", "cycles", res.NetTransit, 1)

	o.set("core.priority_calls", "count", float64(nr.prioCalls), 1)
	if timedPrio.prioCalls > 0 {
		o.set("core.priority_ns", "ns", float64(timedPrio.prioTime.Nanoseconds())/float64(timedPrio.prioCalls), int(timedPrio.prioCalls))
	}
	if res.Arbiter != nil {
		o.set("core.delay_decisions", "count", float64(res.Arbiter.DelayDecisions), 1)
	}

	if mr.ticks > 0 {
		o.set("mem.tick_ns", "ns", float64(mr.wall.Nanoseconds())/float64(mr.ticks), int(mr.ticks))
	}
	var reads, writes, busy uint64
	for _, b := range res.BankStats {
		reads += b.Reads
		writes += b.Writes
		busy += b.BusyCycles
	}
	o.set("mem.bank_reads", "count", float64(reads), 1)
	o.set("mem.bank_writes", "count", float64(writes), 1)
	o.set("mem.bank_busy_frac", "ratio", float64(busy)/float64(uint64(len(res.BankStats))*res.Cycles), 1)
	var hits, misses uint64
	for _, c := range res.Cache {
		hits += c.ReadHits
		misses += c.ReadMisses
	}
	if hits+misses > 0 {
		o.set("cache.read_miss_ratio", "ratio", float64(misses)/float64(hits+misses), 1)
	}
	o.set("cache.bank_queue_cycles", "cycles", res.BankQueue, 1)

	if err := spans.write(fmt.Sprintf("spans-%s-seed%d.jsonl", p.workload, p.seed), h, os.Stdout); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	return o, nil
}

// timeSteps builds a simulator and times every Step over the run's cycles,
// returning the per-step wall times in microseconds.
func timeSteps(o *outcome, cfg sim.Config, spans *spanLog) ([]float64, error) {
	o.attempted++
	root := spans.begin("steploop", "sim.steploop", 0)
	t0 := time.Now()
	s, err := sim.New(cfg)
	spans.add("steploop", "sim.New", root, t0, time.Now())
	if err != nil {
		return nil, err
	}
	defer s.Close()
	cycles := cfg.WarmupCycles + cfg.MeasureCycles
	steps := make([]float64, 0, cycles)
	for c := uint64(0); c < cycles; c++ {
		t := time.Now()
		if err := s.Step(); err != nil {
			o.fail("Step at cycle %d: %v", c, err)
			break
		}
		e := time.Now()
		steps = append(steps, e.Sub(t).Seconds()*1e6)
		spans.add("steploop", "sim.Step", root, t, e)
	}
	spans.finish(root)
	return steps, nil
}
