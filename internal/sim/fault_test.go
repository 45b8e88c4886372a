package sim

import (
	"errors"
	"reflect"
	"testing"

	"sttsim/internal/fault"
	"sttsim/internal/noc"
)

// faultCfg is quickCfg plus a fault campaign.
func faultCfg(s Scheme, bench string, fc *fault.Config) Config {
	cfg := quickCfg(s, bench)
	cfg.Fault = fc
	return cfg
}

// TestDisabledFaultConfigIsByteIdentical is the zero-cost acceptance
// criterion: a present-but-disabled campaign must produce a Result deeply
// identical to a run with no campaign at all, for every scheme.
func TestDisabledFaultConfigIsByteIdentical(t *testing.T) {
	for _, s := range AllSchemes() {
		plain, err := Run(quickCfg(s, "sclust"))
		if err != nil {
			t.Fatalf("%s plain: %v", s, err)
		}
		disabled, err := Run(faultCfg(s, "sclust", &fault.Config{}))
		if err != nil {
			t.Fatalf("%s disabled-fault: %v", s, err)
		}
		if !reflect.DeepEqual(plain, disabled) {
			t.Errorf("%s: disabled fault campaign perturbed the Result", s)
		}
	}
}

// TestDeterministicReplayWithFaults: two runs with the same Config and fault
// seed must be byte-identical, including every fault draw and degradation
// counter. The campaign combines seeded write errors with a mid-run TSB
// death, so the per-bank PRNG streams, the structural event and the route
// recomputation all run in one replayed cycle loop.
func TestDeterministicReplayWithFaults(t *testing.T) {
	mk := func() Config {
		cfg := faultCfg(SchemeSTT4TSBWB, "tpcc", &fault.Config{
			WriteErrorRate: 1e-2,
			TSBFailures:    []fault.TSBFailure{{Cycle: 1000, Region: 1}},
		})
		cfg.Regions = 4
		return cfg
	}
	a, err := Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical fault campaigns diverged across runs")
	}
	if a.Fault == nil || a.Fault.WriteDraws == 0 {
		t.Fatal("campaign ran but reported no write draws")
	}
	if a.Fault.TSBsFailed != 1 {
		t.Fatalf("TSBsFailed = %d, want the scheduled mid-run death", a.Fault.TSBsFailed)
	}
}

// TestWriteErrorRetryMachinery: a high raw error rate must produce failures,
// retries, and — with a tight retry bound — exhaustions that invalidate lines
// instead of wedging the bank, while the run still completes.
func TestWriteErrorRetryMachinery(t *testing.T) {
	res, err := Run(faultCfg(SchemeSTT64TSB, "tpcc", &fault.Config{
		WriteErrorRate:  0.5,
		MaxWriteRetries: 1,
	}))
	if err != nil {
		t.Fatal(err)
	}
	fr := res.Fault
	if fr == nil {
		t.Fatal("no fault report on a faulty run")
	}
	if fr.WriteDraws == 0 || fr.WriteFailures == 0 {
		t.Fatalf("error model idle: %+v", fr)
	}
	if fr.WriteRetries == 0 {
		t.Fatal("no failed write was retried")
	}
	if fr.RetriesExhausted == 0 {
		t.Fatal("rate 0.5 with bound 1 must exhaust some retries")
	}
	if fr.LinesInvalidated == 0 && fr.FillsDropped == 0 {
		t.Fatal("exhausted retries must invalidate lines or drop fills")
	}
	// The re-pulses must show up in the bank accounting (energy follows).
	var retried uint64
	for _, b := range res.BankStats {
		retried += b.RetriedWrites
	}
	if retried == 0 {
		t.Fatal("banks recorded no retried writes")
	}
	if res.InstructionThroughput <= 0 {
		t.Fatal("system made no progress under write errors")
	}
}

// TestModerateRateBarelyDegrades: a realistic 1e-4 raw error rate should cost
// well under 1% performance versus fault-free.
func TestModerateRateBarelyDegrades(t *testing.T) {
	base, err := Run(quickCfg(SchemeSTT4TSBWB, "tpcc"))
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := Run(faultCfg(SchemeSTT4TSBWB, "tpcc", &fault.Config{WriteErrorRate: 1e-4}))
	if err != nil {
		t.Fatal(err)
	}
	if faulty.InstructionThroughput < 0.95*base.InstructionThroughput {
		t.Fatalf("1e-4 error rate collapsed throughput: %.3f vs %.3f",
			faulty.InstructionThroughput, base.InstructionThroughput)
	}
}

// TestTSBFailuresDegradeGracefully kills 1..3 of the 4 region TSBs mid-warmup
// in the paper's recommended scheme. Traffic must drain through the survivors
// without deadlock, and IPC must degrade monotonically rather than collapse.
func TestTSBFailuresDegradeGracefully(t *testing.T) {
	run := func(kills int) *Result {
		t.Helper()
		cfg := quickCfg(SchemeSTT4TSBWB, "tpcc")
		cfg.Regions = 4
		if kills > 0 {
			fc := &fault.Config{}
			for k := 0; k < kills; k++ {
				// Mid-warmup, staggered: each failure hits a live, loaded
				// system and in-flight wormholes must drain on their old path.
				fc.TSBFailures = append(fc.TSBFailures,
					fault.TSBFailure{Cycle: uint64(500 + 100*k), Region: k})
			}
			cfg.Fault = fc
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("kills=%d: %v", kills, err)
		}
		return res
	}

	prev := run(0)
	if prev.InstructionThroughput <= 0 {
		t.Fatal("baseline made no progress")
	}
	base := prev.InstructionThroughput
	for kills := 1; kills <= 3; kills++ {
		res := run(kills)
		it := res.InstructionThroughput
		// Not collapsing: even with one TSB left, the system keeps a usable
		// fraction of its fault-free throughput.
		if it < 0.2*base {
			t.Fatalf("kills=%d: throughput collapsed to %.3f (baseline %.3f)", kills, it, base)
		}
		// Monotonic (small tolerance: re-homing shifts arbitration patterns).
		if it > 1.05*prev.InstructionThroughput {
			t.Fatalf("kills=%d: throughput %.3f above kills=%d's %.3f",
				kills, it, kills-1, prev.InstructionThroughput)
		}
		if res.Fault == nil || res.Fault.TSBsFailed != uint64(kills) {
			t.Fatalf("kills=%d: fault report %+v", kills, res.Fault)
		}
		if res.Fault.RegionsRehomed < uint64(kills) {
			t.Fatalf("kills=%d: only %d regions re-homed", kills, res.Fault.RegionsRehomed)
		}
		prev = res
	}
}

// TestTSBFailureUnrestrictedScheme: in the unrestricted schemes the per-node
// TSV detour (descend at the nearest live down-link) must keep traffic moving
// after down-link deaths at the same region TSB locations.
func TestTSBFailureUnrestrictedScheme(t *testing.T) {
	cfg := faultCfg(SchemeSTT64TSB, "sap", &fault.Config{
		TSBFailures: []fault.TSBFailure{{Cycle: 500, Region: 0}, {Cycle: 600, Region: 2}},
	})
	cfg.Regions = 4
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.InstructionThroughput <= 0 {
		t.Fatal("no progress after down-link deaths")
	}
	if res.Fault.TSBsFailed != 2 {
		t.Fatalf("TSBsFailed = %d, want 2", res.Fault.TSBsFailed)
	}
	// Unrestricted routing has no regions to re-home.
	if res.Fault.RegionsRehomed != 0 {
		t.Fatalf("unrestricted run re-homed %d regions", res.Fault.RegionsRehomed)
	}
}

// TestAllTSBsDeadIsStructuredError: killing every TSB of a restricted run
// must surface as a *RunError, not a panic or a hang.
func TestAllTSBsDeadIsStructuredError(t *testing.T) {
	fc := &fault.Config{}
	for k := 0; k < 4; k++ {
		fc.TSBFailures = append(fc.TSBFailures, fault.TSBFailure{Cycle: 100, Region: k})
	}
	cfg := faultCfg(SchemeSTT4TSBWB, "tpcc", fc)
	cfg.Regions = 4
	_, err := Run(cfg)
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("got %v, want *RunError", err)
	}
	if re.Cycle != 100 {
		t.Fatalf("failure at cycle %d, want 100", re.Cycle)
	}
}

// TestInducedDeadlockReturnsRunError wedges one bank's ejection port so the
// whole system quiesces, and checks Run reports the deadlock as a structured
// *RunError with a packet dump instead of panicking.
func TestInducedDeadlockReturnsRunError(t *testing.T) {
	cfg := faultCfg(SchemeSRAM64TSB, "tpcc", &fault.Config{
		PortFaults: []fault.PortFault{
			{Cycle: 100, Node: noc.DefaultTopology().Below(27), Port: noc.PortLocal},
		},
	})
	cfg.WatchdogCycles = 1000
	_, err := Run(cfg)
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("got %v, want *RunError", err)
	}
	var dl *noc.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("RunError does not wrap a *noc.DeadlockError: %v", err)
	}
	if len(re.Packets) == 0 {
		t.Fatal("structured failure has no packet dump")
	}
	if re.Scheme != SchemeSRAM64TSB || re.Benchmark != "tpcc" {
		t.Fatalf("failure context wrong: %s/%s", re.Scheme, re.Benchmark)
	}
	if re.Invariant != nil {
		t.Fatalf("a wedged-but-consistent network should pass the audit, got %v", re.Invariant)
	}
	if re.Error() == "" {
		t.Fatal("empty error text")
	}
}

// TestAuditIntervalCleanRun: periodic invariant audits on a healthy run must
// not fire, and must not perturb results.
func TestAuditIntervalCleanRun(t *testing.T) {
	plain, err := Run(quickCfg(SchemeSTT4TSB, "x264"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickCfg(SchemeSTT4TSB, "x264")
	cfg.AuditInterval = 500
	audited, err := Run(cfg)
	if err != nil {
		t.Fatalf("healthy run failed its periodic audit: %v", err)
	}
	// The audit is read-only; everything but the Config must match.
	audited.Config.AuditInterval = 0
	if !reflect.DeepEqual(plain, audited) {
		t.Fatal("periodic audits perturbed the run")
	}
}

// TestDegradedPortSlowsButCompletes: a half-duty TSV is a fault the system
// routes through, not around — the run completes, slower.
func TestDegradedPortSlowsButCompletes(t *testing.T) {
	cfg := faultCfg(SchemeSTT64TSB, "tpcc", &fault.Config{
		PortFaults: []fault.PortFault{
			{Cycle: 100, Node: 27, Port: noc.PortDown, Period: 2},
		},
	})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.InstructionThroughput <= 0 {
		t.Fatal("no progress with a degraded TSV")
	}
	if res.Fault.PortsDegraded != 1 || res.Fault.PortsFailed != 0 {
		t.Fatalf("port accounting wrong: %+v", res.Fault)
	}
}

// TestInvalidFaultConfigRejectedNotIgnored: an invalid campaign (negative
// rate) looks "disabled" to Enabled(), but must be rejected by New rather
// than silently normalized into a fault-free run.
func TestInvalidFaultConfigRejectedNotIgnored(t *testing.T) {
	if _, err := Run(faultCfg(SchemeSTT64TSB, "tpcc", &fault.Config{WriteErrorRate: -0.5})); err == nil {
		t.Fatal("negative write error rate was silently ignored")
	}
}

// TestSRAMBanksImmuneToWriteErrors: stochastic write failure is an MTJ
// property; the SRAM baseline must never draw.
func TestSRAMBanksImmuneToWriteErrors(t *testing.T) {
	res, err := Run(faultCfg(SchemeSRAM64TSB, "tpcc", &fault.Config{WriteErrorRate: 0.5}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Fault == nil || res.Fault.WriteDraws != 0 {
		t.Fatalf("SRAM banks drew from the write-error model: %+v", res.Fault)
	}
}
