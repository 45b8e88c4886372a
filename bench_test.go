// Package sttsim's root benchmark harness: one BenchmarkExperiments
// sub-benchmark per table and figure of the paper's evaluation (each
// regenerates the corresponding rows/series through internal/exp at a
// reduced cycle budget), plus
// micro-benchmarks of the substrates (network, bank, workload generator,
// whole-system cycle rate).
//
// Regenerate everything with:
//
//	go test -bench=. -benchmem
//
// and the full-scale tables with:
//
//	go run ./cmd/experiments
package sttsim_test

import (
	"bytes"
	"io"
	"testing"

	"sttsim/internal/exp"
	"sttsim/internal/mem"
	"sttsim/internal/noc"
	"sttsim/internal/obs"
	"sttsim/internal/sim"
	"sttsim/internal/trace"
	"sttsim/internal/workload"
)

// benchRunner builds a fresh memoizing runner at benchmark scale.
func benchRunner() *exp.Runner {
	return exp.NewRunner(exp.Options{Quick: true, WarmupCycles: 1500, MeasureCycles: 4000})
}

func must(b *testing.B, err error) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
}

// ---------------------------------------------------------------------------
// Paper tables and figures.
// ---------------------------------------------------------------------------

// BenchmarkExperiments regenerates every table and figure of
// `experiments -exp all`, one sub-benchmark per exp.Experiments entry, each
// on a fresh runner so no experiment reuses another's runs.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range exp.Experiments {
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e.Run(benchRunner(), io.Discard)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Per-scheme whole-system simulation rate (cycles of the 128-node CMP per
// wall-clock second) on the paper's heaviest server workload.
// ---------------------------------------------------------------------------

func benchScheme(b *testing.B, s sim.Scheme) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := sim.Run(sim.Config{
			Scheme:        s,
			Assignment:    workload.Homogeneous(workload.MustByName("tpcc")),
			WarmupCycles:  1000,
			MeasureCycles: 4000,
		})
		must(b, err)
	}
}

func BenchmarkSchemeSRAM64TSB(b *testing.B)  { benchScheme(b, sim.SchemeSRAM64TSB) }
func BenchmarkSchemeSTT64TSB(b *testing.B)   { benchScheme(b, sim.SchemeSTT64TSB) }
func BenchmarkSchemeSTT4TSB(b *testing.B)    { benchScheme(b, sim.SchemeSTT4TSB) }
func BenchmarkSchemeSTT4TSBSS(b *testing.B)  { benchScheme(b, sim.SchemeSTT4TSBSS) }
func BenchmarkSchemeSTT4TSBRCA(b *testing.B) { benchScheme(b, sim.SchemeSTT4TSBRCA) }
func BenchmarkSchemeSTT4TSBWB(b *testing.B)  { benchScheme(b, sim.SchemeSTT4TSBWB) }

// BenchmarkFullRun is the bench-guard's end-to-end gate: one complete
// sim.Run (construction, warmup, measurement, result extraction) per
// iteration for each contended scheme family of the paper. Unlike the cycle
// micro-benchmarks there is no amortization across b.N — ns/op and allocs/op
// are per whole run, so allocs/op is deterministic and comparable across
// hosts.
func BenchmarkFullRun(b *testing.B) {
	for _, c := range []struct {
		name   string
		scheme sim.Scheme
	}{
		{"baseline", sim.SchemeSTT4TSB},
		{"ss", sim.SchemeSTT4TSBSS},
		{"rca", sim.SchemeSTT4TSBRCA},
		{"wb", sim.SchemeSTT4TSBWB},
	} {
		b.Run(c.name, func(b *testing.B) { benchScheme(b, c.scheme) })
	}
}

// ---------------------------------------------------------------------------
// Substrate micro-benchmarks.
// ---------------------------------------------------------------------------

// BenchmarkNetworkTick measures the idle+loaded cycle cost of the full
// 128-router network.
func BenchmarkNetworkTick(b *testing.B) {
	routing, err := noc.NewRoutingTopo(noc.DefaultTopology(), noc.PathAllTSVs, nil)
	must(b, err)
	n, err := noc.NewNetwork(noc.Config{Routing: routing})
	must(b, err)
	for d := noc.NodeID(0); int(d) < n.NumNodes(); d++ {
		n.SetDeliver(d, func(*noc.Packet, uint64) {})
	}
	now := uint64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%50 == 0 {
			// Keep a steady trickle of data packets in flight.
			n.Inject(&noc.Packet{Kind: noc.KindWriteReq,
				Src: noc.NodeID(i % 64), Dst: noc.NodeID(64 + (i*7)%64)}, now)
		}
		if err := n.Step(now); err != nil {
			b.Fatal(err)
		}
		now++
	}
}

// loadedNetwork is the paper's network under steady write load: each cycle
// one 9-flit write enters from a rotating core and targets a bank spread
// across the cache layer, so every router's VA and SA stages have work. The
// packets come from a pool their sinks return them to, so a warmed network
// steps without allocating.
type loadedNetwork struct {
	n    *noc.Network
	pool *noc.PacketPool
	now  uint64
}

func newLoadedNetwork(tb testing.TB) *loadedNetwork {
	tb.Helper()
	topo := noc.DefaultTopology()
	routing, err := noc.NewRoutingTopo(topo, noc.PathAllTSVs, nil)
	if err != nil {
		tb.Fatal(err)
	}
	n, err := noc.NewNetwork(noc.Config{Routing: routing})
	if err != nil {
		tb.Fatal(err)
	}
	l := &loadedNetwork{n: n, pool: noc.NewPacketPool()}
	for d := noc.NodeID(0); int(d) < n.NumNodes(); d++ {
		n.SetDeliver(d, func(p *noc.Packet, _ uint64) { l.pool.Put(p) })
	}
	return l
}

// cycle injects this cycle's write and steps the network once.
func (l *loadedNetwork) cycle(tb testing.TB) {
	topo := l.n.Topology()
	i := int(l.now)
	p := l.pool.Get()
	p.Kind = noc.KindWriteReq
	p.Src = noc.NodeID(i % topo.NumCores())
	p.Dst = topo.BankNode((i * 7) % topo.NumBanks())
	l.n.Inject(p, l.now)
	if err := l.n.Step(l.now); err != nil {
		tb.Fatal(err)
	}
	l.now++
}

// BenchmarkNetworkTickLoaded measures one cycle of the loaded network, the
// cost of the routers' VC and switch allocation at steady occupancy.
func BenchmarkNetworkTickLoaded(b *testing.B) {
	l := newLoadedNetwork(b)
	for i := 0; i < 2000; i++ {
		l.cycle(b)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.cycle(b)
	}
}

// TestLoadedNetworkStepAllocFree pins the warmed, loaded network cycle at
// zero allocations, the contract BenchmarkSteadyStateCycle gates for the
// whole simulator.
func TestLoadedNetworkStepAllocFree(t *testing.T) {
	l := newLoadedNetwork(t)
	for i := 0; i < 2000; i++ {
		l.cycle(t)
	}
	if n := l.n.InFlight(); n == 0 {
		t.Fatal("warmed network is empty; the load did not build up")
	}
	if allocs := testing.AllocsPerRun(1000, func() { l.cycle(t) }); allocs != 0 {
		t.Fatalf("loaded Network.Step: %v allocs/cycle, want 0", allocs)
	}
}

// BenchmarkBankService measures the raw bank model throughput under a
// read/write mix.
func BenchmarkBankService(b *testing.B) {
	bank := mem.NewBank(mem.STTRAM)
	now := uint64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if bank.QueueLen() < 4 {
			op := mem.OpRead
			if i%3 == 0 {
				op = mem.OpWrite
			}
			bank.Enqueue(&mem.Request{Op: op, Addr: uint64(i), ID: uint64(i)}, now)
		}
		bank.Tick(now)
		now++
	}
}

// BenchmarkBufferedBankService measures the BUFF-20 fast path.
func BenchmarkBufferedBankService(b *testing.B) {
	bank := mem.NewBufferedBank(mem.STTRAM, 20, true)
	now := uint64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if bank.QueueLen() < 4 {
			op := mem.OpRead
			if i%3 == 0 {
				op = mem.OpWrite
			}
			bank.Enqueue(&mem.Request{Op: op, Addr: uint64(i % 64), ID: uint64(i)}, now)
		}
		bank.Tick(now)
		now++
	}
}

// BenchmarkGenerator measures per-instruction workload generation cost.
func BenchmarkGenerator(b *testing.B) {
	prof := workload.MustByName("tpcc")
	g := workload.NewGeneratorBanks(prof, 0, workload.ModeShared, 1, prof.MissRatio(), noc.DefaultTopology().NumBanks())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

// BenchmarkSimulatorCycle measures the whole-system cost per simulated cycle
// under the full WB scheme.
func BenchmarkSimulatorCycle(b *testing.B) {
	s, err := sim.New(sim.Config{
		Scheme:     sim.SchemeSTT4TSBWB,
		Assignment: workload.Homogeneous(workload.MustByName("tpcc")),
	})
	must(b, err)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSteadyStateCycle is the zero-allocation gate: it steps the WB
// simulator past its fill transient (pools populated, queues at working
// depth) before the timer starts, so the reported allocs/op is the true
// steady-state figure — the bench guard pins it at 0.
func BenchmarkSteadyStateCycle(b *testing.B) {
	s, err := sim.New(sim.Config{
		Scheme:     sim.SchemeSTT4TSBWB,
		Assignment: workload.Homogeneous(workload.MustByName("tpcc")),
	})
	must(b, err)
	for i := 0; i < 5000; i++ {
		if err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTracing is BenchmarkSimulatorCycle under a given observability
// configuration; the disabled/enabled pair quantifies the tracing overhead
// and feeds scripts/bench_guard.sh, which fails `make verify` when the
// disabled path regresses more than 2% against its checked-in baseline.
func benchTracing(b *testing.B, oc *sim.ObsConfig) {
	s, err := sim.New(sim.Config{
		Scheme:     sim.SchemeSTT4TSBWB,
		Assignment: workload.Homogeneous(workload.MustByName("tpcc")),
		Obs:        oc,
	})
	must(b, err)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTracingDisabled is the guarded hot path: observability compiled in
// but switched off (the default for every experiment run).
func BenchmarkTracingDisabled(b *testing.B) { benchTracing(b, nil) }

// BenchmarkTracingEnabled measures the full event-tracing cost into a
// discarded binary sink (encode + buffer, no disk).
func BenchmarkTracingEnabled(b *testing.B) {
	benchTracing(b, &sim.ObsConfig{Sink: obs.NewBinarySink(io.Discard)})
}

// BenchmarkMetricsEnabled measures the sampling-registry-only configuration.
func BenchmarkMetricsEnabled(b *testing.B) {
	benchTracing(b, &sim.ObsConfig{MetricsInterval: 1000})
}

// BenchmarkTraceRecordReplay measures the trace substrate's record+load+
// replay cost for one core's stream.
func BenchmarkTraceRecordReplay(b *testing.B) {
	prof := workload.MustByName("tpcc")
	for i := 0; i < b.N; i++ {
		gen := workload.NewGeneratorBanks(prof, 0, workload.ModeShared, uint64(i+1), prof.MissRatio(), noc.DefaultTopology().NumBanks())
		var buf bytes.Buffer
		must(b, trace.Record(gen, 100000, &buf, trace.Meta{Name: "tpcc"}))
		tr, err := trace.Load(&buf)
		must(b, err)
		p := trace.NewPlayer(tr)
		for j := 0; j < 100000; j++ {
			p.Next()
		}
	}
}
