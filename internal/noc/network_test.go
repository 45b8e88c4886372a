package noc

import (
	"math/bits"
	"testing"
	"testing/quick"
)

func mustNetwork(t *testing.T, cfg Config) *Network {
	t.Helper()
	if cfg.Routing == nil {
		cfg.Routing = mustRouting(t, PathAllTSVs, nil)
	}
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	return n
}

// step advances the network one cycle, failing the test on a watchdog
// deadlock (tests that expect one call Step directly).
func step(t *testing.T, n *Network, now uint64) {
	t.Helper()
	if err := n.Step(now); err != nil {
		t.Fatalf("network step at cycle %d: %v", now, err)
	}
}

// drain runs the network until no packets are in flight, failing after limit
// cycles. It returns the final cycle count.
func drain(t *testing.T, n *Network, start, limit uint64) uint64 {
	t.Helper()
	now := start
	for ; n.InFlight() > 0; now++ {
		if now > start+limit {
			t.Fatalf("network did not drain within %d cycles (%d in flight)", limit, n.InFlight())
		}
		step(t, n, now)
	}
	return now
}

func TestNetworkConfigValidation(t *testing.T) {
	if _, err := NewNetwork(Config{}); err == nil {
		t.Fatal("expected error for missing routing")
	}
	r, _ := NewRoutingTopo(paper, PathAllTSVs, nil)
	if _, err := NewNetwork(Config{Routing: r, VCsPerClass: []int{1, 2}}); err == nil {
		t.Fatal("expected error for short VCsPerClass")
	}
	if _, err := NewNetwork(Config{Routing: r, VCsPerClass: []int{0, 1, 1}}); err == nil {
		t.Fatal("expected error for empty class")
	}
	// 7 ports x 10 VCs overflows the routers' 64-bit VC masks; the paper's
	// 6 VCs and the "+1 VC" design point's 7 fit.
	if _, err := NewNetwork(Config{Routing: r, VCsPerClass: []int{5, 3, 2}}); err == nil {
		t.Fatal("expected error for 10 VCs per port")
	}
	for _, vcs := range [][]int{{3, 2, 1}, {4, 2, 1}, {6, 2, 1}} {
		if _, err := NewNetwork(Config{Routing: r, VCsPerClass: vcs}); err != nil {
			t.Fatalf("VCsPerClass %v: %v", vcs, err)
		}
	}
	// VC rings index their slots with a byte.
	for _, depth := range []int{-1, 256} {
		if _, err := NewNetwork(Config{Routing: r, BufDepth: depth}); err == nil {
			t.Fatalf("expected error for buffer depth %d", depth)
		}
	}
	if _, err := NewNetwork(Config{Routing: r, BufDepth: 255}); err != nil {
		t.Fatalf("buffer depth 255: %v", err)
	}
	if _, err := NewNetwork(Config{Routing: r, WideTSBs: []NodeID{64}}); err == nil {
		t.Fatal("expected error for cache-layer wide TSB")
	}
}

func TestSingleFlitPacketLatency(t *testing.T) {
	n := mustNetwork(t, Config{})
	var delivered *Packet
	var when uint64
	n.SetDeliver(64, func(p *Packet, now uint64) { delivered, when = p, now })

	p := &Packet{Kind: KindReadReq, Src: 0, Dst: 64, Addr: 0x1000}
	n.Inject(p, 0)
	drain(t, n, 0, 1000)

	if delivered != p {
		t.Fatal("packet not delivered to 64")
	}
	// Injection (1) + two hops at 3 cycles each (router pipeline + link) +
	// ejection: a short deterministic single-digit latency.
	if when < 4 || when > 12 {
		t.Fatalf("2-hop 1-flit latency = %d cycles, expected single digits", when)
	}
	if p.Hops != 2 {
		t.Fatalf("hops = %d, want 2", p.Hops)
	}
	if p.NetworkLatency() != when {
		t.Fatalf("NetworkLatency = %d, want %d", p.NetworkLatency(), when)
	}
}

func TestDataPacketDelivery(t *testing.T) {
	n := mustNetwork(t, Config{})
	var got *Packet
	n.SetDeliver(127, func(p *Packet, now uint64) { got = p })
	p := &Packet{Kind: KindReadResp, Src: 64, Dst: 127}
	n.Inject(p, 0)
	drain(t, n, 0, 2000)
	if got == nil {
		t.Fatal("data packet not delivered")
	}
	if got.SizeFlits != DataPacketFlits {
		t.Fatalf("size = %d flits, want %d", got.SizeFlits, DataPacketFlits)
	}
	st := n.Stats()
	if st.FlitsDelivered != DataPacketFlits {
		t.Fatalf("flits delivered = %d, want %d", st.FlitsDelivered, DataPacketFlits)
	}
}

func TestClassAssignmentOnInject(t *testing.T) {
	n := mustNetwork(t, Config{})
	n.SetDeliver(64, func(*Packet, uint64) {})
	cases := map[Kind]Class{
		KindReadReq: ClassReq, KindWriteReq: ClassReq, KindMemReq: ClassReq,
		KindReadResp: ClassResp, KindWriteAck: ClassResp, KindMemResp: ClassResp,
		KindInv: ClassCoh, KindInvAck: ClassCoh, KindTSAck: ClassCoh,
	}
	for k, want := range cases {
		p := &Packet{Kind: k, Src: 0, Dst: 64}
		n.Inject(p, 0)
		if p.Class != want {
			t.Errorf("kind %s assigned class %s, want %s", k, p.Class, want)
		}
	}
	drain(t, n, 0, 5000)
}

func TestLocalLoopbackDelivery(t *testing.T) {
	n := mustNetwork(t, Config{})
	var got *Packet
	n.SetDeliver(5, func(p *Packet, now uint64) { got = p })
	n.Inject(&Packet{Kind: KindWriteAck, Src: 5, Dst: 5}, 7)
	if got == nil || got.Ejected != 7 {
		t.Fatal("same-node packets should deliver instantly")
	}
	if n.InFlight() != 0 {
		t.Fatal("loopback should not stay in flight")
	}
}

func TestManyToOneConservation(t *testing.T) {
	n := mustNetwork(t, Config{})
	delivered := 0
	n.SetDeliver(64, func(p *Packet, now uint64) { delivered++ })
	// Every core floods the same cache bank with write data packets;
	// wormhole backpressure must not lose or duplicate anything.
	injected := 0
	for src := NodeID(0); int(src) < paper.LayerSize(); src++ {
		n.Inject(&Packet{Kind: KindWriteReq, Src: src, Dst: 64}, 0)
		injected++
	}
	drain(t, n, 0, 100000)
	if delivered != injected {
		t.Fatalf("delivered %d packets, injected %d", delivered, injected)
	}
	st := n.Stats()
	if st.PacketsDelivered != uint64(injected) {
		t.Fatalf("stats delivered = %d, want %d", st.PacketsDelivered, injected)
	}
}

func TestRegionTSBTrafficCounters(t *testing.T) {
	tsb := paperTSBMap()
	r := mustRouting(t, PathRegionTSBs, tsb)
	n := mustNetwork(t, Config{Routing: r, WideTSBs: []NodeID{27, 28, 35, 36}})
	n.SetDeliver(75, func(*Packet, uint64) {})
	n.Inject(&Packet{Kind: KindWriteReq, Src: 0, Dst: 75}, 0)
	drain(t, n, 0, 5000)
	st := n.Stats()
	// All 9 flits crossed the wide region TSB exactly once.
	if st.TSBFlits != DataPacketFlits {
		t.Fatalf("TSB flits = %d, want %d", st.TSBFlits, DataPacketFlits)
	}
	if st.TSVFlits != 0 {
		t.Fatalf("TSV flits = %d, want 0 (request must use the TSB)", st.TSVFlits)
	}
}

func TestResponseUsesTSVNotTSB(t *testing.T) {
	tsb := paperTSBMap()
	r := mustRouting(t, PathRegionTSBs, tsb)
	n := mustNetwork(t, Config{Routing: r, WideTSBs: []NodeID{27, 28, 35, 36}})
	n.SetDeliver(0, func(*Packet, uint64) {})
	n.Inject(&Packet{Kind: KindReadResp, Src: 75, Dst: 0}, 0)
	drain(t, n, 0, 5000)
	st := n.Stats()
	if st.TSVFlits != DataPacketFlits {
		t.Fatalf("TSV flits = %d, want %d", st.TSVFlits, DataPacketFlits)
	}
	if st.TSBFlits != 0 {
		t.Fatalf("TSB flits = %d, want 0", st.TSBFlits)
	}
}

func TestWideTSBSpeedsUpTransfer(t *testing.T) {
	// Two 9-flit requests from different cores converge on the region-0 TSB
	// at core node 27. A 256-bit TSB moves 2 flits/cycle across the
	// contended vertical link, so the pair finishes sooner than over a
	// 128-bit TSB.
	lat := func(wide bool) uint64 {
		r := mustRouting(t, PathRegionTSBs, paperTSBMap())
		cfg := Config{Routing: r}
		if wide {
			cfg.WideTSBs = []NodeID{27, 28, 35, 36}
		}
		n := mustNetwork(t, cfg)
		var last uint64
		for _, d := range []NodeID{74, 75} {
			n.SetDeliver(d, func(p *Packet, now uint64) { last = now })
		}
		n.Inject(&Packet{Kind: KindWriteReq, Src: 24, Dst: 75}, 0) // east into 27
		n.Inject(&Packet{Kind: KindWriteReq, Src: 3, Dst: 74}, 0)  // north into 27
		drain(t, n, 0, 5000)
		return last
	}
	narrow, wide := lat(false), lat(true)
	if wide >= narrow {
		t.Fatalf("wide TSB completion %d should beat narrow %d", wide, narrow)
	}
}

func TestPlusOneVCConfig(t *testing.T) {
	n := mustNetwork(t, Config{VCsPerClass: []int{3, 2, 2}})
	if n.NumVCs() != 7 {
		t.Fatalf("numVCs = %d, want 7", n.NumVCs())
	}
	if got := bits.OnesCount64(n.classMask[ClassReq]); got != 3 {
		t.Fatalf("req class got %d VCs, want 3", got)
	}
	m := n.classMask
	if m[ClassReq]|m[ClassResp]|m[ClassCoh] != 1<<7-1 || m[ClassReq]&m[ClassResp] != 0 ||
		(m[ClassReq]|m[ClassResp])&m[ClassCoh] != 0 {
		t.Fatalf("class masks %#x do not partition the 7 VCs", n.classMask)
	}
	n.SetDeliver(64, func(*Packet, uint64) {})
	for i := 0; i < 10; i++ {
		n.Inject(&Packet{Kind: KindReadReq, Src: 0, Dst: 64}, 0)
	}
	drain(t, n, 0, 10000)
}

func TestForEachBufferedPacket(t *testing.T) {
	n := mustNetwork(t, Config{})
	n.SetDeliver(64, func(*Packet, uint64) {})
	n.Inject(&Packet{Kind: KindWriteReq, Src: 0, Dst: 64}, 0)
	// Tick a few cycles so flits occupy router buffers.
	for now := uint64(0); now < 4; now++ {
		step(t, n, now)
	}
	found := 0
	for id := NodeID(0); int(id) < n.NumNodes(); id++ {
		n.Router(id).ForEachBufferedPacket(func(p *Packet) { found++ })
	}
	if found == 0 {
		t.Fatal("expected the in-flight packet to be visible in some buffer")
	}
	drain(t, n, 4, 5000)
}

func TestOccupancyTracksBufferedFlits(t *testing.T) {
	n := mustNetwork(t, Config{})
	n.SetDeliver(64, func(*Packet, uint64) {})
	used, capacity := n.Occupancy(0)
	if used != 0 || capacity == 0 {
		t.Fatalf("fresh occupancy = %d/%d", used, capacity)
	}
	n.Inject(&Packet{Kind: KindWriteReq, Src: 0, Dst: 64}, 0)
	for now := uint64(0); now < 3; now++ {
		step(t, n, now)
	}
	if used, _ := n.Occupancy(0); used == 0 {
		t.Fatal("router 0 should be buffering injected flits")
	}
	drain(t, n, 3, 5000)
}

// testPrioritizer counts hook invocations, can demote one destination, and
// records the order in which headers cross a watched router.
type testPrioritizer struct {
	demote   NodeID
	watch    NodeID
	forwards int
	order    []NodeID
}

func (tp *testPrioritizer) Priority(at NodeID, p *Packet, now uint64) int {
	if p.Dst == tp.demote {
		return 1
	}
	return 0
}

func (tp *testPrioritizer) OnForward(at NodeID, p *Packet, now uint64) {
	tp.forwards++
	if at == tp.watch {
		tp.order = append(tp.order, p.Dst)
	}
}

func TestPrioritizerHooksInvoked(t *testing.T) {
	tp := &testPrioritizer{demote: 65}
	n := mustNetwork(t, Config{Prioritizer: tp})
	n.SetDeliver(64, func(*Packet, uint64) {})
	n.SetDeliver(65, func(*Packet, uint64) {})
	n.Inject(&Packet{Kind: KindReadReq, Src: 0, Dst: 64}, 0)
	n.Inject(&Packet{Kind: KindReadReq, Src: 0, Dst: 65}, 0)
	drain(t, n, 0, 5000)
	if tp.forwards == 0 {
		t.Fatal("OnForward never invoked")
	}
}

func TestPriorityReordersContendingPackets(t *testing.T) {
	// Two single-flit requests converge on router 65 in the same cycle and
	// compete for its east output port: one from core 0 (via 64, headed to
	// 67) and one from core 1 (straight down, headed to 66). Whichever
	// destination is demoted must cross router 65 second.
	run := func(demote NodeID) []NodeID {
		tp := &testPrioritizer{demote: demote, watch: 65}
		n := mustNetwork(t, Config{Prioritizer: tp})
		n.SetDeliver(66, func(*Packet, uint64) {})
		n.SetDeliver(67, func(*Packet, uint64) {})
		n.Inject(&Packet{Kind: KindReadReq, Src: 0, Dst: 67}, 0)
		// Core 1's packet is one hop closer to router 65; injecting it one
		// hop-latency later makes the two arrive there together.
		for now := uint64(0); now < 3; now++ {
			step(t, n, now)
		}
		n.Inject(&Packet{Kind: KindReadReq, Src: 1, Dst: 66}, 3)
		drain(t, n, 3, 5000)
		return tp.order
	}
	got := run(67)
	if len(got) != 2 || got[0] != 66 {
		t.Fatalf("demote 67: crossing order at router 65 = %v, want 66 first", got)
	}
	got = run(66)
	if len(got) != 2 || got[0] != 67 {
		t.Fatalf("demote 66: crossing order at router 65 = %v, want 67 first", got)
	}
}

// Property: the network conserves packets for arbitrary traffic mixes — all
// injected packets are delivered exactly once at their destinations.
func TestNetworkConservationProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) > 144 {
			raw = raw[:144]
		}
		type spec struct{ src, dst, kind uint8 }
		var specs []spec
		for i := 0; i+2 < len(raw); i += 3 {
			specs = append(specs, spec{raw[i], raw[i+1], raw[i+2]})
		}
		n := mustNetwork(t, Config{})
		want := make(map[NodeID]int)
		got := make(map[NodeID]int)
		for d := NodeID(0); int(d) < n.NumNodes(); d++ {
			d := d
			n.NIC(d).SetDeliver(func(p *Packet, now uint64) { got[d]++ })
		}
		kinds := []Kind{KindReadReq, KindWriteReq, KindReadResp, KindInv, KindInvAck, KindWriteAck}
		for _, s := range specs {
			k := kinds[int(s.kind)%len(kinds)]
			var src, dst NodeID
			switch ClassFor(k) {
			case ClassReq:
				src = NodeID(int(s.src) % paper.LayerSize())
				dst = NodeID(int(s.dst)%paper.LayerSize() + paper.LayerSize())
			case ClassResp, ClassCoh:
				if k == KindInvAck {
					src = NodeID(int(s.src) % paper.LayerSize())
					dst = NodeID(int(s.dst)%paper.LayerSize() + paper.LayerSize())
				} else {
					src = NodeID(int(s.src)%paper.LayerSize() + paper.LayerSize())
					dst = NodeID(int(s.dst) % paper.LayerSize())
				}
			}
			n.Inject(&Packet{Kind: k, Src: src, Dst: dst}, 0)
			want[dst]++
		}
		now := uint64(0)
		for ; n.InFlight() > 0 && now < 200000; now++ {
			step(t, n, now)
		}
		if n.InFlight() != 0 {
			return false
		}
		for d, w := range want {
			if got[d] != w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestInvariantsHoldFreshAndAfterTraffic(t *testing.T) {
	n := mustNetwork(t, Config{})
	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("fresh network violates invariants: %v", err)
	}
	for d := NodeID(64); d < 128; d++ {
		n.SetDeliver(d, func(*Packet, uint64) {})
	}
	now := uint64(0)
	for i := 0; i < 200; i++ {
		n.Inject(&Packet{Kind: KindWriteReq, Src: NodeID(i % 64), Dst: NodeID(64 + (i*13)%64)}, now)
	}
	for ; n.InFlight() > 0 && now < 100000; now++ {
		step(t, n, now)
		if now%500 == 0 {
			if err := n.CheckInvariants(); err != nil {
				t.Fatalf("invariant violated mid-flight at cycle %d: %v", now, err)
			}
		}
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("invariant violated after drain: %v", err)
	}
}

// Property: invariants hold under arbitrary traffic with gated endpoints —
// the harshest backpressure case.
func TestInvariantsUnderGatingProperty(t *testing.T) {
	f := func(raw []uint8, gateMask uint8) bool {
		n := mustNetwork(t, Config{})
		for d := NodeID(0); int(d) < n.NumNodes(); d++ {
			n.SetDeliver(d, func(*Packet, uint64) {})
		}
		// A rotating gate: each bank admits demand requests only when the
		// cycle counter's low bits match its mask — constant churn of
		// blocked/unblocked classes.
		for d := NodeID(64); d < 128; d++ {
			d := d
			n.NIC(d).SetGate(func(p *Packet, now uint64) bool {
				if p.Kind != KindReadReq && p.Kind != KindWriteReq {
					return true
				}
				return (now>>4)&uint64(gateMask&3) == 0
			})
		}
		now := uint64(0)
		for i, b := range raw {
			kind := KindReadReq
			if b%3 == 0 {
				kind = KindWriteReq
			}
			n.Inject(&Packet{Kind: kind, Src: NodeID(int(b) % 64), Dst: NodeID(64 + i%64)}, now)
		}
		for ; n.InFlight() > 0 && now < 60000; now++ {
			step(t, n, now)
			if now%997 == 0 && n.CheckInvariants() != nil {
				return false
			}
		}
		return n.CheckInvariants() == nil && n.InFlight() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
