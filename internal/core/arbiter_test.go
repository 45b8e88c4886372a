package core

import (
	"testing"

	"sttsim/internal/mem"
	"sttsim/internal/noc"
)

func testArbiter(t *testing.T, est Estimator) (*BankAwareArbiter, *ParentMap) {
	t.Helper()
	l := mustLayout(t, 4, PlacementCorner)
	pm, err := BuildParentMap(l, DefaultHops)
	if err != nil {
		t.Fatal(err)
	}
	return NewBankAwareArbiter(pm, est, mem.STTRAM.ReadCycles, mem.STTRAM.WriteCycles), pm
}

func TestSSEstimator(t *testing.T) {
	var e SSEstimator
	if e.Name() != "SS" {
		t.Fatal("name")
	}
	if e.Congestion(91, 75, 100) != 0 {
		t.Fatal("SS congestion must be 0")
	}
}

func TestArbiterChargesBusyTable(t *testing.T) {
	a, _ := testArbiter(t, SSEstimator{})
	w := &noc.Packet{Kind: noc.KindWriteReq, Src: 7, Dst: 75}
	// Forward at the parent (91): the bank is predicted busy from arrival
	// (now + 4) until arrival + 33.
	a.OnForward(91, w, 100)
	if got := a.BusyUntil(75); got != 100+4+33 {
		t.Fatalf("busyUntil = %d, want %d", got, 100+4+33)
	}
	// A second write forwarded immediately after queues behind the first.
	w2 := &noc.Packet{Kind: noc.KindWriteReq, Src: 8, Dst: 75}
	a.OnForward(91, w2, 101)
	if got := a.BusyUntil(75); got != 100+4+33+33 {
		t.Fatalf("busyUntil after second write = %d, want %d", got, 100+4+33+33)
	}
	st := a.Stats()
	if st.ForwardedWrites != 2 {
		t.Fatalf("forwarded writes = %d, want 2", st.ForwardedWrites)
	}
}

func TestArbiterReadChargesShortService(t *testing.T) {
	a, _ := testArbiter(t, SSEstimator{})
	r := &noc.Packet{Kind: noc.KindReadReq, Src: 7, Dst: 75}
	a.OnForward(91, r, 0)
	if got := a.BusyUntil(75); got != 4+3 {
		t.Fatalf("busyUntil after read = %d, want 7", got)
	}
}

func TestArbiterPriorityDemotion(t *testing.T) {
	a, _ := testArbiter(t, SSEstimator{})
	w := &noc.Packet{Kind: noc.KindWriteReq, Src: 7, Dst: 75}
	a.OnForward(91, w, 100)

	follow := &noc.Packet{Kind: noc.KindReadReq, Src: 9, Dst: 75}
	// A read within the write's shadow is demoted (it still overtakes the
	// delayed writes, but yields to idle-bank traffic).
	if got := a.Priority(91, follow, 110); got != PriorityDemoted {
		t.Fatalf("read priority during busy window = %d, want demoted", got)
	}
	// A write within the shadow and inside HoldCap is hard-held.
	wfollow := &noc.Packet{Kind: noc.KindWriteReq, Src: 9, Dst: 75}
	if got := a.Priority(91, wfollow, 110); got != PriorityHeld {
		t.Fatalf("write priority during busy window = %d, want held", got)
	}
	// A write far outside HoldCap is merely demoted.
	w3 := &noc.Packet{Kind: noc.KindWriteReq, Src: 9, Dst: 75}
	a.OnForward(91, w3, 110) // busyUntil advances another 33
	if got := a.Priority(91, wfollow, 111); got != PriorityDemoted {
		t.Fatalf("write priority far from idle = %d, want demoted", got)
	}
	// At any other router the same packet is not demoted.
	if got := a.Priority(90, follow, 110); got != PriorityNormal {
		t.Fatalf("priority at non-parent = %d, want normal", got)
	}
	// A request to an idle sibling bank is never demoted.
	idle := &noc.Packet{Kind: noc.KindReadReq, Src: 9, Dst: 82}
	if got := a.Priority(91, idle, 110); got != PriorityNormal {
		t.Fatalf("priority to idle bank = %d, want normal", got)
	}
	// Coherence and memory traffic are always promoted.
	coh := &noc.Packet{Kind: noc.KindInvAck, Src: 9, Dst: 75}
	if got := a.Priority(91, coh, 110); got != PriorityNormal {
		t.Fatalf("coherence priority = %d, want normal", got)
	}
	// Once the bank frees (after w3 the table reads 170; a packet sent at
	// 166 arrives at 170), the request is released.
	if got := a.Priority(91, follow, 166); got != PriorityNormal {
		t.Fatalf("priority after busy window = %d, want normal", got)
	}
	if a.Stats().DelayDecisions == 0 {
		t.Fatal("delay decisions not counted")
	}
}

func TestRCAEstimatorTracksCongestion(t *testing.T) {
	l := mustLayout(t, 4, PlacementCorner)
	routing, err := noc.NewRoutingTopo(paper, noc.PathRegionTSBs, l.TSBMap())
	if err != nil {
		t.Fatal(err)
	}
	net, err := noc.NewNetwork(noc.Config{Routing: routing, WideTSBs: l.TSBCores()})
	if err != nil {
		t.Fatal(err)
	}
	e := NewRCAEstimator(net.Topology())
	e.AttachNetwork(net)
	if e.Name() != "RCA" {
		t.Fatal("name")
	}
	e.Tick(0)
	if got := e.Congestion(91, 75, 0); got != 0 {
		t.Fatalf("idle congestion = %d, want 0", got)
	}
	// Flood the region to raise occupancy around router 83/91.
	for d := noc.NodeID(64); d < 128; d++ {
		net.SetDeliver(d, func(*noc.Packet, uint64) {})
	}
	for i := 0; i < 20; i++ {
		net.Inject(&noc.Packet{Kind: noc.KindWriteReq, Src: noc.NodeID(i % 8), Dst: 75}, 0)
	}
	var congested uint64
	for now := uint64(0); now < 60; now++ {
		if err := net.Step(now); err != nil {
			t.Fatal(err)
		}
		e.Tick(now)
		if c := e.Congestion(91, 75, now); c > congested {
			congested = c
		}
	}
	if congested == 0 {
		t.Fatal("RCA congestion never rose under flood")
	}
	if congested > uint64(RCAScale) {
		t.Fatalf("RCA congestion %d exceeds scale %v", congested, RCAScale)
	}
}

func TestWBEstimatorTagAndAck(t *testing.T) {
	e := NewWBEstimatorFor(3, paper.NumNodes())
	if e.Name() != "WB" {
		t.Fatal("name")
	}
	var tagged *noc.Packet
	for i := 0; i < 3; i++ {
		p := &noc.Packet{Kind: noc.KindReadReq, Src: 7, Dst: 75}
		e.MaybeTag(91, p, uint64(10+i))
		if p.Tagged {
			tagged = p
		}
	}
	if tagged == nil {
		t.Fatal("third packet should be tagged")
	}
	if e.TagsSent != 1 {
		t.Fatalf("tags sent = %d, want 1", e.TagsSent)
	}
	if tagged.TagParent != 91 || tagged.TagChild != 75 {
		t.Fatalf("tag endpoints = %d/%d, want 91/75", tagged.TagParent, tagged.TagChild)
	}
	// The ack comes back 20 cycles later: congestion = 20/2.
	ack := &noc.Packet{Kind: noc.KindTSAck, Timestamp: tagged.Timestamp, TagChild: 75}
	e.OnTSAck(ack, uint64(tagged.Timestamp)+20)
	if got := e.Congestion(91, 75, 0); got != 10 {
		t.Fatalf("WB congestion = %d, want 10", got)
	}
	if e.AcksReceived != 1 {
		t.Fatal("acks not counted")
	}
}

func TestWBEstimatorTimestampRollover(t *testing.T) {
	e := NewWBEstimatorFor(1, paper.NumNodes())
	p := &noc.Packet{Kind: noc.KindReadReq, Src: 7, Dst: 75}
	e.MaybeTag(91, p, 250) // timestamp = 250
	ack := &noc.Packet{Kind: noc.KindTSAck, Timestamp: p.Timestamp, TagChild: 75}
	// Ack arrives at absolute cycle 260 -> 8-bit now = 4; rtt = 4-250 mod
	// 256 = 10.
	e.OnTSAck(ack, 260)
	if got := e.Congestion(91, 75, 0); got != 5 {
		t.Fatalf("rolled-over WB congestion = %d, want 5", got)
	}
}

func TestWBCongestionDelaysLonger(t *testing.T) {
	// With a nonzero congestion estimate the packet stays demoted longer:
	// release happens when now + 4 + cong >= busyUntil.
	l := mustLayout(t, 4, PlacementCorner)
	pm, _ := BuildParentMap(l, DefaultHops)
	e := NewWBEstimatorFor(1000, paper.NumNodes()) // never tags during this test
	a := NewBankAwareArbiter(pm, e, 3, 33)
	w := &noc.Packet{Kind: noc.KindWriteReq, Src: 7, Dst: 75}
	a.OnForward(91, w, 0) // busyUntil = 37
	follow := &noc.Packet{Kind: noc.KindReadReq, Src: 9, Dst: 75}
	if a.Priority(91, follow, 32) != PriorityDemoted {
		t.Fatal("should still be delayed at 32 with zero congestion")
	}
	if a.Priority(91, follow, 33) != PriorityNormal {
		t.Fatal("should release at 33 with zero congestion")
	}
	e.cong[75] = 6
	if a.Priority(91, follow, 33) != PriorityNormal {
		// now + 4 + 6 = 43 >= 37: congestion makes the arrival estimate
		// later, so the packet is released *earlier*.
		t.Fatal("congestion-adjusted arrival should release the packet")
	}
	if a.Priority(91, follow, 26) != PriorityDemoted {
		t.Fatal("26 + 10 = 36 < 37: still delayed")
	}
}

// TestFigure2Schedule reproduces the paper's Figure 2 example at network
// level: requests to one bank pile up behind a write while a bank-aware
// arbiter lets requests to other banks overtake them.
func TestFigure2Schedule(t *testing.T) {
	l := mustLayout(t, 4, PlacementCorner)
	pm, err := BuildParentMap(l, DefaultHops)
	if err != nil {
		t.Fatal(err)
	}
	routing, err := noc.NewRoutingTopo(paper, noc.PathRegionTSBs, l.TSBMap())
	if err != nil {
		t.Fatal(err)
	}

	run := func(arb noc.Prioritizer) (order []noc.NodeID) {
		net, err := noc.NewNetwork(noc.Config{
			Routing:     routing,
			WideTSBs:    l.TSBCores(),
			Prioritizer: arb,
		})
		if err != nil {
			t.Fatal(err)
		}
		for d := noc.NodeID(64); d < 128; d++ {
			d := d
			net.SetDeliver(d, func(p *noc.Packet, now uint64) {
				if p.Kind == noc.KindReadReq {
					order = append(order, p.Dst)
				}
			})
		}
		// A long write to bank 75 followed by a burst of reads: three more
		// to the now-busy 75, interleaved with reads to idle 82 and 89. All
		// are funneled through parent 91.
		net.Inject(&noc.Packet{Kind: noc.KindWriteReq, Src: 7, Dst: 75}, 0)
		seq := []noc.NodeID{75, 75, 82, 75, 89}
		now := uint64(0)
		for i, d := range seq {
			for ; now < uint64(i+1); now++ {
				if err := net.Step(now); err != nil {
					t.Fatal(err)
				}
			}
			net.Inject(&noc.Packet{Kind: noc.KindReadReq, Src: 7, Dst: d}, now)
		}
		for ; net.InFlight() > 0; now++ {
			if now > 100000 {
				t.Fatal("network did not drain")
			}
			if err := net.Step(now); err != nil {
				t.Fatal(err)
			}
		}
		return order
	}

	arb := NewBankAwareArbiter(pm, SSEstimator{}, mem.STTRAM.ReadCycles, mem.STTRAM.WriteCycles)
	aware := run(arb)
	if len(aware) != 5 {
		t.Fatalf("aware run delivered %d reads, want 5", len(aware))
	}
	// With bank-aware arbitration, the idle banks (82, 89) must be served
	// before at least some of the delayed requests to busy bank 75.
	idxIdle := -1
	for i, d := range aware {
		if d == 82 || d == 89 {
			idxIdle = i
			break
		}
	}
	last75 := -1
	for i, d := range aware {
		if d == 75 {
			last75 = i
		}
	}
	if idxIdle == -1 || last75 < idxIdle {
		t.Fatalf("aware order %v: idle-bank reads should overtake busy-bank reads", aware)
	}
	if arb.Stats().DelayDecisions == 0 {
		t.Fatal("the arbiter never exercised a delay decision")
	}
}
