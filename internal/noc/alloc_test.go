package noc

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// hashPrioritizer stands in for the bank-aware arbiter: it hashes (router,
// packet ID) to one of the three outcomes the allocators distinguish —
// Normal (0), Demoted (1) or Hold. A held header is released on alternate
// 8-cycle windows, so every packet eventually drains. It counts each outcome
// so the test can tell that every branch was taken.
type hashPrioritizer struct {
	normal, demoted, held int
}

func (h *hashPrioritizer) Priority(at NodeID, p *Packet, now uint64) int {
	x := uint64(at)*0x9E3779B97F4A7C15 ^ p.ID*0xBF58476D1CE4E5B9
	switch (x >> 32) % 3 {
	case 0:
		h.normal++
		return 0
	case 1:
		h.demoted++
		return 1
	}
	if (now>>3)&1 == 0 {
		h.held++
		return PriorityHold
	}
	h.demoted++
	return 1
}

func (h *hashPrioritizer) OnForward(NodeID, *Packet, uint64) {}

// quadrantTSBs maps every cache-layer node of topo to one of four region
// TSBs, the core-layer nodes around the layer's centre — the paper's
// 4-TSB layout on the default shape.
func quadrantTSBs(topo Topology) (tsbOf map[NodeID]NodeID, tsbs []NodeID) {
	cx, cy := topo.MeshX/2, topo.MeshY/2
	for qy := 0; qy < 2; qy++ {
		for qx := 0; qx < 2; qx++ {
			tsbs = append(tsbs, topo.NodeAt(0, cx-1+qx, cy-1+qy))
		}
	}
	tsbOf = make(map[NodeID]NodeID)
	for d := NodeID(topo.LayerSize()); int(d) < topo.NumNodes(); d++ {
		q := 0
		if topo.X(d) >= cx {
			q++
		}
		if topo.Y(d) >= cy {
			q += 2
		}
		tsbOf[d] = tsbs[q]
	}
	return tsbOf, tsbs
}

// TestAllocMaskUpkeepProperty drives seeded random traffic of every packet
// kind through region-TSB networks with 2-flit-wide TSBs and a prioritizer
// that demotes and holds headers, auditing the routers' vaWait/saReady and
// free-VC masks and cached head readiness against their VC states after
// every cycle, and requires every packet to be delivered. Congested wide TSBs
// exercise the second-flit-per-cycle path; held headers exercise VA passes
// that grant nothing. Each case runs at the paper's 5-flit buffers and again
// at 2-flit buffers (the "/depth2" runs), where 9-flit writebacks wrap the
// VC rings every two flits.
func TestAllocMaskUpkeepProperty(t *testing.T) {
	for _, topo := range []Topology{paper, wide} {
		for _, vcs := range [][]int{DefaultVCsPerClass, {4, 2, 1}} {
			for seed := int64(1); seed <= 2; seed++ {
				for _, depth := range []int{DefaultBufDepth, 2} {
					name := fmt.Sprintf("%s/vcs%d/seed%d", topo, vcs[0]+vcs[1]+vcs[2], seed)
					if depth != DefaultBufDepth {
						name += fmt.Sprintf("/depth%d", depth)
					}
					t.Run(name, func(t *testing.T) { maskUpkeepRun(t, topo, vcs, depth, seed) })
				}
			}
		}
	}
}

func maskUpkeepRun(t *testing.T, topo Topology, vcs []int, depth int, seed int64) {
	tsbOf, tsbs := quadrantTSBs(topo)
	routing, err := NewRoutingTopo(topo, PathRegionTSBs, tsbOf)
	if err != nil {
		t.Fatal(err)
	}
	prio := &hashPrioritizer{}
	n := mustNetwork(t, Config{Routing: routing, VCsPerClass: vcs, BufDepth: depth, WideTSBs: tsbs, Prioritizer: prio})
	delivered := 0
	for d := NodeID(0); int(d) < n.NumNodes(); d++ {
		n.SetDeliver(d, func(*Packet, uint64) { delivered++ })
	}

	rng := rand.New(rand.NewSource(seed))
	const injectCycles, perCycle = 300, 8
	injected := 0
	maxTSB := uint64(0) // most TSB flits moved in any one cycle
	for now := uint64(0); now < injectCycles || n.InFlight() > 0; now++ {
		if now > injectCycles+20000 {
			t.Fatalf("network did not drain (%d in flight)", n.InFlight())
		}
		for i := 0; now < injectCycles && i < perCycle; i++ {
			p := &Packet{
				Kind: Kind(rng.Intn(int(numKinds))),
				Src:  NodeID(rng.Intn(n.NumNodes())),
				Dst:  NodeID(rng.Intn(n.NumNodes())),
			}
			if p.Kind == KindMemReq && rng.Intn(2) == 0 {
				p.SizeFlits = DataPacketFlits // a dirty writeback
			}
			n.Inject(p, now)
			injected++
		}
		before := n.Stats().TSBFlits
		step(t, n, now)
		if err := n.CheckInvariants(); err != nil {
			t.Fatalf("cycle %d: %v", now, err)
		}
		maxTSB = max(maxTSB, n.Stats().TSBFlits-before)
	}
	if delivered != injected {
		t.Fatalf("delivered %d of %d packets", delivered, injected)
	}
	if prio.normal == 0 || prio.demoted == 0 || prio.held == 0 {
		t.Fatalf("prioritizer outcomes not all exercised: %+v", *prio)
	}
	// More TSB flits in one cycle than there are TSBs means some TSB moved
	// two flits that cycle.
	if maxTSB <= uint64(len(tsbs)) {
		t.Fatalf("no TSB ever moved two flits in a cycle (max %d across %d TSBs)", maxTSB, len(tsbs))
	}
}

// TestVCRingWrapStreamsInOrder streams five 9-flit packets through one VC —
// the request class has a single VC, and node 1 is node 0's east neighbour,
// so every flit crosses router 1's west input VC 0 — at buffer depths whose
// rings wrap many times per packet. After every cycle the VC's flits must be
// consecutive flits of one packet, headReady must match the head flit, the
// upstream credits plus the buffered flits must equal the depth, and the
// head must only move forward through the stream. Packets arrive in
// injection order, and the drained VC ends free with every credit back.
func TestVCRingWrapStreamsInOrder(t *testing.T) {
	for _, depth := range []int{2, 3, DefaultBufDepth} {
		t.Run(fmt.Sprintf("depth%d", depth), func(t *testing.T) { ringWrapRun(t, depth) })
	}
}

func ringWrapRun(t *testing.T, depth int) {
	n := mustNetwork(t, Config{VCsPerClass: []int{1, 1, 1}, BufDepth: depth})
	var got, want []uint64
	n.SetDeliver(1, func(p *Packet, _ uint64) { got = append(got, p.ID) })
	for i := 0; i < 5; i++ {
		p := &Packet{Kind: KindWriteReq, Src: 0, Dst: 1}
		n.Inject(p, 0)
		want = append(want, p.ID)
	}
	r, up := n.Router(1), n.Router(0).out[PortEast]
	st := r.vc(PortWest, 0)
	wraps, lastID, lastSeq := 0, uint64(0), -1
	for now := uint64(0); n.InFlight() > 0; now++ {
		if now > 2000 {
			t.Fatalf("stream did not drain (%d in flight)", n.InFlight())
		}
		hd := st.hd
		step(t, n, now)
		if st.hd < hd {
			wraps++
		}
		if got := up.credits[0] + int(st.n); got != depth {
			t.Fatalf("cycle %d: credits+buffered = %d, want %d", now, got, depth)
		}
		if st.n == 0 {
			continue
		}
		head := r.flit(st, 0)
		if st.headReady != head.readyAt {
			t.Fatalf("cycle %d: headReady %d, head flit ready at %d", now, st.headReady, head.readyAt)
		}
		if head.Pkt.ID < lastID || (head.Pkt.ID == lastID && head.Seq < lastSeq) {
			t.Fatalf("cycle %d: head went back from packet %d flit %d to packet %d flit %d",
				now, lastID, lastSeq, head.Pkt.ID, head.Seq)
		}
		lastID, lastSeq = head.Pkt.ID, head.Seq
		for i := 1; i < int(st.n); i++ {
			prev, f := r.flit(st, i-1), r.flit(st, i)
			if f.Pkt != prev.Pkt || f.Seq != prev.Seq+1 {
				t.Fatalf("cycle %d: ring slot %d holds packet %d flit %d after packet %d flit %d",
					now, i, f.Pkt.ID, f.Seq, prev.Pkt.ID, prev.Seq)
			}
		}
		if err := n.CheckInvariants(); err != nil {
			t.Fatalf("cycle %d: %v", now, err)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("delivered %v, want injection order %v", got, want)
	}
	// Five packets of 9 flits pass the ring: at least 45/depth - 1 wraps.
	if atLeast := 5*DataPacketFlits/depth - 1; wraps < atLeast {
		t.Fatalf("ring wrapped %d times, want at least %d", wraps, atLeast)
	}
	if up.credits[0] != depth || up.busy != 0 || up.tailSent != 0 {
		t.Fatalf("drained link: credits %d busy %#x tailSent %#x, want %d, 0, 0",
			up.credits[0], up.busy, up.tailSent, depth)
	}
}
