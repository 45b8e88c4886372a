package noc

import (
	"errors"
	"strings"
	"testing"
)

// wide is a 256-node shape: its cache layer lies wholly above node 127, the
// paper shape's last node, so it catches loops bounded by the default size.
var wide = Topology{MeshX: 16, MeshY: 8, Layers: 2}

// networkOn builds an unrestricted-routing network over topo.
func networkOn(t *testing.T, topo Topology, cfg Config) *Network {
	t.Helper()
	r, err := NewRoutingTopo(topo, PathAllTSVs, nil)
	if err != nil {
		t.Fatalf("NewRoutingTopo(%s): %v", topo, err)
	}
	cfg.Routing = r
	return mustNetwork(t, cfg)
}

// corrupt builds a fresh network over topo, verifies it is self-consistent,
// applies the corruption, and asserts CheckInvariants reports a violation
// containing want.
func corrupt(t *testing.T, topo Topology, want string, mutate func(n *Network)) {
	t.Helper()
	n := networkOn(t, topo, Config{})
	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("fresh network violates invariants: %v", err)
	}
	mutate(n)
	err := n.CheckInvariants()
	if err == nil {
		t.Fatalf("corruption went undetected (want %q)", want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("violation %q does not mention %q", err, want)
	}
}

// vcBit returns router r's mask bit of input VC (port, vc).
func vcBit(r *Router, port Port, vc int) uint64 {
	return 1 << (uint(port)*uint(r.net.numVCs) + uint(vc))
}

func TestAuditDetectsUnownedFlits(t *testing.T) {
	corrupt(t, paper, "no owner", func(n *Network) {
		r := n.routers[0]
		r.push(r.vc(PortLocal, 0), Flit{Pkt: &Packet{ID: 1}, Seq: 1})
	})
	// Node 0 has no west neighbour, so its west VCs have no ring and must
	// stay idle.
	corrupt(t, paper, "no W port", func(n *Network) {
		n.routers[0].vc(PortWest, 2).pkt = &Packet{ID: 1}
	})
}

func TestAuditDetectsInterleavedPackets(t *testing.T) {
	corrupt(t, paper, "interleaved", func(n *Network) {
		a, b := &Packet{ID: 1}, &Packet{ID: 2}
		r := n.routers[0]
		st := r.vc(PortLocal, 0)
		st.pkt = a
		r.push(st, Flit{Pkt: a, Seq: 0})
		r.push(st, Flit{Pkt: b, Seq: 1})
		// Keep the credit ledger consistent so the ownership check is what
		// fires, not conservation.
		r.feeder[PortLocal].credits[0] -= 2
	})
}

func TestAuditDetectsCreditLeak(t *testing.T) {
	for _, topo := range []Topology{paper, wide} {
		// The last router: node 255 on the wide shape.
		last := NodeID(topo.NumNodes() - 1)
		corrupt(t, topo, "credits+buffered", func(n *Network) {
			n.routers[last].feeder[PortLocal].credits[0]--
		})
	}
}

func TestAuditDetectsNegativeCredits(t *testing.T) {
	corrupt(t, paper, "negative credits", func(n *Network) {
		// Conservation must hold (credits + buffered == depth) for the
		// negative-credit branch to be the one that fires.
		// The ring takes the over-depth push (acceptFlit is what refuses
		// one), overwriting its head slot with the last flit.
		p := &Packet{ID: 1}
		r := n.routers[0]
		st := r.vc(PortLocal, 0)
		st.pkt = p
		for i := 0; i <= n.bufDepth; i++ {
			r.push(st, Flit{Pkt: p, Seq: i})
		}
		r.feeder[PortLocal].credits[0] = -1
	})
}

func TestAuditDetectsBufferedFlitCounterDrift(t *testing.T) {
	corrupt(t, paper, "buffered flits", func(n *Network) {
		n.routers[5].bufferedFlits++
	})
}

func TestAuditDetectsNeedVCCounterDrift(t *testing.T) {
	corrupt(t, paper, "awaiting allocation", func(n *Network) {
		r := n.routers[5]
		r.vaWait ^= vcBit(r, PortLocal, 0)
	})
}

func TestAuditDetectsSAReadyMaskDrift(t *testing.T) {
	for _, topo := range []Topology{paper, wide} {
		last := NodeID(topo.NumNodes() - 1)
		corrupt(t, topo, "saReady", func(n *Network) {
			r := n.routers[last]
			r.saReady ^= vcBit(r, PortLocal, n.numVCs-1)
		})
	}
	// A bit for a port the router does not have is drift too: node 0 has
	// no west neighbour, so no VC state backs this bit.
	corrupt(t, paper, "saReady", func(n *Network) {
		n.routers[0].saReady |= vcBit(n.routers[0], PortWest, 0)
	})
}

// bufferFlits injects a data packet from node 0 and steps the network until
// some router holds two or more of its flits in a VC that already owns a
// downstream VC, returning that router and the VC's index.
func bufferFlits(t *testing.T, n *Network) (*Router, int) {
	t.Helper()
	n.SetDeliver(1, func(*Packet, uint64) {})
	n.Inject(&Packet{Kind: KindWriteReq, Src: 0, Dst: 1}, 0)
	for now := uint64(0); now < 20; now++ {
		step(t, n, now)
		for _, r := range n.routers {
			for b := range r.vcs {
				if st := &r.vcs[b]; st.n > 1 && st.outVC >= 0 {
					if err := n.CheckInvariants(); err != nil {
						t.Fatalf("cycle %d: %v", now, err)
					}
					return r, b
				}
			}
		}
	}
	t.Fatal("no router buffered two flits of the packet")
	return nil, 0
}

func TestAuditDetectsHeadReadyDrift(t *testing.T) {
	for _, topo := range []Topology{paper, wide} {
		corrupt(t, topo, "headReady", func(n *Network) {
			r, b := bufferFlits(t, n)
			r.vcs[b].headReady++
		})
		// A pop that failed to refresh the cache would leave the old head's
		// readiness behind once the next flit differs. Settle the counters
		// the pop owes so that the cache is the only thing wrong.
		corrupt(t, topo, "headReady", func(n *Network) {
			r, b := bufferFlits(t, n)
			st := &r.vcs[b]
			stale := st.headReady
			r.flit(st, 1).readyAt = stale + 7
			r.pop(st)
			st.headReady = stale
			r.bufferedFlits--
			nv := n.numVCs
			r.feeder[b/nv].credits[b%nv]++
		})
	}
}

func TestAuditDetectsFreeVCMaskDrift(t *testing.T) {
	for _, topo := range []Topology{paper, wide} {
		last := NodeID(topo.NumNodes() - 1)
		// Tail sent and every credit back: eager freeing must have cleared it.
		corrupt(t, topo, "after its tail was sent", func(n *Network) {
			ol := n.routers[last].out[PortLocal]
			ol.busy |= 1 << 2
			ol.tailSent |= 1 << 2
		})
		corrupt(t, topo, "not busy", func(n *Network) {
			n.routers[last].out[PortLocal].tailSent |= 1
		})
		corrupt(t, topo, "at or above VC", func(n *Network) {
			n.routers[last].out[PortLocal].busy |= 1 << uint(n.numVCs)
		})
		// The NICs' injection links are audited too.
		corrupt(t, topo, "nic", func(n *Network) {
			n.nics[last].inj.tailSent |= 1
		})
	}
}

func TestStepReturnsDeadlockErrorWithStalledDump(t *testing.T) {
	for _, topo := range []Topology{paper, wide} {
		stalledDump(t, topo)
	}
}

func stalledDump(t *testing.T, topo Topology) {
	n := networkOn(t, topo, Config{WatchdogCycles: 200})
	// Bank 0's node: 64 on the paper's shape, 128 on the wide one.
	sink := topo.BankNode(0)
	n.SetDeliver(sink, func(*Packet, uint64) {})
	// A permanently shut gate wedges everything headed to the sink.
	n.NIC(sink).SetGate(func(p *Packet, now uint64) bool { return false })
	for i := 0; i < 40; i++ {
		n.Inject(&Packet{Kind: KindWriteReq, Src: NodeID(i % 8), Dst: sink}, 0)
	}
	var dl *DeadlockError
	for now := uint64(0); now < 5000; now++ {
		if err := n.Step(now); err != nil {
			if !errors.As(err, &dl) {
				t.Fatalf("%s: Step returned %T, want *DeadlockError", topo, err)
			}
			break
		}
	}
	if dl == nil {
		t.Fatalf("%s: watchdog never fired on a permanently blocked network", topo)
	}
	if dl.InFlight != n.InFlight() || dl.InFlight == 0 {
		t.Fatalf("%s: deadlock reports %d in flight, network says %d", topo, dl.InFlight, n.InFlight())
	}
	// A wormhole packet spread across several routers appears once per VC it
	// occupies, so compare distinct packets, not dump entries.
	ids := make(map[uint64]bool)
	for _, p := range dl.Stalled {
		ids[p.ID] = true
	}
	if len(ids) != dl.InFlight {
		t.Fatalf("%s: packet dump covers %d distinct packets of %d in flight", topo, len(ids), dl.InFlight)
	}
	if !strings.Contains(dl.Error(), "deadlock") {
		t.Fatalf("%s: error text %q does not say deadlock", topo, dl.Error())
	}
	// The dump must carry usable debugging detail, and reach every router
	// holding a stalled packet, including those past node 127.
	sawSink := false
	for _, p := range dl.Stalled {
		if p.Dst != sink {
			t.Fatalf("%s: stalled packet bound for %d, all traffic targeted %d", topo, p.Dst, sink)
		}
		if p.Where == "" {
			t.Fatalf("%s: stalled packet %d has no location", topo, p.ID)
		}
		sawSink = sawSink || p.At == sink
	}
	if !sawSink {
		t.Fatalf("%s: no stalled packet dumped at the sink router %d", topo, sink)
	}
}

func TestDegradedPortStillDelivers(t *testing.T) {
	// Kill-vs-degrade: a period-4 link is slow but alive, so traffic drains.
	n := mustNetwork(t, Config{WatchdogCycles: 500})
	var got int
	n.SetDeliver(2, func(*Packet, uint64) { got++ })
	if err := n.DegradePort(0, PortEast, 4); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		n.Inject(&Packet{Kind: KindReadReq, Src: 0, Dst: 2}, uint64(i))
	}
	drain(t, n, 5, 2000)
	if got != 5 {
		t.Fatalf("delivered %d of 5 packets over the degraded link", got)
	}
}

func TestFailPortValidation(t *testing.T) {
	n := mustNetwork(t, Config{})
	// Node 0 is the north-west corner: no west link exists.
	if err := n.FailPort(0, PortWest); err == nil {
		t.Fatal("expected error failing a non-existent link")
	}
	if err := n.FailPort(-1, PortEast); err == nil {
		t.Fatal("expected error for invalid node")
	}
}
