package main

import (
	"fmt"
	"sort"
	"time"

	"sttsim/internal/core"
	"sttsim/internal/mem"
	"sttsim/internal/noc"
	"sttsim/internal/obs"
	"sttsim/internal/sim"
)

// recPacket is one packet's recorded life: injected at inject, its header
// first enqueued at src and last at dst, delivered when delivered is set.
type recPacket struct {
	kind      noc.Kind
	inject    uint64
	src, dst  int16
	delivered bool
}

// recAccess is one recorded bank access: it reached the bank controller's
// queue at arrive.
type recAccess struct {
	bank   int16
	kind   noc.Kind
	arrive uint64
	start  uint64
}

// recorder keeps what the replays need from a traced run's event stream.
// Packet IDs are assigned densely from 1, so packets index a slice.
type recorder struct {
	packets  []recPacket
	accesses []recAccess
}

func (r *recorder) emit(ev obs.Event) error {
	switch ev.Type {
	case obs.EvInject:
		for uint64(len(r.packets)) <= ev.Pkt {
			r.packets = append(r.packets, recPacket{src: -1, dst: -1})
		}
		r.packets[ev.Pkt] = recPacket{kind: ev.Kind, inject: ev.Cycle, src: -1, dst: -1}
	case obs.EvEnqueue:
		if ev.Pkt >= uint64(len(r.packets)) {
			return fmt.Errorf("enqueue of unrecorded packet %d", ev.Pkt)
		}
		p := &r.packets[ev.Pkt]
		if p.src < 0 {
			p.src = ev.Node
		}
		p.dst = ev.Node
	case obs.EvDeliver:
		if ev.Pkt >= uint64(len(r.packets)) {
			return fmt.Errorf("delivery of unrecorded packet %d", ev.Pkt)
		}
		r.packets[ev.Pkt].delivered = true
	case obs.EvBankDone:
		start := ev.Cycle - ev.B
		r.accesses = append(r.accesses, recAccess{
			bank: ev.Node, kind: ev.Kind, arrive: start - ev.A, start: start,
		})
	}
	return nil
}

// complete returns the recorded packets whose whole life fell inside the
// run (packets still in flight when it ended have no known destination),
// in injection order, and how many were left out.
func (r *recorder) complete() (pkts []recPacket, inFlight int) {
	for _, p := range r.packets[min(1, len(r.packets)):] {
		if p.delivered {
			pkts = append(pkts, p)
		} else {
			inFlight++
		}
	}
	return pkts, inFlight
}

// countingPrioritizer wraps the bank-aware arbiter and counts (and, when
// timed is set, times) its Priority calls.
type countingPrioritizer struct {
	inner noc.Prioritizer
	timed bool
	calls uint64
	ns    time.Duration
}

func (c *countingPrioritizer) Priority(at noc.NodeID, p *noc.Packet, now uint64) int {
	c.calls++
	if !c.timed {
		return c.inner.Priority(at, p, now)
	}
	t0 := time.Now()
	v := c.inner.Priority(at, p, now)
	c.ns += time.Since(t0)
	return v
}

func (c *countingPrioritizer) OnForward(at noc.NodeID, p *noc.Packet, now uint64) {
	c.inner.OnForward(at, p, now)
}

// replayNet is a standalone network built through the public constructors
// with the workload's routing, VCs, wide TSBs and arbiter.
type replayNet struct {
	net   *noc.Network
	prio  *countingPrioritizer // nil when the scheme has no prioritizer
	wb    *core.WBEstimator
	tagTS map[noc.NodeID]uint8 // last WB timestamp delivered to each child
}

// newReplayNet mirrors sim.New's network wiring for the default region
// geometry (8 staggered regions, 2-hop parents, 100-packet WB window).
func newReplayNet(cfg sim.Config, timed bool) (*replayNet, error) {
	topo := cfg.Topology()
	var (
		layout  *core.RegionLayout
		routing *noc.Routing
		wide    []noc.NodeID
		err     error
	)
	if cfg.Scheme.Restricted() {
		if layout, err = core.NewRegionLayoutTopo(topo, 8, core.PlacementStagger); err != nil {
			return nil, err
		}
		if routing, err = noc.NewRoutingTopo(topo, noc.PathRegionTSBs, layout.TSBMap()); err != nil {
			return nil, err
		}
		wide = layout.TSBCores()
	} else if routing, err = noc.NewRoutingTopo(topo, noc.PathAllTSVs, nil); err != nil {
		return nil, err
	}
	r := &replayNet{tagTS: map[noc.NodeID]uint8{}}
	ncfg := noc.Config{Routing: routing, VCsPerClass: noc.DefaultVCsPerClass, WideTSBs: wide}
	var arb *core.BankAwareArbiter
	if cfg.Scheme.Prioritized() {
		if cfg.Scheme != sim.SchemeSTT4TSBWB {
			return nil, fmt.Errorf("replay supports the WB estimator only, not %s", cfg.Scheme)
		}
		parents, err := core.BuildParentMap(layout, core.DefaultHops)
		if err != nil {
			return nil, err
		}
		r.wb = core.NewWBEstimatorFor(core.WBWindow, topo.NumNodes())
		tech := cfg.BankTech()
		arb = core.NewBankAwareArbiter(parents, r.wb, tech.ReadCycles, tech.WriteCycles)
		r.prio = &countingPrioritizer{inner: arb, timed: timed}
		ncfg.Prioritizer = r.prio
	}
	if r.net, err = noc.NewNetwork(ncfg); err != nil {
		return nil, err
	}
	if arb != nil {
		arb.AttachNetwork(r.net)
	}
	return r, nil
}

// preStep reports whether the simulator injects packets of kind k before
// the network steps in a cycle (core outboxes and WB acks); bank and memory
// controller output enters after it.
func preStep(k noc.Kind) bool {
	switch k {
	case noc.KindReadReq, noc.KindWriteReq, noc.KindInvAck, noc.KindTSAck:
		return true
	}
	return false
}

// nocReplay is the outcome of replaying recorded injections.
type nocReplay struct {
	injected, delivered int
	cycles              uint64
	stepWall            time.Duration
	prioCalls           uint64
	prioTime            time.Duration
}

// replayNoC injects every recorded packet at its recorded cycle into a fresh
// network and steps it until all are delivered, timing each Network.Step.
// WB timestamp acks are fed back into the estimator so the arbiter sees a
// live congestion estimate. Dirty-writeback MemReqs replay as 1-flit
// packets: the trace does not carry packet size.
func replayNoC(cfg sim.Config, pkts []recPacket, timed bool, spans *spanLog, trace string) (nocReplay, error) {
	rn, err := newReplayNet(cfg, timed)
	if err != nil {
		return nocReplay{}, err
	}
	var out nocReplay
	topo := cfg.Topology()
	for n := 0; n < topo.NumNodes(); n++ {
		rn.net.SetDeliver(noc.NodeID(n), func(p *noc.Packet, now uint64) {
			out.delivered++
			if rn.wb == nil {
				return
			}
			if p.Tagged {
				rn.tagTS[p.Dst] = p.Timestamp
			}
			if p.Kind == noc.KindTSAck {
				p.TagChild = p.Src
				p.Timestamp = rn.tagTS[p.Src]
				rn.wb.OnTSAck(p, now)
			}
		})
	}
	inject := func(rp recPacket, now uint64) {
		src, dst := noc.NodeID(rp.src), noc.NodeID(rp.dst)
		if rp.src < 0 { // delivered without crossing a router: local
			src, dst = 0, 0
		}
		rn.net.Inject(&noc.Packet{
			Kind: rp.kind, Src: src, Dst: dst,
			IsBankWrite: rp.kind == noc.KindWriteReq || rp.kind == noc.KindMemResp,
		}, now)
		out.injected++
	}
	// Watchdog: a replay that stops delivering is a failure, not a hang.
	limit := uint64(0)
	if len(pkts) > 0 {
		limit = pkts[len(pkts)-1].inject + noc.WatchdogCycles
	}
	start := time.Now()
	next := 0
	for now := uint64(0); next < len(pkts) || out.delivered < out.injected; now++ {
		if now > limit {
			return out, fmt.Errorf("replay stalled at cycle %d: %d of %d packets delivered", now, out.delivered, out.injected)
		}
		first := next
		for next < len(pkts) && pkts[next].inject == now {
			if preStep(pkts[next].kind) {
				inject(pkts[next], now)
			}
			next++
		}
		t0 := time.Now()
		if err := rn.net.Step(now); err != nil {
			return out, err
		}
		out.stepWall += time.Since(t0)
		out.cycles++
		for _, rp := range pkts[first:next] {
			if !preStep(rp.kind) {
				inject(rp, now)
			}
		}
	}
	spans.add(trace, "noc.replay", 0, start, time.Now())
	if rn.prio != nil {
		out.prioCalls, out.prioTime = rn.prio.calls, rn.prio.ns
	}
	return out, nil
}

// memReplay is the outcome of replaying recorded bank accesses.
type memReplay struct {
	enqueued, completed int
	ticks               uint64
	wall                time.Duration
}

// replayMem feeds every recorded bank access, at the cycle it reached its
// controller queue, into standalone mem.Banks of the run's technology and
// ticks every bank each cycle until all complete.
func replayMem(cfg sim.Config, accs []recAccess, spans *spanLog, trace string) (memReplay, error) {
	topo := cfg.Topology()
	banks := make([]*mem.Bank, topo.NumBanks())
	for i := range banks {
		banks[i] = mem.NewBank(cfg.BankTech())
	}
	sorted := append([]recAccess(nil), accs...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].arrive != sorted[j].arrive {
			return sorted[i].arrive < sorted[j].arrive
		}
		return sorted[i].start < sorted[j].start
	})
	reqs := make([]mem.Request, len(sorted))
	var out memReplay
	var c mem.Completion
	limit := uint64(0)
	if len(sorted) > 0 {
		limit = sorted[len(sorted)-1].arrive + uint64(len(sorted))*cfg.BankTech().WriteCycles + 1
	}
	start := time.Now()
	next := 0
	for now := uint64(0); next < len(sorted) || out.completed < out.enqueued; now++ {
		if now > limit {
			return out, fmt.Errorf("bank replay stalled at cycle %d: %d of %d accesses complete", now, out.completed, out.enqueued)
		}
		for next < len(sorted) && sorted[next].arrive == now {
			a := sorted[next]
			op := mem.OpWrite
			if a.kind == noc.KindReadReq {
				op = mem.OpRead
			}
			reqs[next] = mem.Request{Op: op, ID: uint64(next)}
			banks[topo.BankIndex(noc.NodeID(a.bank))].Enqueue(&reqs[next], now)
			out.enqueued++
			next++
		}
		for _, b := range banks {
			if b.TickInto(now, &c) {
				out.completed++
			}
		}
		out.ticks += uint64(len(banks))
	}
	out.wall = time.Since(start)
	spans.add(trace, "mem.replay", 0, start, time.Now())
	return out, nil
}
