package noc

import (
	"fmt"
	"math/bits"
)

// PriorityHold marks a packet that must not be served at all this cycle:
// the paper's parent routers hold requests to busy banks in the router
// buffers so they land just as the bank frees (Section 3.5), rather than
// merely losing arbitration.
const PriorityHold = 1 << 30

// Prioritizer is the hook through which the STT-RAM-aware arbitration of
// internal/core plugs into the router's VA and SA stages. A nil Prioritizer
// yields the paper's baseline: plain round-robin arbitration.
type Prioritizer interface {
	// Priority classifies packet p competing for arbitration at router `at`
	// in cycle now. Lower values win; equal values fall back to round-robin.
	// The baseline returns 0 for everything; the bank-aware policy returns 1
	// ("delay me") for requests headed to busy child banks.
	Priority(at NodeID, p *Packet, now uint64) int
	// OnForward is invoked when the header flit of packet p is granted the
	// switch at router `at` (i.e. the packet is being forwarded). Parent
	// routers use it to charge their child-bank busy tables and to apply
	// window-based timestamps.
	OnForward(at NodeID, p *Packet, now uint64)
}

// vcState is one virtual channel of one input port.
type vcState struct {
	buf []Flit // FIFO of buffered flits

	pkt     *Packet // packet currently holding this VC (nil when idle)
	outPort Port    // route computed from the header (valid when pkt != nil)
	outVC   int     // downstream VC granted by VA; -1 until allocated
}

func (v *vcState) empty() bool { return len(v.buf) == 0 }

func (v *vcState) head() *Flit {
	if len(v.buf) == 0 {
		return nil
	}
	return &v.buf[0]
}

func (v *vcState) pop() Flit {
	f := v.buf[0]
	copy(v.buf, v.buf[1:])
	v.buf = v.buf[:len(v.buf)-1]
	return f
}

// inputPort is one input port: a set of VCs plus a back-pointer to the
// upstream outLink feeding it (for credit returns).
type inputPort struct {
	vcs    []vcState
	feeder *outLink // nil for ports with no incoming link
}

// outLink is one output port and the link it drives, including the
// credit/allocation state of the downstream input port's VCs.
type outLink struct {
	srcPort Port
	dst     *Router // nil for the local ejection port
	dstPort Port
	width   int // flits per cycle (2 for the 256-bit region TSBs)
	isTSV   bool

	credits  []int  // free buffer slots per downstream VC
	busy     []bool // downstream VC currently owned by an in-flight packet
	tailSent []bool // tail forwarded; VC frees once its credits all return
	rr       int    // SA round-robin pointer

	// Fault-injection state (see Network.DegradePort): a faulty link moves
	// flits only on cycles divisible by period; period 0 means dead.
	faulty bool
	period uint64
}

// usableAt reports whether the link may move a flit this cycle.
func (l *outLink) usableAt(now uint64) bool {
	if !l.faulty {
		return true
	}
	return l.period > 0 && now%l.period == 0
}

// fwdOp is one switch grant decided in phase A of the two-phase tick. All of
// its effects land outside the granting router — a credit returned upstream,
// a flit buffered downstream (or ejected into the local NIC), the
// prioritizer's busy-table charge — so they are deferred here and applied by
// commitOps in ascending router order, keeping phase A free of cross-router
// writes (DESIGN.md §18).
type fwdOp struct {
	f      Flit     // the granted flit, readyAt already stamped
	feeder *outLink // upstream link owed a credit (nil for NIC-fed ports)
	ol     *outLink // output link traversed
	fvc    int32    // input VC to credit upstream
	outVC  int32    // downstream VC the flit lands in
}

// Router is one 2-stage wormhole router.
type Router struct {
	id  NodeID
	in  [NumPorts]*inputPort
	out [NumPorts]*outLink
	net *Network
	va  int // VA round-robin pointer over input VCs

	// Fast-path occupancy counter so idle routers cost almost nothing.
	bufferedFlits int // flits across all input VCs
	bufCap        int // total flit-buffer capacity (fixed at construction)

	// Input-VC bitmasks, bit port*numVCs+vc (NewNetwork bounds the product
	// at 64), so the allocators walk only the VCs that can compete:
	//   vaWait  ⇔ pkt != nil && outVC < 0 (a header awaiting VA)
	//   saReady ⇔ pkt != nil && outVC >= 0 && len(buf) > 0
	// acceptFlit, the VA grant and forward keep them exact; the invariant
	// audit checks them bit for bit.
	vaWait  uint64
	saReady uint64

	// ops is the phase-A grant log, drained by commitOps each cycle; the
	// backing array reaches steady-state capacity during warmup.
	ops []fwdOp

	// saCands is switchAlloc's per-output-port candidate scratch, reused
	// across cycles so the SA stage allocates nothing in steady state.
	saCands [NumPorts][]saCandidate
}

// ID returns the router's node ID.
func (r *Router) ID() NodeID { return r.id }

// numVCs returns the per-port VC count.
func (r *Router) numVCs() int { return r.net.numVCs }

// vcBit returns the mask bit of input VC (port, vc).
func (r *Router) vcBit(port Port, vc int) uint64 {
	return 1 << (uint(port)*uint(r.net.numVCs) + uint(vc))
}

// acceptFlit buffers a flit arriving on (port, vc) and marks the router
// active. The header flit claims the VC and has its route computed (the RC
// stage).
func (r *Router) acceptFlit(port Port, vc int, f Flit, now uint64) {
	ip := r.in[port]
	st := &ip.vcs[vc]
	if len(st.buf) >= r.net.bufDepth {
		panic(fmt.Sprintf("noc: buffer overflow at router %d port %s vc %d (credit protocol violated)", r.id, port, vc))
	}
	if f.IsHead() {
		if st.pkt != nil {
			panic(fmt.Sprintf("noc: VC %d:%s:%d already owned when header of packet %d arrived", r.id, port, vc, f.Pkt.ID))
		}
		st.pkt = f.Pkt
		st.outPort = r.net.routing.NextPort(r.id, f.Pkt)
		st.outVC = -1
		r.vaWait |= r.vcBit(port, vc)
		if o := r.net.obs; o != nil {
			o.HeaderEnqueued(r.id, f.Pkt, now)
		}
	}
	if st.outVC >= 0 {
		r.saReady |= r.vcBit(port, vc)
	}
	st.buf = append(st.buf, f)
	r.bufferedFlits++
	r.net.stats.BufferWrites++
	r.net.markRouterActive(r.id)
}

// vcAlloc runs the VA stage: headers whose packets do not yet own a
// downstream VC try to claim a free one in their class. Candidates are
// served in priority order (bank-aware policy first), round-robin within a
// priority level.
func (r *Router) vcAlloc(now uint64) {
	if r.vaWait == 0 {
		return
	}
	nv := r.net.numVCs
	start := uint(r.va % (int(NumPorts) * nv))
	below := uint64(1)<<start - 1
	// Two passes: priority 0 candidates first, then the delayed ones. Each
	// pass walks the waiting headers in the flat circular (port, vc) order
	// from r.va: the bits at or above the start index, then those below it.
	// A grant clears only the bit being visited, so snapshotting the mask per
	// pass visits exactly the VCs a full rescan would. Every waiting header
	// is offered to Priority in both passes while any remains — delayed,
	// held, or merely out of downstream VCs — preserving the exact Priority
	// call sequence (the bank-aware prioritizer counts its delay decisions,
	// so call counts are observable in the stats).
	for pass := 0; pass < 2 && r.vaWait != 0; pass++ {
		m := r.vaWait
		r.vaWalk(pass, m&^below, nv, now)
		r.vaWalk(pass, m&below, nv, now)
	}
	r.va++
}

// vaWalk attempts VC allocation for the input VCs of mask m, in ascending
// bit order, during the given pass; vcAlloc defines the pass semantics.
func (r *Router) vaWalk(pass int, m uint64, nv int, now uint64) {
	for ; m != 0; m &= m - 1 {
		b := bits.TrailingZeros64(m)
		st := &r.in[b/nv].vcs[b%nv]
		h := st.head()
		if !h.IsHead() || now < h.readyAt {
			continue
		}
		prio := r.net.priority(r.id, st.pkt, now)
		if prio >= PriorityHold {
			// Held at this router: do not even reserve a downstream VC.
			continue
		}
		if (pass == 0) != (prio == 0) {
			continue
		}
		ol := r.out[st.outPort]
		if ol == nil {
			panic(fmt.Sprintf("noc: packet %d routed to missing port %s at router %d", st.pkt.ID, st.outPort, r.id))
		}
		if v := ol.allocVC(st.pkt.Class, r.net); v >= 0 {
			st.outVC = v
			r.vaWait &^= 1 << uint(b)
			r.saReady |= 1 << uint(b)
		}
	}
}

// allocVC claims a free downstream VC in the given class, returning its
// index or -1. A VC whose previous packet's tail has been sent becomes free
// again once all its credits have returned (the downstream buffer drained),
// which prevents a new header from arriving behind a still-buffered tail.
func (l *outLink) allocVC(c Class, n *Network) int {
	lo, hi := n.classVCRange(c)
	for v := lo; v < hi; v++ {
		if l.busy[v] && l.tailSent[v] && l.credits[v] == n.bufDepth {
			l.busy[v] = false
			l.tailSent[v] = false
		}
		if !l.busy[v] {
			l.busy[v] = true
			return v
		}
	}
	return -1
}

// saCandidate is one (port, vc) pair competing for an output port.
type saCandidate struct {
	port Port
	vc   int
	prio int
}

// switchAlloc runs the SA+ST stages: for every output port, pick up to
// `width` winners among ready flits and move them across the link.
func (r *Router) switchAlloc(now uint64) {
	if r.saReady == 0 {
		return
	}
	// The candidate lists live on the router and are re-sliced to length zero
	// each cycle: after warmup the backing arrays reach steady-state capacity
	// and the SA stage allocates nothing (saCandidate holds no pointers, so
	// the retained arrays pin no packet memory).
	cands := &r.saCands
	for p := range cands {
		cands[p] = cands[p][:0]
	}
	// Ascending bit order is ascending (port, vc) order, the order in which
	// candidates reach Priority.
	nv := r.net.numVCs
	for m := r.saReady; m != 0; m &= m - 1 {
		b := bits.TrailingZeros64(m)
		port, vc := Port(b/nv), b%nv
		st := &r.in[port].vcs[vc]
		// The flit spends at least one cycle in stage 1 (RC/VA) before
		// competing for the switch in stage 2.
		if now < st.head().readyAt+1 {
			continue
		}
		ol := r.out[st.outPort]
		if ol.credits[st.outVC] <= 0 || !ol.usableAt(now) {
			continue
		}
		if st.outPort == PortLocal && !r.net.nics[r.id].canEject(st.pkt.Class) {
			// The node interface is full for this class: hold the flit
			// in the router (backpressure into the network).
			continue
		}
		cands[st.outPort] = append(cands[st.outPort], saCandidate{
			port: port,
			vc:   vc,
			prio: r.net.priority(r.id, st.pkt, now),
		})
	}
	for port := Port(0); port < NumPorts; port++ {
		ol := r.out[port]
		if ol == nil || len(cands[port]) == 0 {
			continue
		}
		list := cands[port]
		for slot := 0; slot < ol.width && len(list) > 0; slot++ {
			win := pickWinner(list, ol.rr, r.numVCs())
			c := list[win]
			ol.rr = int(c.port)*r.numVCs() + c.vc + 1
			r.forward(c.port, c.vc, ol, now)
			// On wide TSBs a second flit of the same packet may be combined
			// into this cycle (the XShare-style 2x128b transfer of Section
			// 3.4); keep the VC in the list while it still has a ready flit.
			st := &r.in[c.port].vcs[c.vc]
			if st.pkt != nil && st.outVC >= 0 && !st.empty() &&
				now >= st.head().readyAt+1 && ol.credits[st.outVC] > 0 {
				list[win] = c
			} else {
				list = append(list[:win], list[win+1:]...)
			}
		}
	}
}

// pickWinner selects the candidate with the lowest priority value, breaking
// ties round-robin starting from pointer rr (an index into the port*vc
// space).
func pickWinner(list []saCandidate, rr, numVCs int) int {
	best := -1
	bestPrio := 0
	bestDist := 0
	total := int(NumPorts) * numVCs
	for i, c := range list {
		idx := int(c.port)*numVCs + c.vc
		dist := (idx - rr + total) % total
		if best == -1 || c.prio < bestPrio || (c.prio == bestPrio && dist < bestDist) {
			best, bestPrio, bestDist = i, c.prio, dist
		}
	}
	return best
}

// forward is the phase-A half of a switch grant: it moves the head flit of
// (port, vc) out of this router's input buffer, charges this router's own
// output-link credit, and logs the grant for commitOps. Switch traversal is
// this cycle, link traversal next, arrival the cycle after (HopLatency total
// per hop including the stage-1 cycle).
//
// Everything mutated here belongs to the granting router — its input VC
// state and its own outLink — so no router's phase A observes another
// router's same-cycle grants. The cross-router effects (upstream credit
// return, downstream buffering, prioritizer charge, traversal stats) are
// deferred into r.ops and applied by commitOps after every router's phase A
// has finished, so every decision reads the frozen cycle-N state.
func (r *Router) forward(port Port, vc int, ol *outLink, now uint64) {
	ip := r.in[port]
	st := &ip.vcs[vc]
	f := st.pop()
	r.bufferedFlits--
	outVC := st.outVC

	ol.credits[outVC]--

	if f.Tail {
		// Tail releases this input VC immediately; the downstream VC
		// ownership is released lazily once its buffer drains (see allocVC).
		ol.tailSent[outVC] = true
		st.pkt = nil
		st.outVC = -1
	}
	if f.Tail || st.empty() {
		r.saReady &^= r.vcBit(port, vc)
	}

	f.readyAt = now + 2 // ST this cycle, link next; available downstream after
	r.ops = append(r.ops, fwdOp{f: f, feeder: ip.feeder, ol: ol, fvc: int32(vc), outVC: int32(outVC)})
}

// commitOps applies the cross-router half of this router's phase-A grants:
// credits returned upstream, prioritizer busy-table charges, traversal
// statistics, and the flit handoff into the downstream router (or the local
// NIC). The network calls it for every ticked router in ascending node
// order, so the commit sequence — and with it every Prioritizer callback,
// observer event and statistics update — is fixed.
func (r *Router) commitOps(now uint64) {
	n := r.net
	for i := range r.ops {
		op := &r.ops[i]
		if op.feeder != nil {
			op.feeder.credits[op.fvc]++
		}
		if op.f.IsHead() {
			op.f.Pkt.Hops++
			if pr := n.prioritizer; pr != nil {
				pr.OnForward(r.id, op.f.Pkt, now)
			}
			if o := n.obs; o != nil {
				o.HeaderGranted(r.id, op.ol.srcPort, op.f.Pkt, now)
			}
		}
		n.countTraversal(op.ol)
		if op.ol.dst == nil {
			n.nics[r.id].receive(op.f, now+2)
			// The NIC sinks ejected flits unconditionally; return the credit.
			op.ol.credits[op.outVC]++
		} else {
			op.ol.dst.acceptFlit(op.ol.dstPort, int(op.outVC), op.f, now)
		}
	}
	if len(r.ops) > 0 {
		n.lastMove = now
		r.ops = r.ops[:0]
	}
}

// occupancy returns the used and total flit-buffer slots of the router, the
// raw material for the RCA congestion estimate. Both come from counters — the
// RCA estimator polls every router every cycle, so this must not walk the VC
// states.
func (r *Router) occupancy() (used, capacity int) {
	return r.bufferedFlits, r.bufCap
}

// ForEachBufferedPacket invokes fn once per packet currently occupying one of
// the router's input VCs (the header may already be partially forwarded for
// in-flight wormholes; such packets are still reported). Used by the
// characterization experiments (Figure 3, Figure 13).
func (r *Router) ForEachBufferedPacket(fn func(*Packet)) {
	for port := Port(0); port < NumPorts; port++ {
		ip := r.in[port]
		if ip == nil {
			continue
		}
		for vc := range ip.vcs {
			if p := ip.vcs[vc].pkt; p != nil && !ip.vcs[vc].empty() {
				fn(p)
			}
		}
	}
}
