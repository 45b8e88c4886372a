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

// vcState is one virtual channel of one input port. Its flits live in a
// bufDepth-slot ring inside the owning router's slab: slot i of the ring is
// slab[off+i], the head is slot hd and n slots are in use, so push and pop
// are index arithmetic. headReady caches the head flit's readyAt (valid while
// n > 0), so the allocators test readiness without touching the slab. hd and
// n are bytes, which is why NewNetwork caps bufDepth at 255; the struct is 32
// bytes.
type vcState struct {
	pkt       *Packet // packet currently holding this VC (nil when idle)
	headReady uint64  // readyAt of the head flit (valid while n > 0)
	outPort   Port    // route computed from the header (valid when pkt != nil)
	off       int32   // slab index of the ring's slot 0
	hd, n     uint8   // ring head slot and buffered flit count
	outVC     int8    // downstream VC granted by VA; -1 until allocated
}

// outLink is one output port and the link it drives, including the
// credit/allocation state of the downstream input port's VCs.
type outLink struct {
	srcPort Port
	dst     *Router // nil for the local ejection port
	dstPort Port
	width   int // flits per cycle (2 for the 256-bit region TSBs)
	isTSV   bool

	credits [maxPortVCs]int // free buffer slots per downstream VC
	// Downstream VC masks, bit v for VC v. busy: owned by a packet. tailSent:
	// the owner's tail has been forwarded. returnCredit frees a VC (clears
	// both bits) as soon as its tail has been sent and its last credit is
	// back, so busy is exactly the set allocVC may not grant.
	busy     uint64
	tailSent uint64
	rr       int // SA round-robin pointer

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

// returnCredit hands back one buffer slot of downstream VC v. The VC frees
// once its previous packet's tail has been sent and every credit has
// returned (the downstream buffer drained), which prevents a new header from
// arriving behind a still-buffered tail.
func (l *outLink) returnCredit(v int8, depth int) {
	l.credits[v]++
	if bit := uint64(1) << uint(v); l.tailSent&bit != 0 && l.credits[v] == depth {
		l.busy &^= bit
		l.tailSent &^= bit
	}
}

// allocVC claims the lowest free downstream VC in the given class, returning
// its index or -1.
func (l *outLink) allocVC(c Class, n *Network) int8 {
	free := n.classMask[c] &^ l.busy
	if free == 0 {
		return -1
	}
	v := bits.TrailingZeros64(free)
	l.busy |= 1 << uint(v)
	return int8(v)
}

// fwdOp is one switch grant decided in phase A of the two-phase tick. All of
// its effects land outside the granting router — a credit returned upstream,
// a flit buffered downstream (or ejected into the local NIC), the
// prioritizer's busy-table charge — so they are deferred here and applied by
// commitOps in ascending router order, keeping phase A free of cross-router
// writes (DESIGN.md §18).
type fwdOp struct {
	f      Flit     // the granted flit, readyAt already stamped
	feeder *outLink // upstream link owed a credit
	ol     *outLink // output link traversed
	fvc    int8     // input VC to credit upstream
	outVC  int8     // downstream VC the flit lands in
}

// Router is one 2-stage wormhole router.
type Router struct {
	id  NodeID
	net *Network
	va  int // VA round-robin pointer over input VCs, in [0, NumPorts*numVCs)

	// vcs holds every input VC, indexed by its mask bit port*numVCs+vc.
	// Entries of ports the router lacks stay idle forever; only present
	// ports get ring slots in slab, bufDepth flits per VC.
	vcs   []vcState
	slab  []Flit
	depth int // bufDepth, cached for the ring arithmetic

	// feeder[p] is the upstream link driving input port p (the NIC's
	// injection link for PortLocal), the target of its credit returns; nil
	// means the router has no port p.
	feeder [NumPorts]*outLink
	out    [NumPorts]*outLink

	// Fast-path occupancy counter so idle routers cost almost nothing.
	bufferedFlits int // flits across all input VCs

	// Input-VC bitmasks, bit port*numVCs+vc (NewNetwork bounds the product
	// at 64), so the allocators walk only the VCs that can compete:
	//   vaWait  ⇔ pkt != nil && outVC < 0 (a header awaiting VA)
	//   saReady ⇔ pkt != nil && outVC >= 0 && n > 0
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

// vc returns the state of input VC (port, vc).
func (r *Router) vc(port Port, vc int) *vcState {
	return &r.vcs[int(port)*r.net.numVCs+vc]
}

// push appends f to the ring of st. It does not check for overflow: the
// credit protocol bounds every ring at depth flits, and acceptFlit panics
// before a violating push.
func (r *Router) push(st *vcState, f Flit) {
	i := int(st.hd) + int(st.n)
	if i >= r.depth {
		i -= r.depth
	}
	r.slab[int(st.off)+i] = f
	if st.n == 0 {
		st.headReady = f.readyAt
	}
	st.n++
}

// pop removes and returns the head flit of st's non-empty ring, advancing
// headReady to the new head.
func (r *Router) pop(st *vcState) Flit {
	f := r.slab[int(st.off)+int(st.hd)]
	st.hd++
	if int(st.hd) == r.depth {
		st.hd = 0
	}
	st.n--
	if st.n > 0 {
		st.headReady = r.slab[int(st.off)+int(st.hd)].readyAt
	}
	return f
}

// flit returns the i-th buffered flit of st (0 is the head), for the cold
// audit path.
func (r *Router) flit(st *vcState, i int) *Flit {
	return &r.slab[int(st.off)+(int(st.hd)+i)%r.depth]
}

// acceptFlit buffers a flit arriving on (port, vc) and marks the router
// active. The header flit claims the VC and has its route computed (the RC
// stage).
func (r *Router) acceptFlit(port Port, vc int, f Flit, now uint64) {
	b := int(port)*r.net.numVCs + vc
	st := &r.vcs[b]
	if int(st.n) >= r.depth {
		panic(fmt.Sprintf("noc: buffer overflow at router %d port %s vc %d (credit protocol violated)", r.id, port, vc))
	}
	if f.IsHead() {
		if st.pkt != nil {
			panic(fmt.Sprintf("noc: VC %d:%s:%d already owned when header of packet %d arrived", r.id, port, vc, f.Pkt.ID))
		}
		st.pkt = f.Pkt
		st.outPort = r.net.routing.NextPort(r.id, f.Pkt)
		st.outVC = -1
		r.vaWait |= 1 << uint(b)
		if o := r.net.obs; o != nil {
			o.HeaderEnqueued(r.id, f.Pkt, now)
		}
	}
	if st.outVC >= 0 {
		r.saReady |= 1 << uint(b)
	}
	r.push(st, f)
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
	below := uint64(1)<<uint(r.va) - 1
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
		r.vaWalk(pass, m&^below, now)
		r.vaWalk(pass, m&below, now)
	}
	if r.va++; r.va == len(r.vcs) {
		r.va = 0
	}
}

// vaWalk attempts VC allocation for the input VCs of mask m, in ascending
// bit order, during the given pass; vcAlloc defines the pass semantics. A
// VC's bit in vaWait means its head flit is the packet's header.
func (r *Router) vaWalk(pass int, m uint64, now uint64) {
	for ; m != 0; m &= m - 1 {
		b := bits.TrailingZeros64(m)
		st := &r.vcs[b]
		if now < st.headReady {
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

// saCandidate is one input VC (by mask bit) competing for an output port.
type saCandidate struct {
	b    int
	prio int
}

// switchAlloc runs the SA+ST stages: for every output port, pick up to
// `width` winners among ready flits and move them across the link.
func (r *Router) switchAlloc(now uint64) {
	if r.saReady == 0 {
		return
	}
	// The candidate lists live on the router and are left at length zero
	// after each use: after warmup the backing arrays reach steady-state
	// capacity and the SA stage allocates nothing (saCandidate holds no
	// pointers, so the retained arrays pin no packet memory). ports records
	// which lists are non-empty.
	cands := &r.saCands
	var ports uint8
	// Ascending bit order is ascending (port, vc) order, the order in which
	// candidates reach Priority.
	for m := r.saReady; m != 0; m &= m - 1 {
		b := bits.TrailingZeros64(m)
		st := &r.vcs[b]
		// The flit spends at least one cycle in stage 1 (RC/VA) before
		// competing for the switch in stage 2.
		if now <= st.headReady {
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
			b:    b,
			prio: r.net.priority(r.id, st.pkt, now),
		})
		ports |= 1 << uint(st.outPort)
	}
	for ; ports != 0; ports &= ports - 1 {
		port := bits.TrailingZeros8(ports)
		ol := r.out[port]
		list := cands[port]
		for slot := 0; slot < ol.width && len(list) > 0; slot++ {
			win := pickWinner(list, ol.rr, len(r.vcs))
			c := list[win]
			ol.rr = c.b + 1
			r.forward(c.b, ol, now)
			// On wide TSBs a second flit of the same packet may be combined
			// into this cycle (the XShare-style 2x128b transfer of Section
			// 3.4); keep the VC in the list while it still has a ready flit.
			st := &r.vcs[c.b]
			if r.saReady&(1<<uint(c.b)) != 0 && now > st.headReady && ol.credits[st.outVC] > 0 {
				list[win] = c
			} else {
				list = append(list[:win], list[win+1:]...)
			}
		}
		cands[port] = list[:0]
	}
}

// pickWinner selects the candidate with the lowest priority value, breaking
// ties round-robin starting from pointer rr, a mask bit in [0, total].
func pickWinner(list []saCandidate, rr, total int) int {
	best := -1
	bestPrio := 0
	bestDist := 0
	for i, c := range list {
		dist := c.b - rr
		if dist < 0 {
			dist += total
		}
		if best == -1 || c.prio < bestPrio || (c.prio == bestPrio && dist < bestDist) {
			best, bestPrio, bestDist = i, c.prio, dist
		}
	}
	return best
}

// forward is the phase-A half of a switch grant: it moves the head flit of
// input VC b out of this router's input buffer, charges this router's own
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
func (r *Router) forward(b int, ol *outLink, now uint64) {
	st := &r.vcs[b]
	f := r.pop(st)
	r.bufferedFlits--
	outVC := st.outVC

	ol.credits[outVC]--

	if f.Tail {
		// Tail releases this input VC immediately; the downstream VC frees
		// once its buffer drains (see returnCredit).
		ol.tailSent |= 1 << uint(outVC)
		st.pkt = nil
		st.outVC = -1
	}
	if f.Tail || st.n == 0 {
		r.saReady &^= 1 << uint(b)
	}

	f.readyAt = now + 2 // ST this cycle, link next; available downstream after
	nv := r.net.numVCs
	r.ops = append(r.ops, fwdOp{f: f, feeder: r.feeder[b/nv], ol: ol, fvc: int8(b % nv), outVC: outVC})
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
		op.feeder.returnCredit(op.fvc, r.depth)
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
			op.ol.returnCredit(op.outVC, r.depth)
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
// raw material for the RCA congestion estimate. The RCA estimator polls
// every router every cycle, so this must not walk the VC states: used is a
// counter and the capacity is the slab size.
func (r *Router) occupancy() (used, capacity int) {
	return r.bufferedFlits, len(r.slab)
}

// ForEachBufferedPacket invokes fn once per packet currently occupying one of
// the router's input VCs (the header may already be partially forwarded for
// in-flight wormholes; such packets are still reported), in ascending (port,
// vc) order. Used by the characterization experiments (Figure 3, Figure 13).
func (r *Router) ForEachBufferedPacket(fn func(*Packet)) {
	for b := range r.vcs {
		if st := &r.vcs[b]; st.pkt != nil && st.n > 0 {
			fn(st.pkt)
		}
	}
}
