package core

import (
	"sttsim/internal/noc"
)

// Priority levels returned by the bank-aware arbiter. Idle-bank requests,
// coherence traffic, memory-controller traffic and anything destined more
// than H hops away share the top level; requests to busy child banks are
// held in the router buffers until the bank is predicted free (the paper's
// counter-and-busy-bit delay of Section 3.5). Holds expire by construction:
// busyUntil is finite and only advances when requests are forwarded.
const (
	PriorityNormal  = 0
	PriorityDemoted = 1
	PriorityHeld    = noc.PriorityHold
)

// HoldCap bounds how far ahead of a bank's predicted idle time a request is
// hard-held in the router (roughly one write service). Requests even further
// out are merely demoted — they lose arbitration to idle-bank traffic but
// still flow when the switch is otherwise idle, so a long same-bank write
// train cannot pin the parent's VCs for hundreds of cycles.
const HoldCap = 40

// ArbiterStats counts the arbiter's decisions.
type ArbiterStats struct {
	DelayDecisions  uint64 // times a request was classified as delayed
	ForwardedReads  uint64 // demand reads forwarded by a parent
	ForwardedWrites uint64 // demand writes forwarded by a parent
}

// BankAwareArbiter is the paper's STT-RAM-aware arbitration policy
// (Sections 3.1-3.5), implemented as a noc.Prioritizer. At each parent
// router it tracks when each child bank will become idle — charged when a
// request's header is forwarded — and demotes requests that would arrive
// while the bank is still busy with a long write.
type BankAwareArbiter struct {
	pm  *ParentMap
	est Estimator
	net *noc.Network // optional: router occupancy for hold gating

	readCycles  uint64 // bank read service time (3)
	writeCycles uint64 // bank write service time (33 on STT-RAM)
	hopBase     uint64 // router+link latency for H hops (2 cycles per hop)
	holdCap     int64  // hard-hold window; <0 disables holds

	busyUntil []uint64 // per child bank
	childWC   []uint64 // per-child write service override (hybrid)
	stats     ArbiterStats
}

// NewBankAwareArbiter builds the policy for the given parent map, estimator,
// and bank service times. Following Section 3.5, the base network latency to
// a child is 2 cycles of router delay plus 1 cycle of link per hop minus the
// overlap the paper assumes — 4 cycles at H=2 ("4 cycles + estimated
// congestion cycles + write service time").
func NewBankAwareArbiter(pm *ParentMap, est Estimator, readCycles, writeCycles uint64) *BankAwareArbiter {
	return &BankAwareArbiter{
		pm:          pm,
		est:         est,
		readCycles:  readCycles,
		writeCycles: writeCycles,
		hopBase:     uint64(2 * pm.Hops()),
		holdCap:     HoldCap,
		busyUntil:   make([]uint64, pm.Topology().NumNodes()),
		childWC:     make([]uint64, pm.Topology().NumNodes()),
	}
}

// SetHoldCap overrides the hard-hold window (cycles); a negative value
// disables holds so delayed requests are only demoted.
func (a *BankAwareArbiter) SetHoldCap(cap int) { a.holdCap = int64(cap) }

// SetChildWriteCycles overrides one child bank's write service time in the
// busy estimate — used for hybrid SRAM/STT-RAM cache layers where some
// banks complete writes at SRAM speed.
func (a *BankAwareArbiter) SetChildWriteCycles(child noc.NodeID, cycles uint64) {
	if child >= 0 && int(child) < len(a.childWC) {
		a.childWC[child] = cycles
	}
}

// writeCyclesFor returns the write service time used for child d.
func (a *BankAwareArbiter) writeCyclesFor(d noc.NodeID) uint64 {
	if a.childWC[d] != 0 {
		return a.childWC[d]
	}
	return a.writeCycles
}

// Estimator returns the congestion estimator in use.
func (a *BankAwareArbiter) Estimator() Estimator { return a.est }

// AttachNetwork lets the arbiter observe router occupancy: a parent only
// hard-holds writes while it has buffer headroom, falling back to demotion
// under pressure so held trains cannot pin the VCs other flows need.
func (a *BankAwareArbiter) AttachNetwork(n *noc.Network) { a.net = n }

// holdHeadroomFlits is the parent-buffer occupancy above which holds degrade
// to demotion (about one port's worth of flits).
const holdHeadroomFlits = 10

// Stats returns a copy of the decision counters.
func (a *BankAwareArbiter) Stats() ArbiterStats { return a.stats }

// BusyUntil returns the predicted idle time of child bank d.
func (a *BankAwareArbiter) BusyUntil(d noc.NodeID) uint64 { return a.busyUntil[d] }

// isManagedRequest reports whether p is a demand request whose parent is at.
func (a *BankAwareArbiter) isManagedRequest(at noc.NodeID, p *noc.Packet) bool {
	if p.Kind != noc.KindReadReq && p.Kind != noc.KindWriteReq {
		return false
	}
	return a.pm.ParentOf(p.Dst) == at
}

// Priority implements noc.Prioritizer: demote a managed request if it would
// arrive at its child bank before the bank finishes its current (predicted)
// service.
func (a *BankAwareArbiter) Priority(at noc.NodeID, p *noc.Packet, now uint64) int {
	if !a.isManagedRequest(at, p) {
		return PriorityNormal
	}
	eta := now + a.hopBase + a.est.Congestion(at, p.Dst, now)
	busy := a.busyUntil[p.Dst]
	if eta >= busy {
		return PriorityNormal
	}
	a.stats.DelayDecisions++
	if p.Kind == noc.KindReadReq {
		// Reads into a write-busy bank's shadow are merely demoted: they
		// overtake the delayed writes but still yield to idle-bank traffic.
		// (Section 4.2: "read packets are prioritized over write packets"
		// when the destination bank is busy serving writes.)
		return PriorityDemoted
	}
	if a.holdCap >= 0 && int64(busy-eta) <= a.holdCap {
		if a.net != nil {
			if used, _ := a.net.Occupancy(at); used > holdHeadroomFlits {
				return PriorityDemoted
			}
		}
		return PriorityHeld
	}
	return PriorityDemoted
}

// OnForward implements noc.Prioritizer: when a parent forwards a managed
// request's header it charges the child's busy table — the bank will start
// this access once the packet lands (base + congestion cycles away) or when
// its current service ends, whichever is later — and applies WB tagging.
func (a *BankAwareArbiter) OnForward(at noc.NodeID, p *noc.Packet, now uint64) {
	if !a.isManagedRequest(at, p) {
		return
	}
	cong := a.est.Congestion(at, p.Dst, now)
	start := now + a.hopBase + cong
	if a.busyUntil[p.Dst] > start {
		start = a.busyUntil[p.Dst]
	}
	service := a.readCycles
	if p.Kind == noc.KindWriteReq || p.IsBankWrite {
		service = a.writeCyclesFor(p.Dst)
		a.stats.ForwardedWrites++
	} else {
		a.stats.ForwardedReads++
	}
	a.busyUntil[p.Dst] = start + service
	if wb, ok := a.est.(*WBEstimator); ok {
		wb.MaybeTag(at, p, now)
	}
}
