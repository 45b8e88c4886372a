package noc

import (
	"fmt"
	"math/bits"
)

// CheckInvariants audits the network's internal consistency and returns the
// first violation found, or nil. It verifies, for every router and link:
//
//   - credit conservation: the upstream credit count plus the flits buffered
//     in the downstream VC equals the buffer depth;
//   - VC ownership: a VC holding flits belongs to exactly one packet, a VC
//     awaiting allocation has its header at the head, a free VC holds no
//     flits, and the VCs of a port the router lacks stay idle;
//   - head readiness: a non-empty VC's cached headReady equals its head
//     flit's readyAt;
//   - occupancy counter: the router's buffered-flit count agrees with the
//     actual buffer contents;
//   - allocation masks: every vaWait and saReady bit agrees with the state
//     of its VC (see Router);
//   - downstream VC masks: on every link, busy and tailSent name only VCs
//     that exist, tailSent ⊆ busy, and no VC whose tail has been sent and
//     whose credits have all returned is still busy (see outLink).
//
// The simulator's tests call this after traffic storms; it is cheap enough
// to call every few thousand cycles in long soak runs.
func (n *Network) CheckInvariants() error {
	nv := n.numVCs
	for id := NodeID(0); int(id) < n.numNodes; id++ {
		r := n.routers[id]
		buffered := 0
		var vaWait, saReady uint64
		for b := range r.vcs {
			st := &r.vcs[b]
			port, vc := Port(b/nv), b%nv
			feeder := r.feeder[port]
			if feeder == nil {
				if st.pkt != nil || st.n != 0 {
					return fmt.Errorf("noc: router %d has no %s port, yet its vc %d is in use", id, port, vc)
				}
				continue
			}
			buffered += int(st.n)
			if st.pkt != nil && st.outVC < 0 {
				vaWait |= 1 << uint(b)
			}
			if st.pkt != nil && st.outVC >= 0 && st.n > 0 {
				saReady |= 1 << uint(b)
			}
			if st.pkt == nil && st.n > 0 {
				return fmt.Errorf("noc: router %d port %s vc %d holds %d flits with no owner",
					id, port, vc, st.n)
			}
			for i := 0; i < int(st.n); i++ {
				if r.flit(st, i).Pkt != st.pkt {
					return fmt.Errorf("noc: router %d port %s vc %d has interleaved packets",
						id, port, vc)
				}
			}
			// Credit conservation against the feeder.
			if got := feeder.credits[vc] + int(st.n); got != n.bufDepth {
				return fmt.Errorf("noc: router %d port %s vc %d credits+buffered = %d, want %d",
					id, port, vc, got, n.bufDepth)
			}
			if feeder.credits[vc] < 0 {
				return fmt.Errorf("noc: router %d port %s vc %d negative credits", id, port, vc)
			}
			if st.pkt != nil && st.outVC < 0 && (st.n == 0 || !r.flit(st, 0).IsHead()) {
				return fmt.Errorf("noc: router %d port %s vc %d awaits VC allocation without its header at the head",
					id, port, vc)
			}
			if st.n > 0 && st.headReady != r.flit(st, 0).readyAt {
				return fmt.Errorf("noc: router %d port %s vc %d headReady is %d, head flit is ready at %d",
					id, port, vc, st.headReady, r.flit(st, 0).readyAt)
			}
		}
		if buffered != r.bufferedFlits {
			return fmt.Errorf("noc: router %d counter says %d buffered flits, found %d",
				id, r.bufferedFlits, buffered)
		}
		if err := r.maskDrift("vaWait", "header awaiting allocation", r.vaWait, vaWait); err != nil {
			return err
		}
		if err := r.maskDrift("saReady", "allocated VC with flits to send", r.saReady, saReady); err != nil {
			return err
		}
		for p, ol := range r.out {
			if ol == nil {
				continue
			}
			if why := ol.maskViolation(n); why != "" {
				return fmt.Errorf("noc: router %d output %s: %s", id, Port(p), why)
			}
		}
		if why := n.nics[id].inj.maskViolation(n); why != "" {
			return fmt.Errorf("noc: nic %d injection link: %s", id, why)
		}
	}
	return nil
}

// maskViolation describes how the link's busy/tailSent masks break their
// invariant, or returns "".
func (l *outLink) maskViolation(n *Network) string {
	if extra := (l.busy | l.tailSent) >> uint(n.numVCs); extra != 0 {
		return fmt.Sprintf("VC mask busy %#x tailSent %#x has bits at or above VC %d", l.busy, l.tailSent, n.numVCs)
	}
	if stray := l.tailSent &^ l.busy; stray != 0 {
		return fmt.Sprintf("VC mask tailSent has vc %d, which is not busy", bits.TrailingZeros64(stray))
	}
	for m := l.tailSent; m != 0; m &= m - 1 {
		if v := bits.TrailingZeros64(m); l.credits[v] == n.bufDepth {
			return fmt.Sprintf("VC mask keeps vc %d busy after its tail was sent and every credit returned", v)
		}
	}
	return ""
}

// maskDrift reports the lowest bit at which a router's allocation mask (got)
// disagrees with the one rebuilt from its VC states (want), or nil.
func (r *Router) maskDrift(name, meaning string, got, want uint64) error {
	diff := got ^ want
	if diff == 0 {
		return nil
	}
	b := bits.TrailingZeros64(diff)
	nv := r.net.numVCs
	return fmt.Errorf("noc: router %d %s mask bit %d (port %s vc %d) is %t, want %t (%s)",
		r.id, name, b, Port(b/nv), b%nv, got&(1<<uint(b)) != 0, want&(1<<uint(b)) != 0, meaning)
}
