package noc

import (
	"fmt"
	"math/bits"
)

// CheckInvariants audits the network's internal consistency and returns the
// first violation found, or nil. It verifies, for every link:
//
//   - credit conservation: the upstream credit count plus the flits buffered
//     in the downstream VC equals the buffer depth;
//   - VC ownership: a VC holding flits belongs to exactly one packet, its
//     header is first (when present), and a free VC holds no flits;
//   - occupancy counter: the router's buffered-flit count agrees with the
//     actual buffer contents;
//   - allocation masks: every vaWait and saReady bit agrees with the state
//     of its VC (see Router).
//
// The simulator's tests call this after traffic storms; it is cheap enough
// to call every few thousand cycles in long soak runs.
func (n *Network) CheckInvariants() error {
	for id := NodeID(0); int(id) < n.numNodes; id++ {
		r := n.routers[id]
		buffered := 0
		var vaWait, saReady uint64
		for port := Port(0); port < NumPorts; port++ {
			ip := r.in[port]
			if ip == nil {
				continue
			}
			for vc := range ip.vcs {
				st := &ip.vcs[vc]
				buffered += len(st.buf)
				if st.pkt != nil && st.outVC < 0 {
					vaWait |= r.vcBit(port, vc)
				}
				if st.pkt != nil && st.outVC >= 0 && len(st.buf) > 0 {
					saReady |= r.vcBit(port, vc)
				}
				if st.pkt == nil && len(st.buf) > 0 {
					return fmt.Errorf("noc: router %d port %s vc %d holds %d flits with no owner",
						id, port, vc, len(st.buf))
				}
				for i := range st.buf {
					if st.buf[i].Pkt != st.pkt {
						return fmt.Errorf("noc: router %d port %s vc %d has interleaved packets",
							id, port, vc)
					}
				}
				// Credit conservation against the feeder.
				if ip.feeder != nil {
					if got := ip.feeder.credits[vc] + len(st.buf); got != n.bufDepth {
						return fmt.Errorf("noc: router %d port %s vc %d credits+buffered = %d, want %d",
							id, port, vc, got, n.bufDepth)
					}
					if ip.feeder.credits[vc] < 0 {
						return fmt.Errorf("noc: router %d port %s vc %d negative credits", id, port, vc)
					}
				}
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
	}
	return nil
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
