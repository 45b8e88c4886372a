package noc

// PacketPool is a free list of Packet objects for allocation-free steady
// state: the cycle loop churns through thousands of short-lived packets per
// simulated millisecond, and without pooling every one is a garbage-collected
// heap object. The pool is strictly single-threaded (like the simulator) and
// LIFO, so reuse order is deterministic and runs stay bit-for-bit
// reproducible.
//
// Ownership contract: the component that creates a packet obtains it with
// Get; whoever terminally consumes it (in the full simulator, the delivery
// sinks wired by internal/sim) returns it with Put. Packets built with plain
// &Packet{} literals — tests, examples, direct network users — are ignored by
// Put, so pooled and unpooled packets can mix freely.
type PacketPool struct {
	free []*Packet

	// Allocated counts pool misses (packets newly heap-allocated because the
	// free list was empty). After warmup this should stop growing: the
	// steady-state working set recirculates through the free list.
	Allocated uint64
}

// NewPacketPool returns an empty pool.
func NewPacketPool() *PacketPool { return &PacketPool{} }

// Get returns a zeroed packet owned by the pool.
func (pp *PacketPool) Get() *Packet {
	if n := len(pp.free); n > 0 {
		p := pp.free[n-1]
		pp.free = pp.free[:n-1]
		*p = Packet{pooled: true}
		return p
	}
	pp.Allocated++
	return &Packet{pooled: true}
}

// NewFrom returns a pool-owned packet initialized from tmpl. It exists so
// call sites can keep composite-literal style (`pool.NewFrom(Packet{...})`)
// without clobbering the pool-ownership flag.
func (pp *PacketPool) NewFrom(tmpl Packet) *Packet {
	p := pp.Get()
	tmpl.pooled = true
	*p = tmpl
	return p
}

// Put returns a packet to the free list. Packets not obtained from a pool
// (or already returned) are left alone, so a sink can unconditionally Put
// everything it terminally consumes.
func (pp *PacketPool) Put(p *Packet) {
	if p == nil || !p.pooled {
		return
	}
	p.pooled = false // double-Put protection
	pp.free = append(pp.free, p)
}
