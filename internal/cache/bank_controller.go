package cache

import (
	"fmt"

	"sttsim/internal/mem"
	"sttsim/internal/noc"
	"sttsim/internal/obs"
	"sttsim/internal/stats"
)

// MaxMSHRs is the per-bank miss-status-holding-register count (Table 1).
const MaxMSHRs = 32

// line is one tag-array entry with its directory state.
type line struct {
	tag     uint64 // line address
	valid   bool
	dirty   bool
	sharers uint64 // presence bit per core (directory vector)
	lastUse uint64 // LRU timestamp
}

// mshr tracks one outstanding miss and the requesters merged onto it.
type mshr struct {
	lineAddr uint64
	waiters  []waiter
}

type waiter struct {
	core int
	src  noc.NodeID
	// pktID is the merged request's network packet ID, echoed on the response
	// so the event trace can stitch the round trip (internal/obs).
	pktID uint64
	// queueDelay accumulated before the miss was discovered (the initial tag
	// probe's controller-queue wait), reported on the eventual response.
	queueDelay uint64
	// injected is the cycle the original request entered the network,
	// echoed on the response for end-to-end latency accounting.
	injected uint64
}

// accessKind distinguishes the operations a bank serves.
type accessKind uint8

const (
	accRead accessKind = iota
	accWrite
	accFill
)

// reqMeta is the protocol context attached to an in-flight mem.Request.
type reqMeta struct {
	kind     accessKind
	core     int
	src      noc.NodeID
	addr     uint64
	injected uint64 // original request's network injection cycle
	pktID    uint64 // original request's network packet ID (internal/obs)

	// Write-failure retry state (fault injection): attempts already failed,
	// and the queue delay accumulated across them (reported on the final ack).
	retries    int
	queueDelay uint64
}

// Stats aggregates a bank controller's protocol activity.
type Stats struct {
	ReadHits    uint64
	ReadMisses  uint64
	WriteHits   uint64
	WriteMisses uint64
	Fills       uint64
	Evictions   uint64
	Writebacks  uint64 // dirty evictions sent to memory
	InvSent     uint64
	InvAcksRecv uint64
	MSHRMerges  uint64
	MSHRStalls  uint64 // misses that had to wait for a free MSHR

	// Stochastic write-failure handling (fault injection; all zero when the
	// fault layer is off).
	WriteFaults      uint64 // array writes the error model failed
	WriteRetries     uint64 // failed writes re-pulsed after backoff
	RetriesExhausted uint64 // writes abandoned after MaxWriteRetries failures
	LinesInvalidated uint64 // resident lines dropped by the invalidate fallback
	FillsDropped     uint64 // fill installs abandoned (data was already forwarded)
}

// BankController is one L2 bank: the protocol brain wrapped around a
// mem.Bank's timing model. Packets arrive via HandlePacket (wired to the
// node's NIC); outbound packets accumulate in an outbox the simulator drains
// into the network each cycle.
type BankController struct {
	node noc.NodeID
	am   *AddrMap
	bank *mem.Bank

	numSets int
	lines   []line // tag array, one slab of numSets*Associativity ways

	mshrs    map[uint64]*mshr
	mshrWait []pendingMiss // misses waiting for a free MSHR
	// fillSharers carries waiters' directory bits from the forwarded
	// response to the background array write that installs the line.
	fillSharers map[uint64]uint64

	meta   map[uint64]reqMeta
	nextID uint64

	outbox []*noc.Packet
	stats  Stats

	// Steady-state allocation elimination: outbound packets come from the
	// simulator's pool when one is installed, finished mem.Requests and
	// released MSHRs recirculate through free lists, and the bank writes its
	// completions into a reused scratch value.
	pool     *noc.PacketPool
	reqFree  []*mem.Request
	mshrFree []*mshr
	comp     mem.Completion

	// Figure 3 instrumentation: distribution of access arrivals relative to
	// the most recent preceding write request to this bank.
	gapHist   *stats.Histogram
	lastWrite uint64
	sawWrite  bool

	// Stochastic STT-RAM write-failure injection (nil when disabled): failed
	// array writes are retried after a backoff, then fall back to invalidating
	// the line so the bank never wedges on a bad cell.
	faults       WriteFaultInjector
	maxRetries   int
	retryBackoff uint64
	retryQ       []retryEntry

	// tracer records bank access and write-fault events; nil (the default)
	// means disabled, and every call site is nil-safe.
	tracer *obs.Tracer
}

// WriteFaultInjector is the hook through which the fault-injection engine
// (internal/fault) fails individual array writes. Implementations must be
// deterministic for reproducible campaigns.
type WriteFaultInjector interface {
	// WriteFails reports whether this array write at bank (0..63) fails.
	WriteFails(bank int) bool
}

// retryEntry is one failed write waiting out its backoff before re-entering
// the bank queue.
type retryEntry struct {
	readyAt uint64
	op      mem.Op
	m       reqMeta
}

type pendingMiss struct {
	w        waiter
	lineAddr uint64
}

// NewBankController builds the bank at the given cache-layer node of am's
// topology using the supplied timing model (plain or write-buffered, SRAM or
// STT-RAM).
func NewBankController(node noc.NodeID, bank *mem.Bank, am *AddrMap) *BankController {
	if am.Topology().Layer(node) == 0 {
		panic(fmt.Sprintf("cache: bank controller node %d is not in a cache layer", node))
	}
	return &BankController{
		node:        node,
		am:          am,
		bank:        bank,
		numSets:     SetsFor(bank.Tech().CapacityMB),
		lines:       make([]line, SetsFor(bank.Tech().CapacityMB)*Associativity),
		mshrs:       make(map[uint64]*mshr),
		fillSharers: make(map[uint64]uint64),
		meta:        make(map[uint64]reqMeta),
	}
}

// Node returns the controller's cache-layer node.
func (bc *BankController) Node() noc.NodeID { return bc.node }

// Bank exposes the underlying timing model (for busy inspection and stats).
func (bc *BankController) Bank() *mem.Bank { return bc.bank }

// Stats returns a copy of the protocol statistics.
func (bc *BankController) Stats() Stats { return bc.stats }

// Outbox returns packets generated since the last drain and clears the box.
// The returned slice is valid until the controller next emits a packet (its
// backing array is reused); callers drain it before ticking again.
func (bc *BankController) Outbox() []*noc.Packet {
	out := bc.outbox
	bc.outbox = bc.outbox[:0]
	return out
}

// UsePool makes the controller draw its outbound packets from pp (the
// simulator's packet pool); nil (the default) falls back to plain allocations.
func (bc *BankController) UsePool(pp *noc.PacketPool) { bc.pool = pp }

// pkt materializes one outbound packet from tmpl.
func (bc *BankController) pkt(tmpl noc.Packet) *noc.Packet {
	if bc.pool != nil {
		return bc.pool.NewFrom(tmpl)
	}
	p := new(noc.Packet)
	*p = tmpl
	return p
}

// SetTracer installs the observability tracer (nil disables it).
func (bc *BankController) SetTracer(t *obs.Tracer) { bc.tracer = t }

// SetWriteFaults installs the stochastic write-failure model: each completed
// array write consults f; failures are retried up to maxRetries times,
// backoff cycles apart, before the controller invalidates the line.
func (bc *BankController) SetWriteFaults(f WriteFaultInjector, maxRetries int, backoff uint64) {
	bc.faults = f
	bc.maxRetries = maxRetries
	bc.retryBackoff = backoff
}

// bankIndex returns the bank number for the fault model.
func (bc *BankController) bankIndex() int { return bc.am.BankIndex(bc.node) }

// writeFailed consults the fault injector for one completed array write.
func (bc *BankController) writeFailed() bool {
	return bc.faults != nil && bc.faults.WriteFails(bc.bankIndex())
}

// scheduleRetry queues a failed write for a re-pulse after the backoff.
func (bc *BankController) scheduleRetry(now uint64, op mem.Op, m reqMeta) {
	bc.stats.WriteRetries++
	bc.bank.NoteRetriedWrite()
	bc.retryQ = append(bc.retryQ, retryEntry{readyAt: now + bc.retryBackoff, op: op, m: m})
}

// drainRetries re-enqueues retries whose backoff has elapsed (FIFO order).
func (bc *BankController) drainRetries(now uint64) {
	kept := bc.retryQ[:0]
	for _, e := range bc.retryQ {
		if e.readyAt > now {
			kept = append(kept, e)
			continue
		}
		bc.enqueue(e.op, e.m, now)
	}
	bc.retryQ = kept
}

// set returns the ways of the set holding a line address — a window into the
// bank's single tag-array slab (the slab's untouched pages stay unmapped, so
// eager sizing costs no more physical memory than lazy per-set allocation
// did). The index is a hash of the line address above the bank-interleaving
// bits — LLCs commonly hash their index to break power-of-two stride
// pathologies, and our synthetic address-space bases are exactly such
// strides.
func (bc *BankController) set(lineAddr uint64) []line {
	idx := bc.setIndex(lineAddr)
	return bc.lines[idx*Associativity : (idx+1)*Associativity]
}

// setIndex hashes a line address to its set.
func (bc *BankController) setIndex(lineAddr uint64) int {
	v := bc.am.BankInterleave(lineAddr)
	v *= 0x9E3779B97F4A7C15
	v ^= v >> 29
	return int(v % uint64(bc.numSets))
}

// lookup returns the way holding lineAddr, or nil.
func (bc *BankController) lookup(lineAddr uint64) *line {
	set := bc.set(lineAddr)
	for i := range set {
		if set[i].valid && set[i].tag == lineAddr {
			return &set[i]
		}
	}
	return nil
}

// send queues an outbound packet.
func (bc *BankController) send(p *noc.Packet) { bc.outbox = append(bc.outbox, p) }

// HandlePacket ingests a packet delivered at this node's NIC.
func (bc *BankController) HandlePacket(p *noc.Packet, now uint64) {
	switch p.Kind {
	case noc.KindReadReq:
		bc.observeGap(p, now)
		la := LineAddr(p.Addr)
		if m, ok := bc.mshrs[la]; ok {
			// Merge onto the outstanding miss: no bank access needed.
			m.waiters = append(m.waiters, waiter{core: p.Proc, src: p.Src, injected: p.Injected, pktID: p.ID})
			bc.stats.MSHRMerges++
			return
		}
		bc.enqueue(mem.OpRead, reqMeta{kind: accRead, core: p.Proc, src: p.Src, addr: p.Addr, injected: p.Injected, pktID: p.ID}, now)
	case noc.KindWriteReq:
		bc.observeGap(p, now)
		bc.enqueue(mem.OpWrite, reqMeta{kind: accWrite, core: p.Proc, src: p.Src, addr: p.Addr, injected: p.Injected, pktID: p.ID}, now)
	case noc.KindMemResp:
		// Fill-buffer forwarding: answer the merged waiters immediately —
		// the requester gets the data as it arrives from memory — while the
		// array write that installs the line proceeds in the background and
		// occupies the bank like any other long write.
		bc.forwardFill(p, now)
		bc.enqueue(mem.OpWrite, reqMeta{kind: accFill, addr: p.Addr}, now)
	case noc.KindInvAck:
		bc.stats.InvAcksRecv++
	default:
		panic(fmt.Sprintf("cache: bank %d received unexpected %s packet", bc.node, p.Kind))
	}
}

// enqueue hands an access to the bank's timing model. Request objects
// recirculate through reqFree: the bank owns a request from here until its
// completion is handled in Tick.
func (bc *BankController) enqueue(op mem.Op, m reqMeta, now uint64) {
	bc.nextID++
	bc.meta[bc.nextID] = m
	var r *mem.Request
	if n := len(bc.reqFree); n > 0 {
		r = bc.reqFree[n-1]
		bc.reqFree = bc.reqFree[:n-1]
	} else {
		r = new(mem.Request)
	}
	*r = mem.Request{Op: op, Addr: LineAddr(m.addr), ID: bc.nextID, Proc: m.core}
	bc.bank.Enqueue(r, now)
}

// Tick advances the bank one cycle and performs the protocol action of
// whatever access completed.
func (bc *BankController) Tick(now uint64) {
	if len(bc.retryQ) > 0 {
		bc.drainRetries(now)
	}
	if !bc.bank.TickInto(now, &bc.comp) {
		return
	}
	c := &bc.comp
	m, ok := bc.meta[c.Req.ID]
	if !ok {
		panic(fmt.Sprintf("cache: bank %d completion for unknown request %d", bc.node, c.Req.ID))
	}
	delete(bc.meta, c.Req.ID)
	bc.tracer.BankAccess(bc.node, m.pktID, accessNocKind(m.kind), c.Done, c.QueueDelay, c.Service)
	bc.reqFree = append(bc.reqFree, c.Req)
	switch m.kind {
	case accRead:
		bc.finishRead(m, c, now)
	case accWrite:
		bc.finishWrite(m, c, now)
	case accFill:
		bc.finishFill(m, c, now)
	}
}

// accessNocKind maps an access kind onto the packet kind recorded in bank
// trace events.
func accessNocKind(k accessKind) noc.Kind {
	switch k {
	case accRead:
		return noc.KindReadReq
	case accWrite:
		return noc.KindWriteReq
	default:
		return noc.KindMemResp
	}
}

// finishRead handles a completed tag+data probe for a core read.
func (bc *BankController) finishRead(m reqMeta, c *mem.Completion, now uint64) {
	la := LineAddr(m.addr)
	if ln := bc.lookup(la); ln != nil {
		bc.stats.ReadHits++
		ln.lastUse = now
		if m.core >= 0 && m.core < 64 {
			ln.sharers |= 1 << uint(m.core)
		}
		bc.send(bc.pkt(noc.Packet{
			Kind: noc.KindReadResp, Src: bc.node, Dst: m.src,
			Addr: m.addr, Proc: m.core,
			BankQueueDelay: c.QueueDelay, BankService: c.Service, ReqInjected: m.injected,
			ReqID: m.pktID,
		}))
		return
	}
	bc.stats.ReadMisses++
	bc.startMiss(waiter{core: m.core, src: m.src, queueDelay: c.QueueDelay, injected: m.injected, pktID: m.pktID}, la, now)
}

// startMiss allocates (or queues for) an MSHR and issues the memory request.
func (bc *BankController) startMiss(w waiter, lineAddr uint64, now uint64) {
	if m, ok := bc.mshrs[lineAddr]; ok {
		m.waiters = append(m.waiters, w)
		bc.stats.MSHRMerges++
		return
	}
	if len(bc.mshrs) >= MaxMSHRs {
		bc.mshrWait = append(bc.mshrWait, pendingMiss{w: w, lineAddr: lineAddr})
		bc.stats.MSHRStalls++
		return
	}
	var msh *mshr
	if n := len(bc.mshrFree); n > 0 {
		msh = bc.mshrFree[n-1]
		bc.mshrFree = bc.mshrFree[:n-1]
		msh.lineAddr = lineAddr
		msh.waiters = append(msh.waiters[:0], w)
	} else {
		msh = &mshr{lineAddr: lineAddr, waiters: []waiter{w}}
	}
	bc.mshrs[lineAddr] = msh
	addr := AddrOfLine(lineAddr)
	bc.send(bc.pkt(noc.Packet{
		Kind: noc.KindMemReq, Src: bc.node, Dst: bc.am.MCNode(addr),
		Addr: addr, Proc: w.core, SizeFlits: noc.AddrPacketFlits,
	}))
}

// finishWrite handles a completed write access (an L1 writeback landing in
// the bank).
func (bc *BankController) finishWrite(m reqMeta, c *mem.Completion, now uint64) {
	la := LineAddr(m.addr)
	if bc.writeFailed() {
		bc.stats.WriteFaults++
		if m.retries < bc.maxRetries {
			m.retries++
			m.queueDelay += c.QueueDelay
			bc.tracer.Fault(obs.FaultWriteRetry, bc.node, m.pktID, uint64(m.retries), 0, now)
			bc.scheduleRetry(now, mem.OpWrite, m)
			return
		}
		// Retries exhausted: the array never took the data. Invalidate the
		// (now stale) resident copy so no one reads it, and still ack the
		// writer — the hardware raises a machine-check, not a hang.
		bc.stats.RetriesExhausted++
		bc.tracer.Fault(obs.FaultWriteDropped, bc.node, m.pktID, uint64(m.retries), 0, now)
		if ln := bc.lookup(la); ln != nil {
			bc.invalidateSharers(ln, -1)
			ln.valid = false
			ln.sharers = 0
			bc.stats.LinesInvalidated++
		}
		bc.send(bc.pkt(noc.Packet{
			Kind: noc.KindWriteAck, Src: bc.node, Dst: m.src,
			Addr: m.addr, Proc: m.core,
			BankQueueDelay: m.queueDelay + c.QueueDelay, BankService: c.Service, ReqInjected: m.injected,
			ReqID: m.pktID,
		}))
		return
	}
	ln := bc.lookup(la)
	if ln != nil {
		bc.stats.WriteHits++
	} else {
		// Write-allocate in place: the writeback carries the full line, so
		// no memory fetch is needed.
		bc.stats.WriteMisses++
		ln = bc.allocate(la, now)
	}
	ln.dirty = true
	ln.lastUse = now
	// Directory action: invalidate all other sharers. The writer's L1 gave
	// the line up by writing it back.
	bc.invalidateSharers(ln, m.core)
	ln.sharers = 0
	bc.send(bc.pkt(noc.Packet{
		Kind: noc.KindWriteAck, Src: bc.node, Dst: m.src,
		Addr: m.addr, Proc: m.core,
		BankQueueDelay: m.queueDelay + c.QueueDelay, BankService: c.Service, ReqInjected: m.injected,
		ReqID: m.pktID,
	}))
}

// forwardFill answers every waiter merged on the miss as soon as the memory
// response arrives (fill-buffer forwarding), releasing the MSHR.
func (bc *BankController) forwardFill(p *noc.Packet, now uint64) {
	la := LineAddr(p.Addr)
	msh, ok := bc.mshrs[la]
	if !ok {
		return // stale fill (e.g. the line was written while the miss was out)
	}
	delete(bc.mshrs, la)
	bc.fillSharers[la] = sharersOf(msh.waiters)
	for _, w := range msh.waiters {
		bc.send(bc.pkt(noc.Packet{
			Kind: noc.KindReadResp, Src: bc.node, Dst: w.src,
			Addr: p.Addr, Proc: w.core,
			BankQueueDelay: w.queueDelay, ReqInjected: w.injected,
			ReqID: w.pktID,
		}))
	}
	bc.mshrFree = append(bc.mshrFree, msh)
	// MSHR freed: admit a waiting miss, if any.
	if len(bc.mshrWait) > 0 {
		pm := bc.mshrWait[0]
		copy(bc.mshrWait, bc.mshrWait[1:])
		bc.mshrWait = bc.mshrWait[:len(bc.mshrWait)-1]
		bc.startMiss(pm.w, pm.lineAddr, now)
	}
}

// sharersOf collects the presence bits of a waiter list.
func sharersOf(ws []waiter) uint64 {
	var bits uint64
	for _, w := range ws {
		if w.core >= 0 && w.core < 64 {
			bits |= 1 << uint(w.core)
		}
	}
	return bits
}

// finishFill handles the completed background array write of a fill:
// install the tag and the waiters' directory bits.
func (bc *BankController) finishFill(m reqMeta, c *mem.Completion, now uint64) {
	la := LineAddr(m.addr)
	if bc.writeFailed() {
		bc.stats.WriteFaults++
		if m.retries < bc.maxRetries {
			m.retries++
			bc.tracer.Fault(obs.FaultWriteRetry, bc.node, m.pktID, uint64(m.retries), 0, now)
			bc.scheduleRetry(now, mem.OpWrite, m)
			return
		}
		// Give up on caching the line; the waiters already got their data via
		// fill-buffer forwarding, so dropping the install only costs a future
		// re-fetch.
		bc.stats.RetriesExhausted++
		bc.stats.FillsDropped++
		bc.tracer.Fault(obs.FaultWriteDropped, bc.node, m.pktID, uint64(m.retries), 0, now)
		delete(bc.fillSharers, la)
		return
	}
	bc.stats.Fills++
	ln := bc.lookup(la)
	if ln == nil {
		ln = bc.allocate(la, now)
	}
	ln.dirty = false
	ln.lastUse = now
	ln.sharers |= bc.fillSharers[la]
	delete(bc.fillSharers, la)
}

// allocate victimizes a way in the line's set and installs the new tag.
func (bc *BankController) allocate(lineAddr uint64, now uint64) *line {
	set := bc.set(lineAddr)
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lastUse < set[victim].lastUse {
			victim = i
		}
	}
	v := &set[victim]
	if v.valid {
		bc.stats.Evictions++
		// Recall the line from any L1s still holding it.
		bc.invalidateSharers(v, -1)
		if v.dirty {
			bc.stats.Writebacks++
			addr := AddrOfLine(v.tag)
			bc.send(bc.pkt(noc.Packet{
				Kind: noc.KindMemReq, Src: bc.node, Dst: bc.am.MCNode(addr),
				Addr: addr, Proc: -1, SizeFlits: noc.DataPacketFlits, IsBankWrite: true,
			}))
		}
	}
	*v = line{tag: lineAddr, valid: true, lastUse: now}
	return v
}

// invalidateSharers sends an invalidation to every sharer except the given
// core (-1 invalidates everyone).
func (bc *BankController) invalidateSharers(ln *line, except int) {
	if ln.sharers == 0 {
		return
	}
	for core := 0; core < 64; core++ {
		if core == except || ln.sharers&(1<<uint(core)) == 0 {
			continue
		}
		bc.stats.InvSent++
		bc.send(bc.pkt(noc.Packet{
			Kind: noc.KindInv, Src: bc.node, Dst: noc.NodeID(core),
			Addr: AddrOfLine(ln.tag), Proc: core,
		}))
	}
}

// SetGapHistogram installs the Figure 3 instrumentation: every demand access
// observes its distance (in cycles) from the most recent preceding write
// request to this bank.
func (bc *BankController) SetGapHistogram(h *stats.Histogram) { bc.gapHist = h }

// observeGap records the access-after-write gap for Figure 3.
func (bc *BankController) observeGap(p *noc.Packet, now uint64) {
	if bc.gapHist != nil && bc.sawWrite {
		bc.gapHist.Observe(now - bc.lastWrite)
	}
	if p.Kind == noc.KindWriteReq {
		bc.lastWrite = now
		bc.sawWrite = true
	}
}

// ResetStats clears the protocol statistics (end of warmup); tag and MSHR
// state is unaffected. The gap histogram, if installed, is reset too.
func (bc *BankController) ResetStats() {
	bc.stats = Stats{}
	if bc.gapHist != nil {
		bc.gapHist.Reset()
	}
}

// Preload installs a line as resident and clean without any timing effect —
// tag warmup standing in for the billions of instructions the paper's traces
// execute before measurement.
func (bc *BankController) Preload(lineAddr uint64) {
	// Single walk: find the resident copy or the first free way. sim.New
	// calls this ~400K times per construction, so the separate lookup-then-
	// insert double scan is worth avoiding.
	set := bc.set(lineAddr)
	free := -1
	for i := range set {
		if set[i].valid {
			if set[i].tag == lineAddr {
				return
			}
		} else if free < 0 {
			free = i
		}
	}
	if free < 0 {
		free = 0 // set full during preload: replace way 0 (deterministic)
	}
	set[free] = line{tag: lineAddr, valid: true}
}

// PreloadBatch installs many lines at once. Hashed set indices scatter a
// call-per-line preload randomly over the multi-megabyte tag slab (a TLB and
// cache miss per line, the dominant cost of simulator construction), so the
// batch is first bucketed by set index — a stable counting sort, preserving
// per-set insertion order and therefore the exact way layout sequential
// Preload calls produce — and then installed in slab order.
func (bc *BankController) PreloadBatch(lineAddrs []uint64) {
	n := len(lineAddrs)
	if n == 0 {
		return
	}
	idxs := make([]int32, n)
	starts := make([]int32, bc.numSets+1)
	for i, la := range lineAddrs {
		ix := int32(bc.setIndex(la))
		idxs[i] = ix
		starts[ix+1]++
	}
	for s := 0; s < bc.numSets; s++ {
		starts[s+1] += starts[s]
	}
	sorted := make([]uint64, n)
	for i, la := range lineAddrs {
		sorted[starts[idxs[i]]] = la
		starts[idxs[i]]++
	}
	for _, la := range sorted {
		bc.Preload(la)
	}
}
