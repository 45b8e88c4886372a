package noc

import (
	"fmt"
	"math"
	"math/bits"

	"sttsim/internal/stats"
)

// DefaultVCsPerClass partitions the 6 VCs per port of Table 1 across the
// three virtual networks: requests get three (they carry the bursty 9-flit
// writeback traffic and are where the bank-aware re-ordering needs slack),
// responses two, coherence one. The "+1 VC" design point of Section 4.4
// grants the request class a fourth.
var DefaultVCsPerClass = []int{3, 2, 1}

// maxPortVCs is the most VCs a port may have: a router's allocation masks
// hold one bit per input VC in a uint64.
const maxPortVCs = 64 / int(NumPorts)

// WatchdogCycles is how long the network may hold in-flight packets without
// moving a single flit before it declares a deadlock. Generously above any
// legitimate stall (a full DRAM round trip is 320 cycles).
const WatchdogCycles = 50000

// Config describes a network instance.
type Config struct {
	// Routing is the routing function (required).
	Routing *Routing
	// VCsPerClass is the per-virtual-network VC count; nil means
	// DefaultVCsPerClass.
	VCsPerClass []int
	// BufDepth is the per-VC buffer depth in flits; 0 means DefaultBufDepth.
	BufDepth int
	// WideTSBs lists core-layer nodes whose down-link is a 256-bit TSB
	// carrying two flits per cycle (the region TSBs with flit combining).
	WideTSBs []NodeID
	// Prioritizer, when non-nil, is consulted by every router's VA and SA
	// stages; internal/core provides the STT-RAM-aware implementation.
	Prioritizer Prioritizer
	// WatchdogCycles overrides the deadlock watchdog window; 0 means the
	// WatchdogCycles default.
	WatchdogCycles uint64
	// Observer, when non-nil, receives packet-lifecycle notifications
	// (internal/obs). Callers must leave it nil — not a typed nil — when
	// tracing is disabled so the hot path stays a single nil check.
	Observer Observer
}

// NetStats aggregates network-wide activity.
type NetStats struct {
	PacketsInjected  uint64
	PacketsDelivered uint64
	FlitsDelivered   uint64
	LinkFlits        uint64 // intra-layer 128-bit link traversals
	TSVFlits         uint64 // 128-bit vertical via traversals
	TSBFlits         uint64 // 256-bit region TSB traversals
	LocalFlits       uint64 // ejections into a NIC
	BufferWrites     uint64
	Latency          [NumClasses]stats.Accumulator
	KindLatency      [numKinds]stats.Accumulator
	Hops             stats.Accumulator
}

// Network is the full interconnect: topology-sized at construction, the
// paper's 128-node two-layer system by default.
type Network struct {
	topo     Topology
	numNodes int
	routers  []*Router
	nics     []*NIC

	routing     *Routing
	prioritizer Prioritizer
	obs         Observer

	numVCs    int
	bufDepth  int
	classMask [NumClasses]uint64 // the VCs of each class, bit v for VC v

	// Sparse active-set ticking (see Step): bit n set means the router/NIC
	// at node n may make progress and must be ticked this cycle. Idle
	// components cost zero instead of being polled. exhaustive switches
	// Step back to the full 0..numNodes scan — behaviourally identical by
	// construction, kept as the oracle for the determinism property test.
	// (numNodes+63)/64 words each.
	activeRtr  []uint64
	activeNIC  []uint64
	exhaustive bool

	// Two-phase tick worklists (DESIGN.md §18): reusable ascending snapshots
	// of the active-set bitsets. Each phase iterates a snapshot, so bits set
	// mid-phase take effect at the next phase boundary, never mid-sweep.
	workNIC []NodeID
	workRtr []NodeID

	stats    NetStats
	inflight int
	lastMove uint64
	nextID   uint64
	watchdog uint64
}

// markRouterActive flags the router at node id for ticking.
func (n *Network) markRouterActive(id NodeID) {
	n.activeRtr[uint(id)>>6] |= 1 << (uint(id) & 63)
}

// markNICActive flags the NIC at node id for ticking.
func (n *Network) markNICActive(id NodeID) {
	n.activeNIC[uint(id)>>6] |= 1 << (uint(id) & 63)
}

// clearRouterActive removes the router at node id from the active set.
func (n *Network) clearRouterActive(id NodeID) {
	n.activeRtr[uint(id)>>6] &^= 1 << (uint(id) & 63)
}

// clearNICActive removes the NIC at node id from the active set.
func (n *Network) clearNICActive(id NodeID) {
	n.activeNIC[uint(id)>>6] &^= 1 << (uint(id) & 63)
}

// SetExhaustiveTick switches Step between sparse active-set ticking (the
// default) and the exhaustive full-scan oracle. The two are behaviourally
// identical — the active-set property test (internal/sim) holds the sparse
// path to byte-identical traces against this oracle.
func (n *Network) SetExhaustiveTick(on bool) { n.exhaustive = on }

// NewNetwork wires up routers, links, TSVs, TSBs and NICs per the config.
func NewNetwork(cfg Config) (*Network, error) {
	if cfg.Routing == nil {
		return nil, fmt.Errorf("noc: config requires a routing function")
	}
	vcs := cfg.VCsPerClass
	if vcs == nil {
		vcs = DefaultVCsPerClass
	}
	if len(vcs) != int(NumClasses) {
		return nil, fmt.Errorf("noc: VCsPerClass needs %d entries, got %d", NumClasses, len(vcs))
	}
	topo := cfg.Routing.Topology()
	numNodes := topo.NumNodes()
	words := (numNodes + 63) / 64
	n := &Network{
		topo:        topo,
		numNodes:    numNodes,
		routers:     make([]*Router, numNodes),
		nics:        make([]*NIC, numNodes),
		activeRtr:   make([]uint64, words),
		activeNIC:   make([]uint64, words),
		routing:     cfg.Routing,
		prioritizer: cfg.Prioritizer,
		obs:         cfg.Observer,
		bufDepth:    cfg.BufDepth,
		watchdog:    cfg.WatchdogCycles,
		workNIC:     make([]NodeID, 0, numNodes),
		workRtr:     make([]NodeID, 0, numNodes),
	}
	if n.bufDepth == 0 {
		n.bufDepth = DefaultBufDepth
	}
	// The VC rings index their slots with a byte (see vcState).
	if n.bufDepth < 0 || n.bufDepth > math.MaxUint8 {
		return nil, fmt.Errorf("noc: buffer depth %d outside 1..%d flits", n.bufDepth, math.MaxUint8)
	}
	if n.watchdog == 0 {
		n.watchdog = WatchdogCycles
	}
	for c := 0; c < int(NumClasses); c++ {
		if vcs[c] <= 0 {
			return nil, fmt.Errorf("noc: class %d has no VCs", c)
		}
		n.classMask[c] = (uint64(1)<<uint(vcs[c]) - 1) << uint(n.numVCs)
		n.numVCs += vcs[c]
	}
	// The routers' allocation masks hold one bit per input VC.
	if n.numVCs > maxPortVCs {
		return nil, fmt.Errorf("noc: %d VCs per port exceed the router's 64-bit VC masks (at most %d for %d ports)",
			n.numVCs, maxPortVCs, NumPorts)
	}

	// Wide TSBs are named by their core-layer node; the 256-bit bus spans
	// the whole column, so every down-link in that (x, y) column is wide.
	wide := make(map[NodeID]bool, len(cfg.WideTSBs))
	for _, t := range cfg.WideTSBs {
		if !topo.ValidNode(t) || topo.Layer(t) != 0 {
			return nil, fmt.Errorf("noc: wide TSB %d is not a core-layer node", t)
		}
		wide[t] = true
	}
	layerSize := topo.LayerSize()

	// Pass 1: routers, with ring slots for the VCs of the input ports each
	// router has: the local port and one per neighbour.
	for id := NodeID(0); id < NodeID(numNodes); id++ {
		r := &Router{id: id, net: n, depth: n.bufDepth, vcs: make([]vcState, int(NumPorts)*n.numVCs)}
		for b := range r.vcs {
			r.vcs[b].outVC = -1
		}
		off := 0
		for p := Port(0); p < NumPorts; p++ {
			if p != PortLocal && topo.Neighbor(id, p) < 0 {
				continue
			}
			for v := 0; v < n.numVCs; v++ {
				r.vc(p, v).off = int32(off)
				off += n.bufDepth
			}
		}
		r.slab = make([]Flit, off)
		n.routers[id] = r
	}

	// Pass 2: output links, including the local ejection port, and credit
	// wiring back into the downstream input ports.
	for id := NodeID(0); id < NodeID(numNodes); id++ {
		r := n.routers[id]
		for p := Port(0); p < NumPorts; p++ {
			if p == PortLocal {
				r.out[p] = n.newOutLink(p, nil, PortLocal, 1, false)
				continue
			}
			nb := topo.Neighbor(id, p)
			if nb < 0 {
				continue
			}
			width := 1
			isTSV := p == PortUp || p == PortDown
			if p == PortDown && wide[NodeID(int(id)%layerSize)] {
				width = 2
			}
			ol := n.newOutLink(p, n.routers[nb], p.Opposite(), width, isTSV)
			r.out[p] = ol
			n.routers[nb].feeder[p.Opposite()] = ol
		}
	}

	// Pass 3: NICs, each feeding its router's local input port.
	for id := NodeID(0); id < NodeID(numNodes); id++ {
		r := n.routers[id]
		inj := n.newOutLink(PortLocal, r, PortLocal, 1, false)
		r.feeder[PortLocal] = inj
		n.nics[id] = &NIC{
			id:     id,
			net:    n,
			router: r,
			inj:    inj,
		}
	}
	return n, nil
}

func (n *Network) newOutLink(src Port, dst *Router, dstPort Port, width int, isTSV bool) *outLink {
	ol := &outLink{
		srcPort: src,
		dst:     dst,
		dstPort: dstPort,
		width:   width,
		isTSV:   isTSV,
	}
	for v := 0; v < n.numVCs; v++ {
		ol.credits[v] = n.bufDepth
	}
	return ol
}

// NumVCs returns the total VC count per port.
func (n *Network) NumVCs() int { return n.numVCs }

// BufDepth returns the per-VC buffer depth in flits.
func (n *Network) BufDepth() int { return n.bufDepth }

// Routing returns the network's routing function.
func (n *Network) Routing() *Routing { return n.routing }

// Topology returns the shape this network was built for.
func (n *Network) Topology() Topology { return n.topo }

// NumNodes returns the network's total node count.
func (n *Network) NumNodes() int { return n.numNodes }

// Router returns the router at node id.
func (n *Network) Router(id NodeID) *Router { return n.routers[id] }

// NIC returns the network interface at node id.
func (n *Network) NIC(id NodeID) *NIC { return n.nics[id] }

// SetDeliver registers the packet sink for node id.
func (n *Network) SetDeliver(id NodeID, fn DeliverFunc) { n.nics[id].SetDeliver(fn) }

// Stats returns a copy of the accumulated network statistics.
func (n *Network) Stats() NetStats { return n.stats }

// ResetStats clears the accumulated statistics (used at the end of warmup);
// in-flight packets are unaffected.
func (n *Network) ResetStats() { n.stats = NetStats{} }

// InFlight returns the number of packets injected but not yet delivered.
func (n *Network) InFlight() int { return n.inflight }

// SizeFor returns the default flit count for a packet kind; KindMemReq
// defaults to a 1-flit read (callers set 9 for dirty writebacks).
func SizeFor(k Kind) int {
	switch k {
	case KindWriteReq, KindReadResp, KindMemResp:
		return DataPacketFlits
	default:
		return AddrPacketFlits
	}
}

// ClassFor returns the virtual network a packet kind travels on.
func ClassFor(k Kind) Class {
	switch k {
	case KindReadReq, KindWriteReq, KindMemReq:
		return ClassReq
	case KindReadResp, KindWriteAck, KindMemResp:
		return ClassResp
	default:
		return ClassCoh
	}
}

// Inject hands a packet to the source NIC at cycle now. Missing SizeFlits
// and Class fields are filled from the packet kind.
func (n *Network) Inject(p *Packet, now uint64) {
	if !n.topo.ValidNode(p.Src) || !n.topo.ValidNode(p.Dst) {
		panic(fmt.Sprintf("noc: inject with invalid endpoints %d -> %d", p.Src, p.Dst))
	}
	n.nextID++
	p.ID = n.nextID
	if p.SizeFlits == 0 {
		p.SizeFlits = SizeFor(p.Kind)
	}
	p.Class = ClassFor(p.Kind)
	p.Injected = now
	p.arrived = 0
	n.inflight++
	n.stats.PacketsInjected++
	if n.obs != nil {
		n.obs.PacketInjected(p, now)
	}
	if p.Src == p.Dst {
		// Degenerate local delivery: skip the network entirely.
		p.Ejected = now
		n.onDelivered(p, now)
		if fn := n.nics[p.Src].deliver; fn != nil {
			fn(p, now)
		}
		return
	}
	n.nics[p.Src].enqueue(p)
}

// onDelivered updates the delivery statistics.
func (n *Network) onDelivered(p *Packet, now uint64) {
	n.inflight--
	n.stats.PacketsDelivered++
	n.stats.FlitsDelivered += uint64(p.SizeFlits)
	n.stats.Latency[p.Class].Observe(float64(p.NetworkLatency()))
	n.stats.KindLatency[p.Kind].Observe(float64(p.NetworkLatency()))
	n.stats.Hops.Observe(float64(p.Hops))
	n.lastMove = now
	if n.obs != nil {
		n.obs.PacketDelivered(p, now)
	}
}

// countTraversal classifies one flit-link traversal for the energy model.
func (n *Network) countTraversal(ol *outLink) {
	switch {
	case ol.dst == nil:
		n.stats.LocalFlits++
	case ol.isTSV && ol.width > 1:
		n.stats.TSBFlits++
	case ol.isTSV:
		n.stats.TSVFlits++
	default:
		n.stats.LinkFlits++
	}
}

// priority consults the prioritizer (0 when none is configured).
func (n *Network) priority(at NodeID, p *Packet, now uint64) int {
	if n.prioritizer == nil {
		return 0
	}
	return n.prioritizer.Priority(at, p, now)
}

// gatherWork snapshots an active-set bitset into dst as an ascending node
// worklist (all nodes in exhaustive mode). Phases iterate the snapshot, never
// the live bitset, so they may set bits freely.
func (n *Network) gatherWork(active []uint64, dst []NodeID) []NodeID {
	dst = dst[:0]
	if n.exhaustive {
		for id := NodeID(0); id < NodeID(n.numNodes); id++ {
			dst = append(dst, id)
		}
		return dst
	}
	for w, word := range active {
		for word != 0 {
			bit := uint(bits.TrailingZeros64(word))
			dst = append(dst, NodeID(uint(w)<<6|bit))
			word &= word - 1
		}
	}
	return dst
}

// Step advances the network one cycle as a two-phase tick (DESIGN.md §18):
//
//	N1  deliveries     ascending — gate retries, reassembly, sinks
//	N2  injection      ascending — each NIC sends into its own router
//	R1  router phase A VA/SA decisions from frozen cycle-N state;
//	                   cross-router effects deferred into per-router op logs
//	R2  router commit  ascending — op logs applied, bits settled
//
// Every phase walks a worklist snapshot taken at its start, so activations
// become visible at phase boundaries rather than mid-sweep, which makes the
// sparse path coincide with the exhaustive full-scan oracle by construction.
// When the deadlock watchdog fires — packets in flight but no flit movement
// for over the watchdog window — Step returns a *DeadlockError carrying the
// stalled-packet dump instead of panicking, so callers can surface a
// structured failure report.
func (n *Network) Step(now uint64) error {
	// N1 — deliveries. Sinks may inject, marking further NICs active.
	n.workNIC = n.gatherWork(n.activeNIC, n.workNIC)
	for _, id := range n.workNIC {
		n.nics[id].deliverPhase(now)
	}

	// N2 — injection, over a fresh snapshot so NICs whose queues were filled
	// by this cycle's deliveries inject this cycle (as the full scan would).
	n.workNIC = n.gatherWork(n.activeNIC, n.workNIC)
	for _, id := range n.workNIC {
		nic := n.nics[id]
		nic.injectPhase(now)
		if nic.idle() {
			n.clearNICActive(id)
		}
	}

	// R1 — router phase A: VA/SA decisions from the frozen cycle-N state.
	n.workRtr = n.gatherWork(n.activeRtr, n.workRtr)
	for _, id := range n.workRtr {
		r := n.routers[id]
		r.switchAlloc(now)
		r.vcAlloc(now)
	}

	// R2 — router commit in ascending node order, then settle the bits: a
	// router drained by its own grants may have been refilled by another
	// router's commit, so emptiness is judged only after every commit ran.
	for _, id := range n.workRtr {
		n.routers[id].commitOps(now)
	}
	for _, id := range n.workRtr {
		if n.routers[id].bufferedFlits == 0 {
			n.clearRouterActive(id)
		}
	}

	if n.inflight > 0 && now > n.lastMove && now-n.lastMove > n.watchdog {
		return &DeadlockError{
			Now: now, LastMove: n.lastMove, InFlight: n.inflight,
			Stalled: n.DumpInFlight(),
		}
	}
	return nil
}

// FailPort kills the output port p of router id: the link never moves another
// flit. Traffic routed through it will stall (and eventually trip the
// deadlock watchdog) unless the routing layer steers around the fault.
func (n *Network) FailPort(id NodeID, p Port) error {
	return n.DegradePort(id, p, 0)
}

// DegradePort degrades the output port p of router id to a 1/period duty
// cycle (the link moves flits only on cycles divisible by period); period 0
// kills the port outright. It returns an error when the port has no link.
func (n *Network) DegradePort(id NodeID, p Port, period uint64) error {
	if !n.topo.ValidNode(id) || p < 0 || p >= NumPorts {
		return fmt.Errorf("noc: degrade of invalid port %d:%d", id, p)
	}
	ol := n.routers[id].out[p]
	if ol == nil {
		return fmt.Errorf("noc: router %d has no %s port to degrade", id, p)
	}
	ol.faulty = true
	ol.period = period
	return nil
}

// RecomputeRoutes re-runs route computation for every buffered header that
// has not yet been granted a downstream VC. Called after the routing function
// changes (e.g. regions re-homed onto surviving TSBs): packets not yet
// committed to a path follow the new routes, while wormholes already holding
// a downstream VC drain along their old path.
func (n *Network) RecomputeRoutes() {
	for id, r := range n.routers {
		for b := range r.vcs {
			if st := &r.vcs[b]; st.pkt != nil && st.outVC < 0 {
				st.outPort = n.routing.NextPort(NodeID(id), st.pkt)
			}
		}
	}
}

// Occupancy returns the used/total input-buffer slots at node id (the RCA
// estimator's raw congestion signal).
func (n *Network) Occupancy(id NodeID) (used, capacity int) {
	return n.routers[id].occupancy()
}
