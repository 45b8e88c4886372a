package sim

import (
	"fmt"

	"sttsim/internal/cache"
	"sttsim/internal/core"
	"sttsim/internal/cpu"
	"sttsim/internal/fault"
	"sttsim/internal/mem"
	"sttsim/internal/noc"
	"sttsim/internal/obs"
	"sttsim/internal/stats"
	"sttsim/internal/workload"
)

// sampleInterval is how often (cycles) the Figure 3/13 router-occupancy
// instrumentation samples the cache-layer routers.
const sampleInterval = 50

// Capacity-miss penalties: the fraction of would-be L2 hits that become
// misses when the 4MB STT-RAM banks are replaced by 1MB SRAM banks. Table 3
// was characterized on the STT-RAM L2, so the SRAM baseline pays this on
// top. Commercial server workloads are the most LLC-capacity-sensitive
// (multi-hundred-MB working sets), SPEC the least on average.
var capacityMissPenalty = map[workload.Suite]float64{
	workload.SuiteServer: 0.35,
	workload.SuitePARSEC: 0.15,
	workload.SuiteSPEC:   0.10,
}

// MaxBankQueue is the demand-request capacity of a bank's module interface;
// beyond it, requests back up into the NIC and then the network (Section 3.1).
const MaxBankQueue = 1

// MissRatioFor adjusts a profile's (STT-RAM-characterized) L2 miss ratio for
// the scheme's bank technology.
func MissRatioFor(prof workload.Profile, tech mem.Tech) float64 {
	m := prof.MissRatio()
	if tech.CapacityMB < mem.STTRAM.CapacityMB {
		m += capacityMissPenalty[prof.Suite] * (1 - m)
	}
	return m
}

// Simulator is one fully wired system instance.
type Simulator struct {
	cfg     Config
	topo    noc.Topology
	am      *cache.AddrMap
	net     *noc.Network
	routing *noc.Routing
	cores   []*cpu.Core
	banks   []*cache.BankController
	mcs     []*mcWrapper    // the four controllers, in AddrMap.MCNodeList order
	mcAt    []*mcWrapper    // dense node index (nil for non-MC nodes)
	pool    *noc.PacketPool // every steady-state packet recirculates here
	layout  *core.RegionLayout
	parents *core.ParentMap
	arbiter *core.BankAwareArbiter
	rca     *core.RCAEstimator
	wb      *core.WBEstimator

	// Fault-injection state (all nil/zero when the campaign is disabled, so
	// the hot loop pays nothing).
	faults     *fault.Engine
	failedTSBs map[noc.NodeID]bool
	freport    FaultReport

	// Observability state (both nil when Config.Obs is nil — the default).
	tracer  *obs.Tracer
	metrics *stats.Registry

	now uint64

	// Measurement state.
	latency stats.LatencyBreakdown
	gapHist *stats.Histogram
	hopReqs [4]stats.Accumulator // buffered requests H hops from their dst, H=1..3
	tsacks  []*noc.Packet
}

// mcWrapper adapts mem.MemController to the network: it retries quota-
// rejected requests and turns read completions into MemResp packets. It is
// the terminal consumer of MemReq packets — they are retained in inbox and
// pending past delivery, so their pool release happens here, not in the sink.
type mcWrapper struct {
	node    noc.NodeID
	mc      *mem.MemController
	inbox   []*noc.Packet
	pending map[uint64]*noc.Packet
	nextID  uint64
	outbox  []*noc.Packet
	pool    *noc.PacketPool
	reqFree []*mem.Request
}

// New builds a simulator for the given configuration. It is the one
// validation gate: a Config that Validate rejects returns its
// *ValidationError and builds nothing.
func New(cfg Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	topo := cfg.Topology()
	am := cache.NewAddrMap(topo)
	s := &Simulator{
		cfg:     cfg,
		topo:    topo,
		am:      am,
		pool:    noc.NewPacketPool(),
		gapHist: stats.NewGapHistogram(),
	}

	// Fault campaign: build the engine up front so configuration errors
	// surface at construction, not mid-run.
	if cfg.Fault != nil {
		eng, err := fault.NewEngine(*cfg.Fault, cfg.Seed, topo.NumBanks())
		if err != nil {
			return nil, err
		}
		s.faults = eng
		s.failedTSBs = make(map[noc.NodeID]bool)
	}

	// Observability: the tracer and sampling registry exist only when asked
	// for, and the network sees an observer only when event tracing is on
	// (assigning a nil *obs.Tracer into the interface would defeat the
	// network's nil check).
	if cfg.Obs != nil {
		s.tracer = obs.NewTracer(cfg.Obs.Sink)
		s.metrics = stats.NewRegistry(cfg.Obs.MetricsInterval, cfg.Obs.MetricsCap)
		s.metrics.SetOnSample(cfg.Obs.OnSample)
	}
	var observer noc.Observer
	if s.tracer != nil {
		observer = s.tracer
	}

	// Routing and, for the restricted schemes, the region geometry. An
	// unrestricted run under a TSB-failure campaign still builds the layout:
	// the campaign's region indices resolve against the same geometry, so
	// failure scenarios are comparable across all six schemes.
	var routing *noc.Routing
	var wide []noc.NodeID
	var err error
	needLayout := cfg.Scheme.Restricted() ||
		(cfg.Fault != nil && len(cfg.Fault.TSBFailures) > 0)
	if needLayout {
		s.layout, err = core.NewRegionLayoutTopo(topo, cfg.Regions, cfg.Placement)
		if err != nil {
			return nil, err
		}
	}
	if cfg.Scheme.Restricted() {
		routing, err = noc.NewRoutingTopo(topo, noc.PathRegionTSBs, s.layout.TSBMap())
		if err != nil {
			return nil, err
		}
		wide = s.layout.TSBCores()
	} else {
		routing, err = noc.NewRoutingTopo(topo, noc.PathAllTSVs, nil)
		if err != nil {
			return nil, err
		}
	}
	s.routing = routing

	// The bank-aware arbiter and its estimator. The arbiter's hold gating
	// and RCA's occupancy read the network, so both attach to it once it
	// exists.
	var prioritizer noc.Prioritizer
	if cfg.Scheme.Prioritized() {
		s.parents, err = core.BuildParentMap(s.layout, cfg.Hops)
		if err != nil {
			return nil, err
		}
		var est core.Estimator
		switch cfg.Scheme {
		case SchemeSTT4TSBSS:
			est = core.SSEstimator{}
		case SchemeSTT4TSBRCA:
			s.rca = core.NewRCAEstimator(topo)
			est = s.rca
		case SchemeSTT4TSBWB:
			s.wb = core.NewWBEstimatorFor(cfg.WBWindow, topo.NumNodes())
			est = s.wb
		}
		tech := cfg.BankTech()
		s.arbiter = core.NewBankAwareArbiter(s.parents, est, tech.ReadCycles, tech.WriteCycles)
		if cfg.HoldCap != 0 {
			s.arbiter.SetHoldCap(cfg.HoldCap)
		}
		prioritizer = s.arbiter
	}

	vcs := noc.DefaultVCsPerClass
	if cfg.ExtraReqVC {
		vcs = []int{noc.DefaultVCsPerClass[0] + 1, noc.DefaultVCsPerClass[1], noc.DefaultVCsPerClass[2]}
	}
	s.net, err = noc.NewNetwork(noc.Config{
		Routing: routing, VCsPerClass: vcs, WideTSBs: wide, Prioritizer: prioritizer,
		WatchdogCycles: cfg.WatchdogCycles, Observer: observer,
	})
	if err != nil {
		return nil, err
	}
	if s.arbiter != nil {
		s.arbiter.AttachNetwork(s.net)
	}
	if s.rca != nil {
		s.rca.AttachNetwork(s.net)
	}

	// Cores with their workload generators; the miss ratio reflects the
	// scheme's L2 capacity. A GeneratorFactory (e.g. trace replay) replaces
	// the synthetic streams but keeps the same prewarming footprint.
	numCores := topo.NumCores()
	s.cores = make([]*cpu.Core, numCores)
	gens := make([]*workload.Generator, numCores)
	for i := 0; i < numCores; i++ {
		// Assignment.Profiles is the paper's fixed 64-slot table; wider
		// meshes re-tile it so every workload mix keeps its relative layout.
		prof := cfg.Assignment.Profiles[i%len(cfg.Assignment.Profiles)]
		miss := MissRatioFor(prof, cfg.BankTech())
		gens[i] = workload.NewGeneratorBanks(prof, i, cfg.Assignment.Mode, cfg.Seed, miss, topo.NumBanks())
		var gen cpu.Generator = gens[i]
		if cfg.GeneratorFactory != nil {
			gen = cfg.GeneratorFactory(i, prof, miss)
		}
		s.cores[i] = cpu.NewCore(i, gen, am)
		s.cores[i].UsePool(s.pool)
	}

	// Banks (optionally write-buffered, optionally hybrid) and memory
	// controllers.
	tech := cfg.BankTech()
	numBanks := topo.NumBanks()
	s.banks = make([]*cache.BankController, numBanks)
	for i := 0; i < numBanks; i++ {
		node := topo.BankNode(i)
		bankTech := tech
		if i < cfg.HybridSRAMBanks {
			bankTech = mem.SRAM
		}
		var bank *mem.Bank
		if cfg.WriteBufferEntries > 0 {
			bank = mem.NewBufferedBank(bankTech, cfg.WriteBufferEntries, cfg.ReadPreemption)
		} else {
			bank = mem.NewBank(bankTech)
		}
		if cfg.EarlyWriteTermination {
			bank.EnableEarlyTermination(cfg.Seed ^ uint64(i)*0x9E3779B97F4A7C15)
		}
		s.banks[i] = cache.NewBankController(node, bank, am)
		s.banks[i].UsePool(s.pool)
		s.banks[i].SetGapHistogram(s.gapHist)
		if s.tracer != nil {
			s.banks[i].SetTracer(s.tracer)
		}
		// Stochastic write failure is a property of resistive/MTJ cells;
		// SRAM banks (the baseline scheme, hybrid SRAM banks) are immune.
		if s.faults != nil && cfg.Fault.WriteErrorRate > 0 && bankTech.Name != mem.SRAM.Name {
			s.banks[i].SetWriteFaults(s.faults, cfg.Fault.MaxRetries(), cfg.Fault.Backoff())
		}
		if s.arbiter != nil && i < cfg.HybridSRAMBanks {
			// The parent's busy estimate must use the hybrid bank's short
			// writes, not the STT-RAM worst case.
			s.arbiter.SetChildWriteCycles(node, mem.SRAM.WriteCycles)
		}
	}
	s.mcAt = make([]*mcWrapper, topo.NumNodes())
	for i, node := range am.MCNodeList() {
		mcw := &mcWrapper{
			node:    node,
			mc:      mem.NewMemController(i),
			pending: make(map[uint64]*noc.Packet),
			pool:    s.pool,
		}
		s.mcs = append(s.mcs, mcw)
		s.mcAt[node] = mcw
	}

	// Prewarm the L2 tags with every generator's hot footprint so hit rates
	// match the Table 3 characterization from the first measured cycle. The
	// shared segment is identical across generators, so it is installed once;
	// lines are gathered per home bank and installed via PreloadBatch, which
	// visits each bank's tag slab in set order instead of hash-scattered
	// (the way layout is unchanged — see PreloadBatch).
	batches := make([][]uint64, numBanks)
	gather := func(lines []uint64) {
		for _, lineAddr := range lines {
			b := am.HomeBank(cache.AddrOfLine(lineAddr))
			batches[b] = append(batches[b], lineAddr)
		}
	}
	sharedDone := false
	for _, g := range gens {
		gather(g.PrivateFootprint())
		if sh := g.SharedFootprint(); len(sh) > 0 && !sharedDone {
			gather(sh)
			sharedDone = true
		}
	}
	for b, lines := range batches {
		s.banks[b].PreloadBatch(lines)
	}

	s.wireDelivery()
	s.registerProbes()
	return s, nil
}

// Close is a no-op: a Simulator holds no resources beyond memory.
//
// Deprecated: there is nothing to release; callers need not call Close.
func (s *Simulator) Close() {}

// wireDelivery registers the per-node packet sinks.
func (s *Simulator) wireDelivery() {
	for i := range s.cores {
		c := s.cores[i]
		node := noc.NodeID(i)
		s.net.SetDeliver(node, func(p *noc.Packet, now uint64) {
			// The core sink terminally consumes everything it is handed;
			// packets return to the pool once their fields have been read.
			if p.Kind == noc.KindTSAck {
				s.onTSAck(p, now)
				s.pool.Put(p)
				return
			}
			if p.Kind == noc.KindReadResp || p.Kind == noc.KindWriteAck {
				s.recordLatency(p, now)
			}
			c.OnPacket(p, now)
			s.pool.Put(p)
		})
	}
	for i := range s.banks {
		bc := s.banks[i]
		node := s.topo.BankNode(i)
		maxQ := s.cfg.BankQueueDepth
		if maxQ == 0 {
			maxQ = MaxBankQueue
		}
		s.net.NIC(node).SetGate(func(p *noc.Packet, now uint64) bool {
			// Demand requests wait at the interface while the bank queue is
			// full; responses, fills, and coherence always sink.
			if p.Kind == noc.KindReadReq || p.Kind == noc.KindWriteReq {
				return bc.Bank().QueueLen() < maxQ
			}
			return true
		})
		s.net.SetDeliver(node, func(p *noc.Packet, now uint64) {
			switch p.Kind {
			case noc.KindTSAck:
				s.onTSAck(p, now)
				s.pool.Put(p)
			case noc.KindMemReq:
				mcw := s.mcAt[node]
				if mcw == nil {
					panic(fmt.Sprintf("sim: MemReq delivered to non-MC node %d", node))
				}
				// Retained past delivery; mcw.tick releases it.
				mcw.inbox = append(mcw.inbox, p)
			default:
				if p.Tagged {
					// Window-based estimator: echo the timestamp to the
					// parent that tagged this request (Section 3.5).
					s.tsacks = append(s.tsacks, s.pool.NewFrom(noc.Packet{
						Kind: noc.KindTSAck, Src: node, Dst: p.TagParent,
						Timestamp: p.Timestamp, TagChild: p.TagChild,
					}))
				}
				bc.HandlePacket(p, now)
				s.pool.Put(p)
			}
		})
	}
}

// SetExhaustiveTick switches the network between sparse active-set ticking
// (the default) and the exhaustive full-scan oracle. The two are behaviourally
// identical; the property test in sparse_test.go holds them to byte-identical
// traces and results.
func (s *Simulator) SetExhaustiveTick(on bool) { s.net.SetExhaustiveTick(on) }

// onTSAck feeds a timestamp ack into the WB estimator.
func (s *Simulator) onTSAck(p *noc.Packet, now uint64) {
	if s.wb != nil {
		s.wb.OnTSAck(p, now)
	}
}

// recordLatency splits a response's round trip into network and bank-queue
// components (Figure 7).
func (s *Simulator) recordLatency(p *noc.Packet, now uint64) {
	if p.ReqInjected == 0 || now < p.ReqInjected {
		return
	}
	total := now - p.ReqInjected
	queue := p.BankQueueDelay
	net := uint64(0)
	if total > queue+p.BankService {
		net = total - queue - p.BankService
	}
	s.latency.ObservePacket(net, queue)
}

// Step advances the whole system one cycle. It returns a structural failure —
// a NoC deadlock caught by the watchdog, an invariant-audit violation, or a
// fault event that cannot be applied (e.g. every TSB dead) — instead of
// panicking; Run wraps any such error in a *RunError with a full in-flight
// packet dump.
func (s *Simulator) Step() error {
	now := s.now

	// Scheduled structural faults fire before anything moves this cycle.
	if s.faults != nil && s.faults.HasEventsDue(now) {
		for _, ev := range s.faults.EventsDue(now) {
			if err := s.applyFault(ev); err != nil {
				return err
			}
		}
	}

	// Cores issue and retire (phase A — each core touches only its own
	// state); their new requests then enter the network in ascending core
	// order.
	for _, c := range s.cores {
		c.Tick(now)
	}
	for _, c := range s.cores {
		for _, p := range c.Outbox() {
			s.net.Inject(p, now)
		}
	}

	// Pending WB-estimator acks from last cycle's deliveries.
	if len(s.tsacks) > 0 {
		for _, p := range s.tsacks {
			s.net.Inject(p, now)
		}
		s.tsacks = s.tsacks[:0]
	}

	// Network moves flits; deliveries invoke the sinks wired above. A
	// watchdog-detected deadlock surfaces here as a *noc.DeadlockError.
	if err := s.net.Step(now); err != nil {
		return err
	}

	// Banks service accesses and emit responses/memory traffic (phase A —
	// each bank owns its queues, array model and fault stream); outboxes then
	// drain in ascending bank order.
	for _, bc := range s.banks {
		bc.Tick(now)
	}
	for _, bc := range s.banks {
		for _, p := range bc.Outbox() {
			s.net.Inject(p, now)
		}
	}

	// Memory controllers. A controller with nothing queued and nothing in
	// flight cannot act or produce output, so it is skipped outright.
	for _, mcw := range s.mcs {
		if len(mcw.inbox) == 0 && mcw.mc.Inflight() == 0 {
			continue
		}
		mcw.tick(now)
		for _, p := range mcw.outbox {
			s.net.Inject(p, now)
		}
		mcw.outbox = mcw.outbox[:0]
	}

	// Estimators that observe every cycle.
	if s.rca != nil {
		s.rca.Tick(now)
	}

	if now%sampleInterval == 0 {
		s.sampleRouters()
	}
	if s.metrics.Due(now) {
		s.metrics.Sample(now)
	}
	if ai := s.cfg.AuditInterval; ai > 0 && now > 0 && now%ai == 0 {
		if err := s.net.CheckInvariants(); err != nil {
			return err
		}
	}
	s.now++
	return nil
}

// applyFault applies one scheduled structural fault.
func (s *Simulator) applyFault(ev fault.Event) error {
	switch {
	case ev.TSB != nil:
		return s.failTSB(ev.TSB.Region)
	case ev.Port != nil:
		f := ev.Port
		if err := s.net.DegradePort(f.Node, f.Port, f.Period); err != nil {
			return err
		}
		if f.Period == 0 {
			s.freport.PortsFailed++
		} else {
			s.freport.PortsDegraded++
		}
		s.tracer.Fault(obs.FaultPortDegraded, f.Node, 0, uint64(f.Port), f.Period, s.now)
	}
	return nil
}

// failTSB kills the down-link of the given region's TSB and re-homes every
// region that lost its bus onto the nearest surviving TSB. In-flight wormholes
// that already hold downstream VCs drain along their old path (the dead link
// only stops granting new traversals); headers not yet granted an output VC
// are re-resolved so nothing keeps aiming at the dead link.
func (s *Simulator) failTSB(region int) error {
	if s.layout == nil {
		return fmt.Errorf("sim: TSB failure for region %d but no region layout", region)
	}
	t := s.layout.TSBCore(region)
	if s.failedTSBs[t] {
		return nil // already dead
	}
	if err := s.routing.FailDown(t); err != nil {
		return err
	}
	s.failedTSBs[t] = true
	s.freport.TSBsFailed++
	if s.cfg.Scheme.Restricted() {
		m, rehomed, err := s.layout.RehomedTSBMap(s.failedTSBs)
		if err != nil {
			return err
		}
		if err := s.routing.UpdateTSBMap(m); err != nil {
			return err
		}
		s.freport.RegionsRehomed = uint64(rehomed)
		if s.parents != nil {
			// Keep the bank-aware re-ordering points on the routes requests
			// actually take after re-homing.
			s.parents.Rebuild(m)
		}
	}
	s.net.RecomputeRoutes()
	s.tracer.Fault(obs.FaultTSBKilled, t, 0, uint64(region), s.freport.RegionsRehomed, s.now)
	return nil
}

// tick admits queued memory requests (respecting the per-processor quota)
// and completes DRAM accesses.
func (m *mcWrapper) tick(now uint64) {
	kept := m.inbox[:0]
	for _, p := range m.inbox {
		op := mem.OpRead
		proc := p.Proc
		if p.IsBankWrite || p.SizeFlits == noc.DataPacketFlits {
			op = mem.OpWrite
			// Writebacks carry no processor context; charge the per-source
			// quota of the evicting bank instead.
			proc = int(p.Src)
		}
		m.nextID++
		req := m.newRequest()
		*req = mem.Request{Op: op, Addr: p.Addr, ID: m.nextID, Proc: proc}
		if !m.mc.Enqueue(req, now) {
			m.nextID--
			m.reqFree = append(m.reqFree, req)
			kept = append(kept, p)
			continue
		}
		m.pending[req.ID] = p
	}
	m.inbox = kept
	for _, c := range m.mc.Tick(now) {
		orig := m.pending[c.Req.ID]
		delete(m.pending, c.Req.ID)
		m.reqFree = append(m.reqFree, c.Req)
		if c.Req.Op == mem.OpRead {
			m.outbox = append(m.outbox, m.pool.NewFrom(noc.Packet{
				Kind: noc.KindMemResp, Src: m.node, Dst: orig.Src,
				Addr: orig.Addr, Proc: orig.Proc, IsBankWrite: true,
			}))
		}
		m.pool.Put(orig)
	}
}

// newRequest draws a mem.Request from the wrapper's free list.
func (m *mcWrapper) newRequest() *mem.Request {
	if n := len(m.reqFree); n > 0 {
		r := m.reqFree[n-1]
		m.reqFree = m.reqFree[:n-1]
		return r
	}
	return new(mem.Request)
}

// sampleRouters records, for every cache-layer router, how many buffered
// demand requests sit H hops from their destination (Figure 3 insets and
// Figure 13a).
func (s *Simulator) sampleRouters() {
	var counts [4]int
	var routersWithReqs int
	for id := noc.NodeID(s.topo.LayerSize()); int(id) < s.topo.NumNodes(); id++ {
		n := 0
		var perHop [4]int
		s.net.Router(id).ForEachBufferedPacket(func(p *noc.Packet) {
			if p.Kind != noc.KindReadReq && p.Kind != noc.KindWriteReq {
				return
			}
			if s.topo.Layer(p.Dst) == 0 {
				return
			}
			// In-layer Manhattan distance plus the remaining stack descent —
			// identical to the original cache-layer distance on the default
			// two-layer shape.
			d := s.topo.SameLayerDistance(id, p.Dst)
			if dl := s.topo.Layer(p.Dst) - s.topo.Layer(id); dl > 0 {
				d += dl
			} else {
				d -= dl
			}
			if d >= 1 && d <= 3 {
				perHop[d]++
				n++
			}
		})
		if n > 0 {
			routersWithReqs++
			for h := 1; h <= 3; h++ {
				counts[h] += perHop[h]
			}
		}
	}
	if routersWithReqs > 0 {
		for h := 1; h <= 3; h++ {
			s.hopReqs[h].Observe(float64(counts[h]) / float64(routersWithReqs))
		}
	}
}

// resetStats clears all measurement state at the warmup boundary.
func (s *Simulator) resetStats() {
	s.net.ResetStats()
	for _, c := range s.cores {
		c.ResetStats()
	}
	for _, bc := range s.banks {
		bc.ResetStats()
		bc.Bank().ResetStats()
	}
	for _, mcw := range s.mcs {
		mcw.mc.ResetStats()
	}
	s.latency.Reset()
	s.gapHist.Reset()
	for h := range s.hopReqs {
		s.hopReqs[h].Reset()
	}
	if s.faults != nil {
		s.faults.ResetStats()
	}
	s.metrics.Reset()
}
