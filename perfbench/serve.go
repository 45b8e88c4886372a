package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sttsim/internal/campaign"
	"sttsim/internal/failpoint"
	"sttsim/internal/service"
	"sttsim/internal/sim"
	"sttsim/pkg/sttsim"
)

// The serve-mixed load: an open loop at serveRate arrivals per second for
// the run's budget. Arrival i is due at (i + 1/2 + j)/serveRate with a
// seeded jitter j uniform in ±serveJitter. serveRate is about a third of
// the highest rate this mix sustained on a 2-CPU Xeon host (see README.md).
const (
	serveRate    = 12.0
	serveJitter  = 0.4
	serveSetups  = 15
	servePoll    = 10 * time.Millisecond
	serveWarmup  = 500
	serveMeasure = 1500

	fracInvalid = 0.05
	fracDupNear = 0.10
	fracDupFar  = 0.30
	// A duplicate re-submits the unique scheduled this many uniques earlier:
	// near duplicates usually join the in-flight run, far ones hit the
	// result cache.
	lagNear = 1
	lagFar  = 16
)

// serveCombos are the unique jobs' scheme and benchmark, used round-robin
// so every seed runs the same mix.
var serveCombos = [][2]string{{"wb", "tpcc"}, {"sram", "gcc"}, {"stt4", "milc"}}

type subKind int

const (
	kindUnique subKind = iota
	kindDupNear
	kindDupFar
	kindInvalid
)

func (k subKind) String() string {
	return [...]string{"unique", "dup-near", "dup-far", "invalid"}[k]
}

// plannedSub is one scheduled submission.
type plannedSub struct {
	at     time.Duration // send time from the start of the load
	kind   subKind
	spec   sttsim.JobSpec
	target int // for duplicates: index of the unique submission it repeats
}

// planServe precomputes the whole schedule from the seed: arrival times,
// the unique/duplicate/invalid mix and every spec.
func planServe(seed int64, seconds int) []plannedSub {
	rng := rand.New(rand.NewSource(seed))
	var plan []plannedSub
	var uniques []int
	for i := 0; ; i++ {
		t := (float64(i) + 0.5 + serveJitter*(2*rng.Float64()-1)) / serveRate
		if t >= float64(seconds) {
			return plan
		}
		s := plannedSub{at: time.Duration(t * float64(time.Second))}
		u := rng.Float64()
		switch {
		case u < fracInvalid:
			s.kind = kindInvalid
			// Passes client-side validation; only the server knows the
			// benchmark does not exist, so this must come back 400.
			s.spec = sttsim.JobSpec{Scheme: "stt4", Bench: fmt.Sprintf("no-such-bench-%d", len(plan))}
		case u < fracInvalid+fracDupNear && len(uniques) >= lagNear:
			s.kind, s.target = kindDupNear, uniques[len(uniques)-lagNear]
		case u < fracInvalid+fracDupNear+fracDupFar && len(uniques) >= lagFar:
			s.kind, s.target = kindDupFar, uniques[len(uniques)-lagFar]
		default:
			c := serveCombos[len(uniques)%len(serveCombos)]
			s.spec = sttsim.JobSpec{
				Scheme: c[0], Bench: c[1], Seed: rng.Uint64()>>1 | 1,
				WarmupCycles: serveWarmup, MeasureCycles: serveMeasure,
			}
			uniques = append(uniques, len(plan))
		}
		if s.kind == kindDupNear || s.kind == kindDupFar {
			s.spec = plan[s.target].spec
		}
		plan = append(plan, s)
	}
}

// subResult is what the client observed for one submission.
type subResult struct {
	sent, submitted, terminal time.Time
	late                      time.Duration
	status                    sttsim.JobStatus
	waited                    bool
	resultSHA                 [32]byte
	ipc, uncore               float64
	err                       error
}

// runRecord is one simulator run the engine executed.
type runRecord struct {
	start, end time.Time
	cycles     uint64
}

// layerLog collects the engine-side observations of one serve run.
type layerLog struct {
	mu     sync.Mutex
	runs   map[string]runRecord // by config fingerprint
	writes []time.Duration
	syncs  []time.Duration
	ioSpan []span // journal write/fsync intervals, absolute times
}

func (l *layerLog) runFunc(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
	t0 := time.Now()
	res, err := sim.RunContext(ctx, cfg)
	t1 := time.Now()
	l.mu.Lock()
	l.runs[cfg.Fingerprint()] = runRecord{t0, t1, cfg.WarmupCycles + cfg.MeasureCycles}
	l.mu.Unlock()
	return res, err
}

func (l *layerLog) io(name string, t0, t1 time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if name == "campaign.fsync" {
		l.syncs = append(l.syncs, t1.Sub(t0))
	} else {
		l.writes = append(l.writes, t1.Sub(t0))
	}
	l.ioSpan = append(l.ioSpan, span{Name: name, Start: t0.UnixNano(), End: t1.UnixNano()})
}

// timedFS times the journal's writes and fsyncs on the real filesystem.
type timedFS struct {
	failpoint.OSFS
	log *layerLog
}

func (t timedFS) OpenFile(name string, flag int, perm fs.FileMode) (failpoint.File, error) {
	f, err := t.OSFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return timedFile{f, t.log}, nil
}

type timedFile struct {
	failpoint.File
	log *layerLog
}

func (f timedFile) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := f.File.Write(p)
	f.log.io("campaign.journal_write", t0, time.Now())
	return n, err
}

func (f timedFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	f.log.io("campaign.fsync", t0, time.Now())
	return err
}

// pollCounter counts job-status polls (GET /v1/jobs/{id}, which only
// Client.Wait issues here) on the client's connections.
type pollCounter struct {
	inner http.RoundTripper
	polls atomic.Int64
}

func (c *pollCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method == http.MethodGet && strings.HasPrefix(req.URL.Path, "/v1/jobs/") &&
		!strings.HasSuffix(req.URL.Path, "/result") {
		c.polls.Add(1)
	}
	return c.inner.RoundTrip(req)
}

// daemon is an in-process standalone sttsimd: engine, checkpoint journal,
// service and HTTP listener.
type daemon struct {
	eng    *campaign.Engine
	srv    *service.Server
	hs     *http.Server
	served chan error
	url    string
}

// startDaemon builds a daemon the way cmd/sttsimd does in standalone mode
// with its default journal settings, and waits until /v1/healthz/ready
// answers.
func startDaemon(ctx context.Context, dir string, jobs int, fsys failpoint.FS, run campaign.RunFunc, hc *http.Client) (*daemon, error) {
	sync, err := campaign.ParseSyncPolicy("interval")
	if err != nil {
		return nil, err
	}
	eng := campaign.New(campaign.Policy{Jobs: jobs})
	jrn, err := campaign.OpenJournalWith(filepath.Join(dir, "journal.jsonl"), false, campaign.JournalOptions{
		Sync: sync, SyncEvery: time.Second, MaxBytes: 64 << 20, FS: fsys,
	})
	if err != nil {
		return nil, err
	}
	eng.AttachJournal(jrn)
	srv, err := service.NewServer(service.Options{Engine: eng, Journal: jrn, Version: "perfbench", Run: run})
	if err != nil {
		eng.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		eng.Close()
		return nil, err
	}
	d := &daemon{eng: eng, srv: srv, hs: &http.Server{Handler: srv.Handler()}, served: make(chan error, 1),
		url: "http://" + ln.Addr().String()}
	go func() { d.served <- d.hs.Serve(ln) }()
	client, err := sttsim.New(d.url, sttsim.WithHTTPClient(hc), sttsim.WithRetry(1, 0, 0))
	if err == nil {
		_, err = client.Ready(ctx)
	}
	if err != nil {
		d.stop()
		return nil, fmt.Errorf("daemon not ready: %w", err)
	}
	return d, nil
}

// stop drains the service, closes the listener and waits for the engine
// and its journal to close.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	derr := d.srv.Drain(ctx)
	serr := d.hs.Shutdown(ctx)
	<-d.served
	return errors.Join(derr, serr, d.eng.Close())
}

// runServe runs the serve-mixed workload.
func runServe(p params, h host) (*outcome, error) {
	o := newOutcome()
	nproc := runtime.NumCPU()
	tmp := filepath.Join(outDir, fmt.Sprintf("serve-%d", os.Getpid()))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	// The load uses at most nproc client connections.
	counter := &pollCounter{inner: &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc}}
	hc := &http.Client{Timeout: 60 * time.Second, Transport: counter}
	defer hc.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(p.seconds)*time.Second+90*time.Second)
	defer cancel()

	ll := &layerLog{runs: map[string]runRecord{}}
	var fsys failpoint.FS = failpoint.OSFS{}
	if p.trace {
		fsys = timedFS{log: ll}
	}

	// Set-up: construct the daemon several times and keep the last one.
	var baseHeap runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&baseHeap)
	var setups []float64
	var d *daemon
	for i := 0; i < serveSetups; i++ {
		dir := filepath.Join(tmp, fmt.Sprint(i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		t0 := time.Now()
		nd, err := startDaemon(ctx, dir, nproc, fsys, ll.runFunc, hc)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < serveSetups-1 {
			if err := nd.stop(); err != nil {
				return nil, fmt.Errorf("stop daemon: %w", err)
			}
		} else {
			d = nd
		}
	}
	ll.mu.Lock()
	ll.writes, ll.syncs, ll.ioSpan = nil, nil, nil
	ll.mu.Unlock()
	client, err := sttsim.New(d.url, sttsim.WithHTTPClient(hc), sttsim.WithRetry(1, 0, 0), sttsim.WithPollInterval(servePoll))
	if err != nil {
		d.stop()
		return nil, err
	}

	plan := planServe(p.seed, p.seconds)
	results := make([]subResult, len(plan))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	var wg sync.WaitGroup
	for i := range plan {
		due := start.Add(plan[i].at)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			results[i] = submitOne(ctx, client, plan[i], due)
		}(i, due)
	}
	wg.Wait()
	loadEnd := time.Now()
	runtime.ReadMemStats(&m1)
	stats, serr := client.Stats(ctx)
	runtime.GC()
	var heap runtime.MemStats
	runtime.ReadMemStats(&heap)
	if err := d.stop(); err != nil {
		o.breakRun("stop daemon: %v", err)
	}
	if serr != nil {
		return nil, fmt.Errorf("stats: %w", serr)
	}

	// Output checks: every submission is one attempted operation.
	var (
		uniques                             int
		e2e, runS, ipc, uncore, lates       []float64
		simulated                           = map[int][2]float64{} // by the config's unique index
		subMiss, subHit, subInvalid, subAll []float64
		queueWait                           []float64
		cycles                              uint64
		runWall                             time.Duration
		succeeded, hits, dedups, waits      int
	)
	for i, s := range plan {
		r := results[i]
		o.attempted++
		lates = append(lates, float64(r.late)/1e6)
		rtt := r.submitted.Sub(r.sent).Seconds() * 1e3
		if s.kind == kindInvalid {
			var apiErr *sttsim.APIError
			if errors.As(r.err, &apiErr) && apiErr.StatusCode == http.StatusBadRequest {
				subInvalid = append(subInvalid, rtt)
				subAll = append(subAll, rtt)
				succeeded++
			} else {
				o.fail("invalid submission %d: want 400, got status %+v err %v", i, r.status, r.err)
			}
			continue
		}
		if r.err != nil {
			o.fail("%s submission %d: %v", s.kind, i, r.err)
			continue
		}
		if r.status.State != sttsim.StateDone {
			o.fail("%s submission %d ended %s: %s", s.kind, i, r.status.State, r.status.Error)
			continue
		}
		if first := results[s.target].resultSHA; s.kind != kindUnique && first != ([32]byte{}) && r.resultSHA != first {
			o.fail("%s submission %d: result bytes differ from the first execution's", s.kind, i)
			continue
		}
		succeeded++
		subAll = append(subAll, rtt)
		if r.waited {
			waits++
		}
		switch {
		case r.status.CacheHit:
			hits++
			subHit = append(subHit, rtt)
		default:
			subMiss = append(subMiss, rtt)
		}
		if r.status.Deduped {
			dedups++
		}
		if s.kind == kindUnique {
			uniques++
		}
		if r.status.CacheHit || r.status.Deduped {
			continue // not executed by this submission
		}
		e2e = append(e2e, r.terminal.Sub(start.Add(s.at)).Seconds())
		key := i
		if s.kind != kindUnique {
			key = s.target
		}
		simulated[key] = [2]float64{r.ipc, r.uncore}
		if rr, ok := ll.runs[r.status.Key]; ok {
			runS = append(runS, rr.end.Sub(rr.start).Seconds())
			runWall += rr.end.Sub(rr.start)
			cycles += rr.cycles
			queueWait = append(queueWait, rr.start.Sub(r.sent).Seconds()*1e3)
		}
	}
	// Average the simulated metrics in schedule order of their configuration,
	// whichever submission executed it, so one seed gives bit-identical means.
	keys := make([]int, 0, len(simulated))
	for k := range simulated {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		ipc = append(ipc, simulated[k][0])
		uncore = append(uncore, simulated[k][1])
	}
	if stats.Engine.Executed > uint64(uniques) {
		o.breakRun("engine executed %d runs for %d unique configurations", stats.Engine.Executed, uniques)
	}
	if len(e2e) == 0 || len(runS) == 0 {
		return nil, fmt.Errorf("no executed job completed")
	}
	fmt.Printf("serve: %d sent, %d succeeded, %d failed; %d unique, %d executed, %d cache hits, %d dedup joins; generator late p99 %.2fms; load %.1fs at %.0f/s\n",
		len(plan), succeeded, o.failed, uniques, stats.Engine.Executed, hits, dedups,
		quantile(lates, 0.99), loadEnd.Sub(start).Seconds(), serveRate)
	fmt.Printf("serve: e2e of %d executed jobs: p50 %.1fms p75 %.1fms p90 %.1fms p95 %.1fms p99 %.1fms; submit p50 %.2fms\n",
		len(e2e), quantile(e2e, 0.5)*1e3, quantile(e2e, 0.75)*1e3, quantile(e2e, 0.9)*1e3,
		quantile(e2e, 0.95)*1e3, quantile(e2e, 0.99)*1e3, median(subAll))

	if !p.trace {
		o.set("setup_s", "s", median(setups), len(setups))
		o.set("run_s", "s", median(runS), len(runS))
		o.set("sim_cycles_per_s", "1/s", float64(cycles)/runWall.Seconds(), len(runS))
		o.set("run_alloc_mb", "MB", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20)/float64(len(runS)), len(runS))
		o.set("sim_heap_mb", "MB", float64(int64(heap.HeapAlloc)-int64(baseHeap.HeapAlloc))/(1<<20)/float64(len(runS)), len(runS))
		o.set("ipc_total", "instr/cycle", mean(ipc), len(ipc))
		o.set("uncore_latency_cycles", "cycles", mean(uncore), len(uncore))
		o.set("e2e_p50_s", "s", median(e2e), len(e2e))
		o.set("e2e_p95_s", "s", quantile(e2e, 0.95), len(e2e))
		return o, nil
	}

	var runMS []float64
	for _, r := range runS {
		runMS = append(runMS, r*1e3)
	}
	o.set("campaign.queue_wait_ms", "ms", median(queueWait), len(queueWait))
	o.set("campaign.run_ms", "ms", median(runMS), len(runMS))
	o.set("campaign.executed", "count", float64(stats.Engine.Executed), 1)
	ll.mu.Lock()
	o.set("campaign.journal_write_ms", "ms", median(durationsMS(ll.writes)), len(ll.writes))
	o.set("campaign.fsync_ms", "ms", median(durationsMS(ll.syncs)), len(ll.syncs))
	ll.mu.Unlock()
	o.set("service.submit_miss_ms", "ms", median(subMiss), len(subMiss))
	o.set("service.submit_hit_ms", "ms", median(subHit), len(subHit))
	o.set("service.submit_invalid_ms", "ms", median(subInvalid), len(subInvalid))
	o.set("service.submit_p99_ms", "ms", quantile(subAll, 0.99), len(subAll))
	o.set("service.hit_p99_ms", "ms", quantile(subHit, 0.99), len(subHit))
	o.set("service.cache_hit_ratio", "ratio", stats.Cache.HitRatio, 1)
	o.set("service.deduped", "count", float64(dedups), 1)
	if waits > 0 {
		o.set("sttsim.wait_polls", "count", float64(counter.polls.Load())/float64(waits), waits)
	}
	o.set("serve.late_p99_ms", "ms", quantile(lates, 0.99), len(lates))
	o.set("serve.sent", "count", float64(len(plan)), 1)
	o.set("serve.succeeded", "count", float64(succeeded), 1)
	o.set("serve.failed", "count", float64(o.failed), 1)

	spans := newSpanLog()
	spans.t0 = start
	for i, s := range plan {
		r := results[i]
		if r.sent.IsZero() {
			continue
		}
		trace := fmt.Sprintf("job-%d", i)
		end := r.terminal
		if end.IsZero() {
			end = r.submitted
		}
		root := spans.add(trace, "serve.job."+s.kind.String(), 0, start.Add(s.at), end)
		spans.add(trace, "sttsim.Submit", root, r.sent, r.submitted)
		if r.waited {
			spans.add(trace, "sttsim.Wait", root, r.submitted, r.terminal)
		}
		if r.waited && !r.status.Deduped {
			if rr, ok := ll.runs[r.status.Key]; ok {
				spans.add(trace, "campaign.queue_wait", root, r.sent, rr.start)
				spans.add(trace, "campaign.run", root, rr.start, rr.end)
			}
		}
	}
	ll.mu.Lock()
	for _, io := range ll.ioSpan {
		spans.add("journal", io.Name, 0, time.Unix(0, io.Start), time.Unix(0, io.End))
	}
	ll.mu.Unlock()
	if err := spans.write(fmt.Sprintf("spans-%s-seed%d.jsonl", p.workload, p.seed), h, os.Stdout); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	return o, nil
}

// submitOne sends one planned submission at its due time, waits for a
// terminal state and fetches the result bytes.
func submitOne(ctx context.Context, client *sttsim.Client, s plannedSub, due time.Time) subResult {
	var r subResult
	r.sent = time.Now()
	r.late = r.sent.Sub(due)
	r.status, r.err = client.Submit(ctx, s.spec)
	r.submitted = time.Now()
	if r.err != nil {
		return r
	}
	if !r.status.Terminal() {
		r.waited = true
		r.status, r.err = client.Wait(ctx, r.status.ID)
		if r.err != nil {
			return r
		}
	}
	r.terminal = time.Now()
	if r.status.State != sttsim.StateDone {
		return r
	}
	data, err := client.Result(ctx, r.status.ID)
	if err != nil {
		r.err = fmt.Errorf("fetch result: %w", err)
		return r
	}
	r.resultSHA = sha256.Sum256(data)
	if !r.status.CacheHit && !r.status.Deduped {
		var res sim.Result
		if err := json.Unmarshal(data, &res); err != nil {
			r.err = fmt.Errorf("decode result: %w", err)
			return r
		}
		r.ipc, r.uncore = res.InstructionThroughput, res.UncoreLatency()
	}
	return r
}

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}
