package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"sttsim/internal/campaign"
	"sttsim/internal/dist"
	"sttsim/internal/sim"
)

// Options tunes the server. Engine is required; everything else defaults.
type Options struct {
	// Engine executes the jobs and memoizes their outcomes: its memo is the
	// server's only result store. The caller owns its lifecycle (journal
	// attachment, Preload, Close); Drain interrupts it only when the grace
	// period expires.
	Engine *campaign.Engine

	// MaxQueue bounds queued+running jobs; beyond it POST /v1/jobs returns
	// 429 with Retry-After (backpressure). Default 64.
	MaxQueue int
	// RatePerSec / RateBurst is the per-client token bucket; 0 disables.
	RatePerSec float64
	RateBurst  int
	// MaxJobs bounds retained job records; oldest terminal jobs are evicted
	// first (default 4096).
	MaxJobs int
	// MaxBodyBytes bounds request bodies (default 1 MiB).
	MaxBodyBytes int64
	// Version is reported by /v1/healthz.
	Version string
	// Run executes one simulation (default sim.RunContext) — test hook.
	Run campaign.RunFunc
	// Dist switches the server into coordinator mode: jobs execute on the
	// lease table's remote workers instead of in-process, and the worker
	// protocol routes are mounted. nil = standalone.
	Dist *dist.Table
	// Journal, when set, lets the server observe the checkpoint journal's
	// health: /v1/stats reports its counters, and a degraded journal (disk
	// full, failed fsync) flips /ready to 503 and rejects new jobs while
	// finished configurations keep serving. The engine still owns the
	// journal's lifecycle; this is a read-only view.
	Journal *campaign.Journal
	// Logf receives operational diagnostics (default: discarded).
	Logf func(format string, args ...any)
}

const (
	// requestTimeout bounds non-streaming handlers.
	requestTimeout = 30 * time.Second
	// progressInterval is the cycle period of streamed progress snapshots;
	// metricsInterval the probe sampling period of streamed jobs.
	progressInterval = 1000
	metricsInterval  = 1000
)

func (o Options) withDefaults() Options {
	if o.MaxQueue <= 0 {
		o.MaxQueue = 64
	}
	if o.MaxJobs <= 0 {
		o.MaxJobs = 4096
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 1 << 20
	}
	if o.Run == nil {
		o.Run = func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
			return sim.RunContext(ctx, cfg)
		}
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// job is the server-side record of one submission.
type job struct {
	id     string
	key    string
	scheme string
	bench  string
	stream bool

	created time.Time

	// Guarded by Server.mu.
	state    string
	cacheHit bool
	deduped  bool
	errMsg   string
	cause    string
	summary  string
	finished time.Time

	handle *campaign.Handle
	done   chan struct{} // closed exactly once, at the terminal transition
}

// Server is the simulation-as-a-service HTTP layer.
type Server struct {
	opts    Options
	eng     *campaign.Engine
	hub     *Hub
	limiter *RateLimiter
	dist    *dist.Table // nil in standalone mode
	journal *campaign.Journal
	start   time.Time
	now     func() time.Time // test hook

	drainCh   chan struct{} // closed when Drain starts: releases worker long-polls
	drainOnce sync.Once

	mu        sync.Mutex
	jobs      map[string]*job
	order     []string // insertion order, for listing and bounded retention
	pending   int      // queued+running (the backpressure gauge)
	draining  bool
	latencies map[string][]float64 // per-scheme execution wall seconds
	// hits and misses count valid submissions answered from the memo and
	// those that were not.
	hits, misses uint64
}

// latencySamples bounds the per-scheme latency reservoir.
const latencySamples = 512

// NewServer builds the service on top of an engine.
func NewServer(opts Options) (*Server, error) {
	if opts.Engine == nil {
		return nil, errors.New("service: Options.Engine is required")
	}
	opts = opts.withDefaults()
	s := &Server{
		opts:      opts,
		eng:       opts.Engine,
		hub:       NewHub(),
		limiter:   NewRateLimiter(opts.RatePerSec, opts.RateBurst),
		dist:      opts.Dist,
		journal:   opts.Journal,
		start:     time.Now(),
		now:       time.Now,
		drainCh:   make(chan struct{}),
		jobs:      make(map[string]*job),
		latencies: make(map[string][]float64),
	}
	if s.dist != nil {
		s.wireDist()
	}
	return s, nil
}

// Handler returns the service's HTTP routes. Non-streaming routes run under
// requestTimeout; the SSE route manages its own lifetime.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/healthz/live", s.handleLive)
	mux.HandleFunc("GET /v1/healthz/ready", s.handleReady)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	if s.dist != nil {
		// Worker protocol. Lease long-polls manage their own lifetime (like
		// SSE) and completions carry whole results, so both bypass the
		// request timeout and the default body cap.
		mux.HandleFunc("POST "+dist.PathHeartbeat, s.handleWorkerHeartbeat)
	}

	sse := http.HandlerFunc(s.handleEvents)
	timed := http.Handler(timeoutMiddleware(mux, requestTimeout))
	root := http.NewServeMux()
	root.Handle("GET /v1/jobs/{id}/events", s.recoverMiddleware(sse))
	if s.dist != nil {
		root.Handle("POST "+dist.PathLease, s.recoverMiddleware(http.HandlerFunc(s.handleWorkerLease)))
		root.Handle("POST "+dist.PathComplete, s.recoverMiddleware(http.HandlerFunc(s.handleWorkerComplete)))
	}
	root.Handle("/", s.recoverMiddleware(timed))
	return jsonErrorMiddleware(root)
}

// jsonErrorMiddleware rewrites the mux's plain-text 404/405 answers into the
// uniform JSON error envelope, so every error a client sees decodes as
// apiError. Handlers that already wrote JSON (writeError sets Content-Type
// before the status) pass through untouched.
func jsonErrorMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		next.ServeHTTP(&jsonErrorWriter{ResponseWriter: w}, r)
	})
}

type jsonErrorWriter struct {
	http.ResponseWriter
	wrote   bool
	rewrote bool // swallowing a plain-text body; JSON already sent
}

func (jw *jsonErrorWriter) WriteHeader(code int) {
	if jw.wrote {
		return
	}
	jw.wrote = true
	if (code == http.StatusNotFound || code == http.StatusMethodNotAllowed) &&
		!strings.HasPrefix(jw.Header().Get("Content-Type"), "application/json") {
		jw.rewrote = true
		jw.Header().Set("Content-Type", "application/json")
		jw.ResponseWriter.WriteHeader(code)
		msg := "not found"
		if code == http.StatusMethodNotAllowed {
			msg = "method not allowed"
		}
		json.NewEncoder(jw.ResponseWriter).Encode(apiError{Message: msg})
		return
	}
	jw.ResponseWriter.WriteHeader(code)
}

func (jw *jsonErrorWriter) Write(p []byte) (int, error) {
	if jw.rewrote {
		return len(p), nil
	}
	jw.wrote = true
	return jw.ResponseWriter.Write(p)
}

// Flush keeps the SSE route streaming through the wrapper.
func (jw *jsonErrorWriter) Flush() {
	if fl, ok := jw.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// recoverMiddleware turns a handler panic into a 500 instead of killing the
// connection without a response (the workers themselves are panic-isolated
// by the campaign engine; this guards the HTTP surface).
func (s *Server) recoverMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.opts.Logf("service: panic in %s %s: %v", r.Method, r.URL.Path, rec)
				writeError(w, http.StatusInternalServerError, "internal error", 0)
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// timeoutMiddleware bounds a request's context; handlers observing the
// context (and the eventual write) inherit the deadline.
func timeoutMiddleware(next http.Handler, d time.Duration) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// handleSubmit is POST /v1/jobs.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if ok, wait := s.limiter.AllowWithRetry(clientKey(r)); !ok {
		retry := int(wait/time.Second) + 1 // ceil to whole header seconds
		w.Header().Set("Retry-After", fmt.Sprint(retry))
		writeError(w, http.StatusTooManyRequests, "rate limit exceeded", retry)
		return
	}
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeError(w, http.StatusServiceUnavailable, "draining: not accepting new jobs", 0)
		return
	}

	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("job body exceeds %d bytes", mbe.Limit), 0)
			return
		}
		writeError(w, http.StatusBadRequest, "invalid job body: "+err.Error(), 0)
		return
	}
	cfg, err := sim.FromSpec(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error(), 0)
		return
	}
	key := cfg.Fingerprint()

	j := &job{
		id:      newJobID(),
		key:     key,
		scheme:  cfg.Scheme.String(),
		bench:   cfg.Assignment.Name,
		stream:  spec.Stream,
		created: s.now(),
		done:    make(chan struct{}),
	}

	// A configuration the memo already finished is served without touching
	// the engine or the queue. A failed or in-flight key falls through and
	// joins the memo's call below.
	res, runErr, done := s.eng.Peek(key)
	hit := done && runErr == nil && res != nil
	s.mu.Lock()
	if hit {
		s.hits++
	} else {
		s.misses++
	}
	s.mu.Unlock()
	if hit {
		j.state = StateDone
		j.cacheHit = true
		j.summary = res.Summary()
		j.finished = s.now()
		close(j.done)
		s.addJob(j)
		writeJSON(w, http.StatusOK, s.status(j))
		return
	}

	// A degraded journal cannot persist new verdicts: keep serving finished
	// configurations (above) but refuse work whose outcome would silently
	// evaporate on the next restart.
	if err := s.journalDegraded(); err != nil {
		writeError(w, http.StatusServiceUnavailable, "journal degraded, serving cached results only: "+err.Error(), 0)
		return
	}

	// Backpressure: a full queue sheds load instead of absorbing it.
	s.mu.Lock()
	if s.pending >= s.opts.MaxQueue {
		s.mu.Unlock()
		retry := 1 + s.pending/8
		w.Header().Set("Retry-After", fmt.Sprint(retry))
		writeError(w, http.StatusTooManyRequests, "job queue is full", retry)
		return
	}
	s.pending++
	j.state = StateQueued
	s.mu.Unlock()

	// Streamed jobs attach the observability side channel; the memo key stays
	// the clean fingerprint because observation never perturbs results. In
	// coordinator mode the stream flag travels inside the lease instead — the
	// worker collects progress and ships it back in heartbeats.
	runCfg := cfg
	var run campaign.RunFunc
	if s.dist != nil {
		run = s.distRun(key, spec.Stream)
	} else {
		if spec.Stream {
			feed := newProgressFeed(s.hub, key, cfg)
			runCfg.Obs = &sim.ObsConfig{
				Sink:            feed.Sink(),
				MetricsInterval: metricsInterval,
				OnSample:        feed.OnSample,
			}
		}
		run = s.runFunc(key)
	}
	j.handle = s.eng.Submit(key, runCfg, run)
	j.deduped = j.handle.Joined
	s.addJob(j)
	go s.watch(j)
	writeJSON(w, http.StatusAccepted, s.status(j))
}

// runFunc builds the per-call executor: mark the key's jobs running, execute,
// and strip the streaming side channel so streamed and unstreamed runs of one
// configuration journal and serve byte-identical results.
func (s *Server) runFunc(key string) campaign.RunFunc {
	return func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
		s.markRunning(key)
		res, err := s.opts.Run(ctx, cfg)
		if res != nil {
			res.Metrics = nil
		}
		return res, err
	}
}

// markRunning flips key's queued jobs to running and tells subscribers.
func (s *Server) markRunning(key string) {
	s.mu.Lock()
	var started []*job
	for _, j := range s.jobs {
		if j.key == key && j.state == StateQueued {
			j.state = StateRunning
			started = append(started, j)
		}
	}
	s.mu.Unlock()
	for _, j := range started {
		s.hub.Publish(key, "status", s.status(j))
	}
}

// watch drives one job to its terminal state when its run completes.
func (s *Server) watch(j *job) {
	res, err := j.handle.Outcome()
	if err == nil && res != nil {
		s.finish(j, StateDone, res.Summary(), nil)
		if !j.handle.Joined {
			s.recordLatency(j)
		}
		return
	}
	state := StateFailed
	if campaign.Classify(err) == campaign.VerdictCancelled {
		state = StateCancelled
	}
	s.finish(j, state, "", err)
}

// finish applies the terminal transition exactly once and notifies
// subscribers. Safe to race with handleCancel.
func (s *Server) finish(j *job, state, summary string, err error) {
	s.mu.Lock()
	if j.state == StateDone || j.state == StateFailed || j.state == StateCancelled {
		s.mu.Unlock()
		return
	}
	j.state = state
	j.summary = summary
	if err != nil {
		j.errMsg = err.Error()
		j.cause = campaign.Cause(err)
	}
	j.finished = s.now()
	s.pending--
	s.mu.Unlock()
	close(j.done)
	typ := "done"
	if state == StateCancelled {
		typ = "status"
	}
	s.hub.Publish(j.key, typ, s.status(j))
}

// recordLatency folds one executed run's wall time into the per-scheme
// reservoir behind /v1/stats percentiles.
func (s *Server) recordLatency(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	secs := j.finished.Sub(j.created).Seconds()
	lat := append(s.latencies[j.scheme], secs)
	if len(lat) > latencySamples {
		lat = lat[len(lat)-latencySamples:]
	}
	s.latencies[j.scheme] = lat
}

// addJob registers a job, evicting the oldest terminal records beyond
// MaxJobs.
func (s *Server) addJob(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	if len(s.jobs) <= s.opts.MaxJobs {
		return
	}
	kept := s.order[:0]
	excess := len(s.jobs) - s.opts.MaxJobs
	for _, id := range s.order {
		old := s.jobs[id]
		if excess > 0 && old != nil && old.state != StateQueued && old.state != StateRunning {
			delete(s.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// handleGet is GET /v1/jobs/{id}.
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job", 0)
		return
	}
	writeJSON(w, http.StatusOK, s.status(j))
}

// handleResult is GET /v1/jobs/{id}/result: the memoized result, encoded
// on demand. Every client of one configuration reads the same immutable
// struct through deterministic encoding/json, so all receive identical
// bytes.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job", 0)
		return
	}
	s.mu.Lock()
	state := j.state
	s.mu.Unlock()
	if state != StateDone {
		writeError(w, http.StatusConflict, "job is "+state+", result not available", 0)
		return
	}
	res, err, done := s.eng.Peek(j.key)
	if !done || err != nil || res == nil {
		writeError(w, http.StatusInternalServerError, "result of a finished job is missing from the memo", 0)
		return
	}
	data, err := json.Marshal(res)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "marshal result: "+err.Error(), 0)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

// handleCancel is DELETE /v1/jobs/{id}: withdraw this job's interest. The
// underlying simulation stops only when every job that wanted it has
// cancelled.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job", 0)
		return
	}
	if j.handle != nil {
		j.handle.Cancel()
	}
	s.finish(j, StateCancelled, "", context.Canceled)
	writeJSON(w, http.StatusOK, s.status(j))
}

// handleList is GET /v1/jobs (most recent first, ?limit=N, default 100).
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	limit := 100
	if q := r.URL.Query().Get("limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("limit %q is not an integer", q), 0)
			return
		}
		limit = max(n, 1)
	}
	s.mu.Lock()
	var out []JobStatus
	for i := len(s.order) - 1; i >= 0 && len(out) < limit; i-- {
		if j, ok := s.jobs[s.order[i]]; ok {
			out = append(out, s.statusLocked(j))
		}
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

// handleEvents is GET /v1/jobs/{id}/events: the SSE feed — status
// transitions, periodic progress snapshots, live probe samples, and a final
// done event. Deduplicated jobs stream the progress of whichever identical
// run is actually executing.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job", 0)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported", 0)
		return
	}
	sub := s.hub.Subscribe(j.key)
	defer sub.Close()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	// Every event carries id: — the topic's sequence number — so a client
	// that reconnects can send Last-Event-ID and learn exactly how many
	// events it missed (dropped on overflow or published while it was gone).
	// Synthetic events (the snapshots below) carry the current sequence; hub
	// events carry the sequence assigned at publish.
	emit := func(typ string, payload any) {
		data, err := json.Marshal(payload)
		if err != nil {
			return
		}
		writeSSE(w, fl, s.hub.Seq(j.key), typ, data)
	}
	if lastSeen := r.Header.Get("Last-Event-ID"); lastSeen != "" {
		if lastID, perr := strconv.ParseUint(lastSeen, 10, 64); perr == nil {
			cur := s.hub.Seq(j.key)
			missed := uint64(0)
			if cur > lastID {
				missed = cur - lastID
			}
			emit("reconnect", map[string]uint64{
				"last_event_id":   lastID,
				"latest_event_id": cur,
				"missed_events":   missed,
			})
		}
	}
	st := s.status(j)
	emit("status", st)
	if terminal(st.State) {
		emit("done", st)
		return
	}

	heartbeat := time.NewTicker(15 * time.Second)
	defer heartbeat.Stop()
	for {
		select {
		case ev := <-sub.C:
			writeSSE(w, fl, ev.ID, ev.Type, ev.Data)
		case <-j.done:
			// Drain anything already buffered, then report this job's own
			// terminal state.
			for {
				select {
				case ev := <-sub.C:
					writeSSE(w, fl, ev.ID, ev.Type, ev.Data)
					continue
				default:
				}
				break
			}
			emit("done", s.status(j))
			return
		case <-r.Context().Done():
			return
		case <-heartbeat.C:
			io.WriteString(w, ": ping\n\n")
			fl.Flush()
		}
	}
}

// handleHealthz is GET /v1/healthz — the legacy combined endpoint, always
// 200 while the process serves (liveness semantics, with drain state in the
// body).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.health())
}

// handleLive is GET /v1/healthz/live: is the process serving at all? Always
// 200 — a live-but-draining daemon should not be restarted by its
// supervisor, which is exactly the distinction readiness exists to carry.
func (s *Server) handleLive(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.health())
}

// handleReady is GET /v1/healthz/ready: can this daemon make progress on a
// new job right now? 503 while draining (SIGTERM received, finishing the
// queue) and, in coordinator mode, while no worker has checked in within a
// lease timeout — queued work would sit forever, so load balancers should
// route elsewhere.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	h := s.health()
	code := http.StatusOK
	switch {
	case h.Status == "draining":
		code = http.StatusServiceUnavailable
	case s.journalDegraded() != nil:
		code = http.StatusServiceUnavailable
		h.Status = "journal degraded"
	case s.dist != nil && h.WorkersAlive == 0:
		code = http.StatusServiceUnavailable
		h.Status = "no workers"
	}
	writeJSON(w, code, h)
}

// journalDegraded reports the journal's terminal disk error, nil while
// healthy or when no journal is attached.
func (s *Server) journalDegraded() error {
	if s.journal == nil {
		return nil
	}
	return s.journal.Degraded()
}

// health assembles the shared health payload.
func (s *Server) health() Health {
	s.mu.Lock()
	h := Health{
		Status:     "ok",
		Version:    s.opts.Version,
		Mode:       "standalone",
		UptimeS:    time.Since(s.start).Seconds(),
		QueueDepth: s.pending,
		QueueMax:   s.opts.MaxQueue,
		Jobs:       len(s.jobs),
	}
	if s.draining {
		h.Status = "draining"
	}
	s.mu.Unlock()
	if s.dist != nil {
		h.Mode = "coordinator"
		h.WorkersAlive = s.dist.WorkersAlive()
	}
	return h
}

// handleStats is GET /v1/stats.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// Stats assembles the service counters: queue, cache, engine, latencies.
func (s *Server) Stats() Stats {
	es := s.eng.Stats()
	s.mu.Lock()
	st := Stats{
		UptimeS:       time.Since(s.start).Seconds(),
		QueueDepth:    s.pending,
		QueueMax:      s.opts.MaxQueue,
		JobsByState:   make(map[string]int),
		RateLimited:   s.limiter.Denied(),
		DroppedEvents: s.hub.Dropped(),
		Engine: EngineStats{
			Executed: es.Executed, Retries: es.Retries, MemoHits: es.Hits,
			Replayed: es.Replayed, Completed: es.Completed,
			Failed: es.Failed, Cancelled: es.Cancelled,
			JournalErrors: es.JournalErrors,
		},
		Schemes: make(map[string]LatencySummary),
	}
	for _, j := range s.jobs {
		st.JobsByState[j.state]++
	}
	for scheme, lat := range s.latencies {
		st.Schemes[scheme] = summarizeLatency(lat)
	}
	st.Cache = CacheStats{Hits: s.hits, Misses: s.misses}
	s.mu.Unlock()
	if total := st.Cache.Hits + st.Cache.Misses; total > 0 {
		st.Cache.HitRatio = float64(st.Cache.Hits) / float64(total)
	}
	if s.dist != nil {
		ds := s.dist.Snapshot()
		st.Dist = &ds
	}
	if s.journal != nil {
		js := s.journal.Stats()
		st.Journal = &JournalHealth{
			RecordsWritten: js.Appended,
			AppendErrors:   js.AppendErrors,
			SyncErrors:     js.SyncErrors,
			Compactions:    js.Compactions,
			SizeBytes:      js.SizeBytes,
			LastFsyncAgeS:  js.LastSyncAge.Seconds(),
			ReplayDropped:  js.ReplayDropped,
			TruncatedBytes: js.TruncatedBytes,
			SyncPolicy:     js.SyncPolicy,
			Degraded:       js.Degraded,
		}
		if js.LastSyncAge < 0 {
			st.Journal.LastFsyncAgeS = -1
		}
	}
	return st
}

// summarizeLatency computes mean and percentiles over a sample reservoir.
func summarizeLatency(samples []float64) LatencySummary {
	ls := LatencySummary{Count: len(samples)}
	if len(samples) == 0 {
		return ls
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	ls.MeanS = sum / float64(len(sorted))
	pct := func(p float64) float64 {
		i := int(p * float64(len(sorted)-1))
		return sorted[i]
	}
	ls.P50S, ls.P90S, ls.P99S = pct(0.50), pct(0.90), pct(0.99)
	return ls
}

// Drain gracefully shuts the service down: stop accepting jobs, wait for the
// queue to empty (journaling each completed run), and — only if ctx expires
// first — interrupt the engine so the remainder cancel at their next poll.
// The checkpoint journal keeps every verdict reached either way.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	// Release worker lease long-polls immediately: they answer a clean 204 +
	// Retry-After instead of dying with the listener, and their next poll
	// (wait=0 during drain) still hands out any queued work the drain is
	// waiting on.
	s.drainOnce.Do(func() { close(s.drainCh) })
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		s.mu.Lock()
		pending := s.pending
		s.mu.Unlock()
		if pending == 0 {
			s.eng.Drain()
			return nil
		}
		select {
		case <-ctx.Done():
			s.opts.Logf("service: drain grace expired with %d job(s) in flight; interrupting", pending)
			s.eng.Interrupt()
			s.eng.Drain()
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// lookup fetches a job by ID.
func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// status snapshots a job for the wire.
func (s *Server) status(j *job) JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statusLocked(j)
}

func (s *Server) statusLocked(j *job) JobStatus {
	st := JobStatus{
		ID: j.id, State: j.state, Key: j.key,
		Scheme: j.scheme, Bench: j.bench,
		CacheHit: j.cacheHit, Deduped: j.deduped, Stream: j.stream,
		Error: j.errMsg, Cause: j.cause, Summary: j.summary,
		CreatedAt: fmtTime(j.created),
	}
	end := j.finished
	if end.IsZero() {
		end = s.now()
	}
	st.Elapsed = end.Sub(j.created).Seconds()
	return st
}

// terminal reports whether a wire state is final.
func terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCancelled
}

// writeSSE emits one server-sent event (with its id) and flushes it.
func writeSSE(w io.Writer, fl http.Flusher, id uint64, typ string, data []byte) {
	fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", id, typ, data)
	fl.Flush()
}

// writeJSON writes a JSON response.
func writeJSON(w http.ResponseWriter, code int, payload any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(payload)
}

// writeError writes the uniform error envelope.
func writeError(w http.ResponseWriter, code int, msg string, retryAfter int) {
	writeJSON(w, code, apiError{Message: msg, RetryAfter: retryAfter})
}

// clientKey extracts the rate-limiting key (client IP) from a request.
func clientKey(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// newJobID mints a random job identifier.
func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("j%d", time.Now().UnixNano())
	}
	return "j" + hex.EncodeToString(b[:])
}
