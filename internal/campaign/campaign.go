// Package campaign is the supervised execution engine the experiment drivers
// submit simulation runs to. The paper's evaluation is a large campaign — 42
// benchmarks × six schemes × a dozen sweeps — and running it fail-fast on one
// goroutine makes the whole thing as fragile as its weakest run. The engine
// provides:
//
//   - one way in, Engine.Submit(key, cfg, run), which returns a Handle to the
//     (possibly shared) run; Run is Submit plus Outcome under cfg's
//     fingerprint, and a prefetch is Submit with the handle dropped;
//   - a bounded worker pool (Policy.Jobs, default GOMAXPROCS) with a
//     concurrency-safe, singleflight-deduplicated memo keyed by the
//     collision-proof sim.Config.Fingerprint, so sweeps sharing
//     configurations pay for each one exactly once no matter how many
//     goroutines ask;
//   - per-run supervision: a wall-clock timeout via context, recover() of
//     any panic into a typed *sim.RunError, and a retry policy — N attempts
//     with exponential backoff for watchdog/timeout verdicts, immediate
//     quarantine for deterministic failures (the same seed would just die
//     the same way again);
//   - an on-disk JSONL checkpoint journal (journal.go), opened by
//     Engine.OpenJournal, so an interrupted campaign replays finished runs
//     from disk and only executes the remainder;
//   - graceful drain: cancelling the engine's context (SIGINT/SIGTERM in
//     cmd/experiments) stops in-flight runs at their next cancellation poll,
//     leaves the journal flushed, and turns not-yet-started work into
//     cancelled verdicts the drivers render as FAILED(cancelled) cells
//     instead of aborting the campaign.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"sttsim/internal/noc"
	"sttsim/internal/sim"
)

// Policy tunes the engine's supervision.
type Policy struct {
	// Jobs bounds concurrent simulations; 0 means GOMAXPROCS.
	Jobs int
	// RunTimeout is the per-attempt wall-clock budget; 0 disables it.
	RunTimeout time.Duration
	// Attempts is the total tries for retryable verdicts (watchdog deadlock,
	// timeout); 0 means 2. Deterministic failures never retry.
	Attempts int
	// Backoff is the pause before the first retry, doubling per attempt;
	// 0 means 50ms.
	Backoff time.Duration
}

func (p Policy) withDefaults() Policy {
	if p.Jobs <= 0 {
		p.Jobs = runtime.GOMAXPROCS(0)
	}
	if p.Attempts <= 0 {
		p.Attempts = 2
	}
	if p.Backoff <= 0 {
		p.Backoff = 50 * time.Millisecond
	}
	return p
}

// RunFunc executes one simulation. The default is sim.RunContext; tests
// substitute fakes to exercise supervision without a full system build.
type RunFunc func(ctx context.Context, cfg sim.Config) (*sim.Result, error)

// Stats counts what the engine did. Snapshot via Engine.Stats.
type Stats struct {
	Executed  uint64 // simulation attempts actually run
	Retries   uint64 // attempts beyond the first for retryable verdicts
	Hits      uint64 // memo joins (in-flight or completed)
	Replayed  uint64 // runs restored from the checkpoint journal
	Completed uint64 // configs that finished with a result this process
	Failed    uint64 // configs that ended in a terminal error (incl. replayed failures)
	Cancelled uint64 // configs abandoned by campaign shutdown

	JournalErrors uint64 // terminal outcomes the journal failed to persist
}

// Verdict classifies a run failure for the retry policy.
type Verdict int

const (
	// VerdictOK: the run completed.
	VerdictOK Verdict = iota
	// VerdictRetryable: watchdog deadlock or wall-clock timeout — the only
	// failure modes with a load- or environment-dependent component, worth
	// Policy.Attempts tries.
	VerdictRetryable
	// VerdictFatal: deterministic — invariant violation, panic, config
	// rejection. Quarantined immediately: the memo (and journal) pin the
	// failure so no duplicate config re-executes it.
	VerdictFatal
	// VerdictCancelled: the campaign is draining; the run was abandoned, not
	// judged, and is never journaled (a resume re-executes it).
	VerdictCancelled
)

// RetryableError lets error types outside this package (e.g. the
// distribution layer's worker-reported failures) carry their own retry
// verdict across a process boundary, where errors.As against the concrete
// simulator types no longer works.
type RetryableError interface {
	error
	RetryableVerdict() bool
}

// CauseTokenError lets external error types carry their original short
// failure token (see Cause) across a process boundary.
type CauseTokenError interface {
	error
	CauseToken() string
}

// Classify maps a run error onto the retry policy.
func Classify(err error) Verdict {
	switch {
	case err == nil:
		return VerdictOK
	case errors.Is(err, context.Canceled):
		return VerdictCancelled
	case errors.Is(err, context.DeadlineExceeded):
		return VerdictRetryable
	}
	var re *ReplayedError
	if errors.As(err, &re) {
		return VerdictFatal // only fatal verdicts are replayed from disk
	}
	var dl *noc.DeadlockError
	if errors.As(err, &dl) {
		return VerdictRetryable
	}
	var rv RetryableError
	if errors.As(err, &rv) {
		if rv.RetryableVerdict() {
			return VerdictRetryable
		}
		return VerdictFatal
	}
	return VerdictFatal
}

// Cause renders a short failure token for table cells — FAILED(<cause>).
func Cause(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	case errors.Is(err, context.Canceled):
		return "cancelled"
	}
	var rp *ReplayedError
	if errors.As(err, &rp) {
		return rp.Token
	}
	var dl *noc.DeadlockError
	if errors.As(err, &dl) {
		return "deadlock"
	}
	var ct CauseTokenError
	if errors.As(err, &ct) {
		return ct.CauseToken()
	}
	var re *sim.RunError
	if errors.As(err, &re) {
		if strings.Contains(re.Err.Error(), "panic") {
			return "panic"
		}
		if re.Invariant != nil || strings.Contains(re.Err.Error(), "noc:") {
			return "invariant"
		}
		return "sim-error"
	}
	return "error"
}

// ReplayedError is a terminal failure restored from the checkpoint journal:
// the config was quarantined in a previous campaign and is not re-executed.
type ReplayedError struct {
	Token string // the original Cause token
	Msg   string // the original error text
}

// Error renders the replayed failure.
func (e *ReplayedError) Error() string {
	return fmt.Sprintf("replayed from checkpoint (%s): %s", e.Token, e.Msg)
}

// call is one singleflight slot: the first goroutine to claim a fingerprint
// executes it; everyone else waits on done.
type call struct {
	done chan struct{}
	res  *sim.Result
	err  error

	// cancel is the per-call cancel and refs the count of live handles, so a
	// run is abandoned only when every client that asked for it has walked
	// away.
	cancel context.CancelFunc
	refs   int
}

// Engine is the supervised, deduplicating, checkpointing run executor.
type Engine struct {
	policy Policy
	runFn  RunFunc
	ctx    context.Context
	cancel context.CancelFunc

	sem chan struct{}
	wg  sync.WaitGroup

	mu      sync.Mutex
	calls   map[string]*call
	journal *Journal
	stats   Stats
}

// New builds an engine with the given policy, rooted at the background
// context.
func New(p Policy) *Engine { return NewWithContext(context.Background(), p) }

// NewWithContext roots the engine at ctx: cancelling ctx (or Interrupt)
// drains the campaign — in-flight runs stop at their next poll, queued work
// reports VerdictCancelled.
func NewWithContext(ctx context.Context, p Policy) *Engine {
	p = p.withDefaults()
	ectx, cancel := context.WithCancel(ctx)
	return &Engine{
		policy: p,
		runFn:  func(ctx context.Context, cfg sim.Config) (*sim.Result, error) { return sim.RunContext(ctx, cfg) },
		ctx:    ectx,
		cancel: cancel,
		sem:    make(chan struct{}, p.Jobs),
		calls:  make(map[string]*call),
	}
}

// SetRunFunc substitutes the simulation executor — test hook.
func (e *Engine) SetRunFunc(fn RunFunc) { e.runFn = fn }

// AttachJournal routes every completed run into j. Call before submitting
// work.
func (e *Engine) AttachJournal(j *Journal) {
	e.mu.Lock()
	e.journal = j
	e.mu.Unlock()
}

// OpenJournal is the one way to give the engine a checkpoint journal at
// path. With resume set it loads the journal's intact records (through
// opts.FS) and preloads the memo with them; it then opens the file (resume
// keeps and tail-repairs it, otherwise it is truncated), records how many
// corrupt lines the load dropped in the journal's stats, and attaches it.
// The loaded records are returned (nil without resume) for callers that
// re-queue pending leases; Stats().Replayed counts what the memo took.
func (e *Engine) OpenJournal(path string, resume bool, opts JournalOptions) ([]Record, error) {
	opts = opts.withDefaults()
	var recs []Record
	dropped := 0
	if resume {
		var err error
		if recs, dropped, err = LoadJournalFS(opts.FS, path); err != nil {
			return nil, err
		}
		if dropped > 0 {
			opts.Logf("campaign: journal %s: dropped %d torn/corrupt line(s); the affected runs will re-execute", path, dropped)
		}
		e.Preload(recs)
	}
	j, err := OpenJournalWith(path, resume, opts)
	if err != nil {
		return nil, err
	}
	j.replayDropped = dropped
	e.AttachJournal(j)
	return recs, nil
}

// Journal returns the attached journal, nil when there is none.
func (e *Engine) Journal() *Journal {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.journal
}

// JournalRecord appends an arbitrary record to the attached journal — the
// distribution coordinator uses it for StatusLeased write-ahead entries. A
// no-op (and nil error) when no journal is attached.
func (e *Engine) JournalRecord(rec Record) error {
	j := e.Journal()
	if j == nil {
		return nil
	}
	return j.Append(rec)
}

// Preload seeds the memo from journal records (see OpenJournal): completed
// runs return their journaled result without executing; quarantined failures
// replay as *ReplayedError. Retryable failures (timeout, deadlock) are NOT
// preloaded — a resume retries them fresh. Later records win over earlier
// ones, matching append order. Returns the number of runs restored.
func (e *Engine) Preload(recs []Record) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, rec := range recs {
		if rec.Key == "" {
			continue
		}
		c := &call{done: make(chan struct{})}
		switch rec.Status {
		case StatusOK:
			if rec.Result == nil {
				continue
			}
			c.res = rec.Result
		case StatusFailed:
			if rec.Cause == "timeout" || rec.Cause == "deadlock" || rec.Cause == "cancelled" {
				continue // non-deterministic: re-execute on resume
			}
			c.err = &ReplayedError{Token: rec.Cause, Msg: rec.Error}
			e.stats.Failed++
		default:
			continue
		}
		close(c.done)
		if _, dup := e.calls[rec.Key]; !dup {
			n++
		}
		e.calls[rec.Key] = c
	}
	e.stats.Replayed += uint64(n)
	return n
}

// Run executes (or joins, or replays) the simulation cfg describes and
// blocks until its terminal outcome: Submit under cfg's fingerprint, then
// wait. Identical configurations — by fingerprint, across any number of
// goroutines — execute exactly once. A config that cannot be fingerprinted
// (an opaque GeneratorFactory or observability sinks; see sim.Config.Cacheable)
// is rejected: run it with sim.Run, or Submit it under the key of its clean
// configuration.
func (e *Engine) Run(cfg sim.Config) (*sim.Result, error) {
	if !cfg.Cacheable() {
		return nil, errors.New("campaign: config is not cacheable (GeneratorFactory or Obs set); run it with sim.Run or Submit it under an explicit key")
	}
	return e.Submit(cfg.Fingerprint(), cfg, nil).Outcome()
}

// Handle is one client's interest in a (possibly shared) keyed run — the
// exported subscribe hook the serving layer builds on. Multiple handles can
// share a call; the underlying run is cancelled only when every handle has
// been cancelled.
type Handle struct {
	// Key is the memo key the run executes (or executed) under.
	Key string
	// Joined reports whether an identical key was already in flight or
	// completed when the handle was created — the submission cost nothing.
	Joined bool

	e    *Engine
	c    *call
	once sync.Once
}

// Done is closed when the run has reached its terminal outcome.
func (h *Handle) Done() <-chan struct{} { return h.c.done }

// Outcome blocks until the run is done and returns its terminal result.
func (h *Handle) Outcome() (*sim.Result, error) {
	<-h.c.done
	return h.c.res, h.c.err
}

// Cancel withdraws this handle's interest. When the last interested handle
// cancels, the in-flight run itself is cancelled at its next poll; its
// abandoned verdict is evicted from the memo so a later identical submission
// re-executes. Cancel is idempotent and safe after completion.
func (h *Handle) Cancel() {
	h.once.Do(func() {
		h.e.mu.Lock()
		h.c.refs--
		abandon := h.c.refs <= 0
		cancel := h.c.cancel
		h.e.mu.Unlock()
		if abandon && cancel != nil {
			cancel()
		}
	})
}

// Submit queues cfg for background execution on the worker pool under an
// explicit memo key and returns a Handle to its outcome. If the key is
// already in flight or completed, the handle joins it (counted as a memo
// hit) and run is unused. It is the engine's one way in: Run is Submit plus
// Outcome, and the drivers' prefetch is Submit with the handle dropped.
//
// The explicit key lets a caller attach non-fingerprintable observers
// (sim.ObsConfig sinks) while still keying the memo and journal by the clean
// configuration's fingerprint: the observability layer guarantees observed
// and unobserved runs produce identical Results, so joiners of either kind
// see the same outcome. run, when non-nil, replaces the engine's RunFunc for
// this call only (the serving layer uses this to strip streaming side-
// channels before the result is journaled).
func (e *Engine) Submit(key string, cfg sim.Config, run RunFunc) *Handle {
	e.mu.Lock()
	if c, ok := e.calls[key]; ok {
		e.stats.Hits++
		c.refs++
		e.mu.Unlock()
		return &Handle{Key: key, Joined: true, e: e, c: c}
	}
	if run == nil {
		run = e.runFn
	}
	ctx, cancel := context.WithCancel(e.ctx)
	c := &call{done: make(chan struct{}), cancel: cancel, refs: 1}
	e.calls[key] = c
	e.mu.Unlock()
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		defer cancel()
		e.execute(ctx, run, cfg, key, c)
	}()
	return &Handle{Key: key, e: e, c: c}
}

// Peek reports whether key already has a terminal outcome in the memo,
// without joining or counting a hit. An in-flight key returns done=false.
func (e *Engine) Peek(key string) (res *sim.Result, err error, done bool) {
	e.mu.Lock()
	c, ok := e.calls[key]
	e.mu.Unlock()
	if !ok {
		return nil, nil, false
	}
	select {
	case <-c.done:
		return c.res, c.err, true
	default:
		return nil, nil, false
	}
}

// execute runs the claimed call to its terminal outcome and publishes it.
func (e *Engine) execute(ctx context.Context, run RunFunc, cfg sim.Config, key string, c *call) {
	res, err := e.supervised(ctx, run, cfg)
	c.res, c.err = res, err
	if Classify(err) == VerdictCancelled && !e.Interrupted() {
		// A per-call cancellation must not pin the abandoned verdict: a later
		// identical submission should execute fresh. A draining campaign
		// keeps it, so later joins report cancelled at once.
		e.mu.Lock()
		if e.calls[key] == c {
			delete(e.calls, key)
		}
		e.mu.Unlock()
	}
	// Journal and count before publishing: a client that observes a terminal
	// state is guaranteed the verdict is already durably appended (or counted
	// in JournalErrors) and in Stats, never in flight.
	e.journalOutcome(cfg, key, res, err)
	e.account(err)
	close(c.done)
}

// supervised applies the worker-pool bound, the per-attempt timeout, panic
// recovery, and the retry policy.
func (e *Engine) supervised(ctx context.Context, run RunFunc, cfg sim.Config) (*sim.Result, error) {
	select {
	case e.sem <- struct{}{}:
		defer func() { <-e.sem }()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	var res *sim.Result
	var err error
	for attempt := 1; ; attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		res, err = e.attempt(ctx, run, cfg)
		e.mu.Lock()
		e.stats.Executed++
		if attempt > 1 {
			e.stats.Retries++
		}
		e.mu.Unlock()
		if Classify(err) != VerdictRetryable || attempt >= e.policy.Attempts {
			return res, err
		}
		// Exponential backoff before the retry, abandoned on drain.
		t := time.NewTimer(e.policy.Backoff << (attempt - 1))
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return nil, ctx.Err()
		}
	}
}

// attempt executes one supervised try: timeout context plus recovery of any
// panic that escapes the simulator's own recover (e.g. in construction or
// result assembly) into a typed *sim.RunError.
func (e *Engine) attempt(ctx context.Context, run RunFunc, cfg sim.Config) (res *sim.Result, err error) {
	if e.policy.RunTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.policy.RunTimeout)
		defer cancel()
	}
	defer func() {
		if r := recover(); r != nil {
			perr, ok := r.(error)
			if !ok {
				perr = fmt.Errorf("%v", r)
			}
			res, err = nil, &sim.RunError{
				Scheme:    cfg.Scheme,
				Benchmark: cfg.Assignment.Name,
				Err:       fmt.Errorf("panic escaped the simulator: %w", perr),
			}
		}
	}()
	return run(ctx, cfg)
}

// account folds one terminal outcome into the stats.
func (e *Engine) account(err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	switch Classify(err) {
	case VerdictOK:
		e.stats.Completed++
	case VerdictCancelled:
		e.stats.Cancelled++
	default:
		e.stats.Failed++
	}
}

// journalOutcome appends the terminal outcome to the checkpoint journal.
// Cancelled runs are deliberately not recorded: they carry no verdict, and a
// resume must re-execute them.
func (e *Engine) journalOutcome(cfg sim.Config, key string, res *sim.Result, err error) {
	j := e.Journal()
	if j == nil || Classify(err) == VerdictCancelled {
		return
	}
	rec := Record{Key: key, Scheme: cfg.Scheme.String(), Bench: cfg.Assignment.Name}
	if err != nil {
		rec.Status = StatusFailed
		rec.Cause = Cause(err)
		rec.Error = err.Error()
	} else {
		rec.Status = StatusOK
		rec.Result = res
	}
	if aerr := j.Append(rec); aerr != nil {
		// The verdict still serves from memory; durability is gone for this
		// record. Count it — the service layer surfaces a degraded journal
		// through /ready and /v1/stats.
		e.mu.Lock()
		e.stats.JournalErrors++
		e.mu.Unlock()
	}
}

// Interrupt starts a graceful drain: in-flight runs are cancelled at their
// next poll, queued work reports VerdictCancelled, the journal keeps every
// verdict reached so far.
func (e *Engine) Interrupt() { e.cancel() }

// Interrupted reports whether the campaign is draining.
func (e *Engine) Interrupted() bool { return e.ctx.Err() != nil }

// Drain blocks until every submitted run has reached a terminal outcome
// (normally or via cancellation).
func (e *Engine) Drain() { e.wg.Wait() }

// Close drains the engine and flushes/closes the journal, if any.
func (e *Engine) Close() error {
	e.Drain()
	e.cancel()
	e.mu.Lock()
	j := e.journal
	e.journal = nil
	e.mu.Unlock()
	if j != nil {
		return j.Close()
	}
	return nil
}

// Stats snapshots the engine's counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// String renders the campaign digest printed at the end of a run.
func (s Stats) String() string {
	return fmt.Sprintf("%d executed (%d retries), %d memo hits, %d replayed from checkpoint, %d completed, %d failed, %d cancelled",
		s.Executed, s.Retries, s.Hits, s.Replayed, s.Completed, s.Failed, s.Cancelled)
}
