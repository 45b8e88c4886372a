package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"sttsim/internal/sim"
	"sttsim/pkg/sttsim"
)

// TableOptions tunes the coordinator's lease table.
type TableOptions struct {
	// LeaseTimeout is how long a lease survives without a heartbeat before
	// the job is re-queued for another worker (default 15s).
	LeaseTimeout time.Duration
	// SweepInterval is the expiry janitor's period (default LeaseTimeout/4).
	SweepInterval time.Duration
	// Logf receives operational diagnostics (default: discarded).
	Logf func(format string, args ...any)
	// Now is the clock (test hook).
	Now func() time.Time
}

func (o TableOptions) withDefaults() TableOptions {
	if o.LeaseTimeout <= 0 {
		o.LeaseTimeout = 15 * time.Second
	}
	if o.SweepInterval <= 0 {
		o.SweepInterval = o.LeaseTimeout / 4
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

type taskState int

const (
	taskQueued taskState = iota
	taskLeased
	taskDone
	taskCancelled // revoked client-side; retained until the worker learns or the lease expires
)

// task is one outstanding job in the table.
type task struct {
	key    string
	cfg    sim.Config
	raw    []byte // marshaled clean config, shipped to workers
	stream bool

	state    taskState
	epoch    uint64
	worker   string
	deadline time.Time

	done chan struct{} // closed exactly once at the terminal transition
	res  *sim.Result
	err  error
}

type workerState struct {
	lastSeen time.Time
	lease    string
}

// Table is the coordinator's lease table: a FIFO queue of submitted jobs, a
// map of live leases with heartbeat deadlines and fencing epochs, and a
// liveness view of every worker that has ever called in. All mutation is
// under one mutex; hooks are invoked outside it.
type Table struct {
	opts TableOptions

	mu       sync.Mutex
	tasks    map[string]*task
	queue    []*task
	workers  map[string]*workerState
	notifyCh chan struct{} // closed+replaced to wake long-polling leases
	stats    sttsim.DistStats

	// epochFloor is the highest lease epoch ever observed per key (seeded
	// from journal records on restart, advanced on every delivery). New
	// tasks start above the floor, so epochs are monotonic per key across
	// the journal's whole history — even across coordinator restarts — and
	// a zombie worker from a previous incarnation always fences.
	epochFloor map[string]uint64

	// onLease fires on every delivery (initial and re-delivery) — the
	// coordinator journals a write-ahead record and flips jobs to running.
	// onProgress relays heartbeat progress payloads to the SSE hub.
	onLease    func(key, worker string, epoch uint64, cfg sim.Config)
	onProgress func(key string, progress []byte)

	stopOnce sync.Once
	stopped  chan struct{}
}

// NewTable builds a lease table and starts its expiry janitor.
func NewTable(opts TableOptions) *Table {
	tb := &Table{
		opts:       opts.withDefaults(),
		tasks:      make(map[string]*task),
		workers:    make(map[string]*workerState),
		notifyCh:   make(chan struct{}),
		epochFloor: make(map[string]uint64),
		stopped:    make(chan struct{}),
	}
	go tb.janitor()
	return tb
}

// SetHooks installs the coordinator callbacks. Call before serving worker
// traffic.
func (tb *Table) SetHooks(onLease func(key, worker string, epoch uint64, cfg sim.Config), onProgress func(key string, progress []byte)) {
	tb.mu.Lock()
	tb.onLease = onLease
	tb.onProgress = onProgress
	tb.mu.Unlock()
}

// SeedEpochs raises the per-key epoch floors (typically from the journal's
// lease records at restart). Floors only ever rise; keys already above their
// floor are untouched. Call before serving worker traffic.
func (tb *Table) SeedEpochs(floors map[string]uint64) {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	for key, epoch := range floors {
		if epoch > tb.epochFloor[key] {
			tb.epochFloor[key] = epoch
		}
	}
}

// Close stops the expiry janitor. Outstanding Execute calls are not
// interrupted — cancel their contexts to release them.
func (tb *Table) Close() {
	tb.stopOnce.Do(func() { close(tb.stopped) })
}

func (tb *Table) janitor() {
	t := time.NewTicker(tb.opts.SweepInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			tb.Sweep()
		case <-tb.stopped:
			return
		}
	}
}

// notifyLocked wakes every long-polling Lease call. Callers hold tb.mu.
func (tb *Table) notifyLocked() {
	close(tb.notifyCh)
	tb.notifyCh = make(chan struct{})
}

// Execute enqueues the job for worker execution and blocks until a worker
// delivers its terminal outcome or ctx is cancelled. Cancellation revokes
// the job: a queued task is withdrawn immediately; a leased task's worker
// learns of the revocation on its next heartbeat and abandons the run. The
// campaign engine's singleflight guarantees at most one Execute per key is
// in flight.
func (tb *Table) Execute(ctx context.Context, key string, cfg sim.Config, stream bool) (*sim.Result, error) {
	raw, err := json.Marshal(cfg)
	if err != nil {
		return nil, fmt.Errorf("dist: marshal config: %w", err)
	}
	tb.mu.Lock()
	t, ok := tb.tasks[key]
	if ok && t.state == taskCancelled {
		// A revoked entry lingers only to fence its old worker; a fresh
		// submission supersedes it under a bumped epoch, which fences the
		// old worker just as well.
		tb.clearWorkerLeaseLocked(t.worker, key)
		epoch := t.epoch + 1
		if floor := tb.epochFloor[key]; epoch <= floor {
			epoch = floor + 1
		}
		fresh := &task{
			key: key, cfg: cfg, raw: raw, stream: stream,
			state: taskQueued, epoch: epoch,
			done: make(chan struct{}),
		}
		tb.tasks[key] = fresh
		tb.queue = append(tb.queue, fresh)
		tb.notifyLocked()
		t = fresh
	} else if !ok {
		t = &task{
			key: key, cfg: cfg, raw: raw, stream: stream,
			state: taskQueued, epoch: tb.epochFloor[key] + 1,
			done: make(chan struct{}),
		}
		tb.tasks[key] = t
		tb.queue = append(tb.queue, t)
		tb.notifyLocked()
	}
	tb.mu.Unlock()

	select {
	case <-t.done:
		return t.res, t.err
	case <-ctx.Done():
		tb.revoke(t)
		return nil, ctx.Err()
	}
}

// revoke withdraws a job after its Execute context was cancelled.
func (tb *Table) revoke(t *task) {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	switch t.state {
	case taskDone, taskCancelled:
		return
	case taskQueued:
		for i, q := range tb.queue {
			if q == t {
				tb.queue = append(tb.queue[:i], tb.queue[i+1:]...)
				break
			}
		}
		delete(tb.tasks, t.key)
	case taskLeased:
		// Keep the entry: the worker learns of the revocation on its next
		// heartbeat (Revoked: true) and acks with CompleteCancelled; if the
		// worker is already gone, the expiry sweep reaps the entry.
		tb.opts.Logf("dist: lease %s@%d on %s revoked (client cancelled)", short(t.key), t.epoch, t.worker)
	}
	t.state = taskCancelled
	t.err = context.Canceled
	close(t.done)
}

// Lease hands the oldest queued job to workerID, long-polling up to wait
// when the queue is empty. Returns (nil, false) when no work arrived.
func (tb *Table) Lease(ctx context.Context, workerID string, wait time.Duration) (*Task, bool) {
	deadline := tb.opts.Now().Add(wait)
	for {
		tb.mu.Lock()
		tb.touchLocked(workerID)
		if len(tb.queue) > 0 {
			t := tb.queue[0]
			tb.queue = tb.queue[1:]
			t.state = taskLeased
			t.worker = workerID
			t.deadline = tb.opts.Now().Add(tb.opts.LeaseTimeout)
			tb.workers[workerID].lease = t.key
			if t.epoch > tb.epochFloor[t.key] {
				tb.epochFloor[t.key] = t.epoch
			}
			tb.stats.Delivered++
			onLease := tb.onLease
			key, epoch, cfg := t.key, t.epoch, t.cfg
			out := &Task{Key: t.key, Epoch: t.epoch, Stream: t.stream, Config: t.raw}
			tb.mu.Unlock()
			if onLease != nil {
				onLease(key, workerID, epoch, cfg)
			}
			tb.opts.Logf("dist: leased %s@%d to %s", short(key), epoch, workerID)
			return out, true
		}
		ch := tb.notifyCh
		tb.mu.Unlock()

		remaining := deadline.Sub(tb.opts.Now())
		if remaining <= 0 {
			return nil, false
		}
		timer := time.NewTimer(remaining)
		select {
		case <-ch:
			timer.Stop()
		case <-timer.C:
			return nil, false
		case <-ctx.Done():
			timer.Stop()
			return nil, false
		case <-tb.stopped:
			timer.Stop()
			return nil, false
		}
	}
}

// Heartbeat extends workerID's lease on (key, epoch) and relays the
// progress snapshot. Returns revoked=true when the job was cancelled
// client-side (the worker must abandon the run), or ErrStaleLease when the
// triple no longer names a live lease — the worker's cue that it was fenced
// and must discard its run.
func (tb *Table) Heartbeat(workerID, key string, epoch uint64, progress []byte) (revoked bool, err error) {
	tb.mu.Lock()
	tb.touchLocked(workerID)
	t, ok := tb.tasks[key]
	if !ok || t.epoch != epoch || t.worker != workerID {
		tb.stats.StaleHeartbeats++
		tb.mu.Unlock()
		return false, ErrStaleLease
	}
	if t.state == taskCancelled {
		tb.mu.Unlock()
		return true, nil
	}
	if t.state != taskLeased {
		tb.stats.StaleHeartbeats++
		tb.mu.Unlock()
		return false, ErrStaleLease
	}
	t.deadline = tb.opts.Now().Add(tb.opts.LeaseTimeout)
	onProgress := tb.onProgress
	relay := t.stream && len(progress) > 0
	tb.mu.Unlock()
	if relay && onProgress != nil {
		onProgress(key, progress)
	}
	return false, nil
}

// Complete applies one worker-reported terminal outcome. Fencing: the
// (key, epoch, worker) triple must name the live lease — a zombie worker
// whose lease was re-delivered is rejected with ErrStaleLease and its
// payload discarded, however plausible it looks. A CompleteCancelled from a
// live lease (worker drain) re-queues the job; on a revoked task it acks
// the revocation.
func (tb *Table) Complete(req CompleteRequest) error {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	tb.touchLocked(req.WorkerID)
	t, ok := tb.tasks[req.Key]
	if !ok || t.epoch != req.Epoch || t.worker != req.WorkerID || t.state == taskDone || t.state == taskQueued {
		tb.stats.Fenced++
		tb.opts.Logf("dist: fenced completion of %s@%d from %s", short(req.Key), req.Epoch, req.WorkerID)
		return ErrStaleLease
	}
	tb.clearWorkerLeaseLocked(req.WorkerID, req.Key)
	if t.state == taskCancelled {
		// Revocation ack: the worker abandoned the run as asked.
		delete(tb.tasks, req.Key)
		return nil
	}

	switch req.Status {
	case CompleteOK:
		var res sim.Result
		if err := json.Unmarshal(req.Result, &res); err != nil {
			// A live lease delivering garbage is a worker bug, not a race;
			// surface it as a terminal failure rather than re-running a
			// worker that may just corrupt the result again.
			t.err = &RemoteError{Token: "bad-result", Msg: fmt.Sprintf("worker %s sent an undecodable result: %v", req.WorkerID, err)}
		} else {
			t.res = &res
		}
	case CompleteFailed:
		cause := req.Cause
		if cause == "" {
			cause = "error"
		}
		t.err = &RemoteError{Token: cause, Msg: req.Error, Retryable: req.Retryable}
	case CompleteCancelled:
		// The worker is draining: it abandoned a healthy job. Re-queue it at
		// the head of the line under a new epoch.
		tb.requeueLocked(t, "worker drained")
		return nil
	default:
		tb.stats.Fenced++
		return fmt.Errorf("dist: unknown completion status %q", req.Status)
	}
	t.state = taskDone
	tb.stats.Completed++
	delete(tb.tasks, req.Key) // later duplicates fence as unknown
	close(t.done)
	return nil
}

// Sweep re-queues every lease whose deadline has lapsed and reaps revoked
// tasks whose worker never called back. The janitor calls it periodically;
// tests call it directly under a fake clock.
func (tb *Table) Sweep() {
	now := tb.opts.Now()
	tb.mu.Lock()
	defer tb.mu.Unlock()
	for key, t := range tb.tasks {
		switch t.state {
		case taskLeased:
			if now.After(t.deadline) {
				tb.stats.Expired++
				tb.clearWorkerLeaseLocked(t.worker, key)
				tb.requeueLocked(t, "missed heartbeats")
			}
		case taskCancelled:
			if now.After(t.deadline) {
				tb.clearWorkerLeaseLocked(t.worker, key)
				delete(tb.tasks, key)
			}
		}
	}
}

// requeueLocked sends a leased task back to the head of the queue under a
// bumped epoch, fencing the previous holder.
func (tb *Table) requeueLocked(t *task, why string) {
	tb.opts.Logf("dist: re-queueing %s@%d (was on %s: %s)", short(t.key), t.epoch, t.worker, why)
	t.epoch++
	t.state = taskQueued
	t.worker = ""
	tb.queue = append([]*task{t}, tb.queue...)
	tb.stats.Redelivered++
	tb.notifyLocked()
}

func (tb *Table) clearWorkerLeaseLocked(workerID, key string) {
	if ws, ok := tb.workers[workerID]; ok && ws.lease == key {
		ws.lease = ""
	}
}

// touchLocked records a worker's proof of life and prunes long-dead peers.
func (tb *Table) touchLocked(workerID string) {
	now := tb.opts.Now()
	ws, ok := tb.workers[workerID]
	if !ok {
		ws = &workerState{}
		tb.workers[workerID] = ws
		for id, other := range tb.workers {
			if id != workerID && other.lease == "" && now.Sub(other.lastSeen) > 10*tb.opts.LeaseTimeout {
				delete(tb.workers, id)
			}
		}
	}
	ws.lastSeen = now
}

// WorkersAlive counts workers heard from within one lease timeout — the
// readiness signal: a coordinator with zero live workers cannot make
// progress and should be taken out of rotation.
func (tb *Table) WorkersAlive() int {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	return tb.workersAliveLocked()
}

func (tb *Table) workersAliveLocked() int {
	now := tb.opts.Now()
	n := 0
	for _, ws := range tb.workers {
		if now.Sub(ws.lastSeen) <= tb.opts.LeaseTimeout {
			n++
		}
	}
	return n
}

// Snapshot assembles the table's counters for /v1/stats.
func (tb *Table) Snapshot() sttsim.DistStats {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	now := tb.opts.Now()
	st := tb.stats
	st.Queued = len(tb.queue)
	st.Leased = 0
	for _, t := range tb.tasks {
		if t.state == taskLeased {
			st.Leased++
		}
	}
	st.WorkersAlive = tb.workersAliveLocked()
	st.Workers = make([]sttsim.WorkerStatus, 0, len(tb.workers))
	for id, ws := range tb.workers {
		st.Workers = append(st.Workers, sttsim.WorkerStatus{
			ID:        id,
			Alive:     now.Sub(ws.lastSeen) <= tb.opts.LeaseTimeout,
			Lease:     ws.lease,
			LastSeenS: now.Sub(ws.lastSeen).Seconds(),
		})
	}
	sort.Slice(st.Workers, func(i, j int) bool { return st.Workers[i].ID < st.Workers[j].ID })
	return st
}

// short abbreviates a fingerprint for logs.
func short(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}
