package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"sttsim/internal/campaign"
	"sttsim/internal/obs"
	"sttsim/internal/sim"
	"sttsim/pkg/sttsim"
)

// Worker is the stateless execution half of the distribution layer: it
// leases jobs from a coordinator, runs them, heartbeats while they run, and
// streams the result back. All of its state is the job in its hands — kill
// it at any instant and the coordinator re-delivers the job to a peer.
type Worker struct {
	// Coordinator is the coordinator's base URL (e.g. http://host:8734).
	Coordinator string
	// ID names this worker in leases and logs. Required.
	ID string
	// Client issues the protocol calls (default: 30s-timeout http.Client).
	Client *http.Client
	// Run executes one simulation (default sim.RunContext) — test hook.
	Run campaign.RunFunc
	// HeartbeatInterval paces proof-of-life calls (default 2s). Keep it
	// well under the coordinator's lease timeout.
	HeartbeatInterval time.Duration
	// LeaseWait is the lease long-poll horizon (default 5s).
	LeaseWait time.Duration
	// DrainGrace bounds how long a SIGTERM'd worker keeps running its
	// current job before abandoning it back to the coordinator (default 1m).
	DrainGrace time.Duration
	// Backoff paces retries of failed coordinator calls (default jittered
	// 100ms..5s).
	Backoff *sttsim.Backoff
	// Logf receives operational diagnostics (default: discarded).
	Logf func(format string, args ...any)
}

func (w *Worker) withDefaults() error {
	if w.Coordinator == "" {
		return fmt.Errorf("dist: Worker.Coordinator is required")
	}
	if w.ID == "" {
		return fmt.Errorf("dist: Worker.ID is required")
	}
	if w.Client == nil {
		w.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if w.Run == nil {
		w.Run = func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
			return sim.RunContext(ctx, cfg)
		}
	}
	if w.HeartbeatInterval <= 0 {
		w.HeartbeatInterval = 2 * time.Second
	}
	if w.LeaseWait <= 0 {
		w.LeaseWait = 5 * time.Second
	}
	if w.DrainGrace <= 0 {
		w.DrainGrace = time.Minute
	}
	if w.Backoff == nil {
		w.Backoff = sttsim.NewBackoff(100*time.Millisecond, 5*time.Second, 0)
	}
	if w.Logf == nil {
		w.Logf = func(string, ...any) {}
	}
	return nil
}

// Loop leases and executes jobs until ctx is cancelled. Cancellation is a
// graceful drain: no new leases are taken, and the job in hand gets
// DrainGrace to finish before being abandoned back to the coordinator
// (which re-queues it). Returns nil on a clean drain.
func (w *Worker) Loop(ctx context.Context) error {
	if err := w.withDefaults(); err != nil {
		return err
	}
	for {
		if ctx.Err() != nil {
			return nil
		}
		task, retryAfter, err := w.lease(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			d := w.Backoff.Observe(retryAfter)
			w.Logf("dist[%s]: lease: %v (retrying in %s)", w.ID, err, d.Round(time.Millisecond))
			if !sleep(ctx, d) {
				return nil
			}
			continue
		}
		w.Backoff.Reset()
		if task == nil {
			// Long poll expired with no work. A draining coordinator answers
			// 204 + Retry-After immediately; honor the hint instead of
			// hammering it while it finishes its queue.
			if retryAfter > 0 && !sleep(ctx, retryAfter) {
				return nil
			}
			continue
		}
		w.execute(ctx, task)
	}
}

// execute runs one leased task to a reported outcome.
func (w *Worker) execute(ctx context.Context, task *Task) {
	var cfg sim.Config
	if err := json.Unmarshal(task.Config, &cfg); err != nil {
		w.complete(ctx, CompleteRequest{
			WorkerID: w.ID, Key: task.Key, Epoch: task.Epoch, Status: CompleteFailed,
			Cause: "bad-config", Error: fmt.Sprintf("undecodable task config: %v", err),
		})
		return
	}
	// Integrity gate: the config must hash to the key it was leased under,
	// or the result would be journaled and cached under the wrong identity.
	if got := cfg.Fingerprint(); got != task.Key {
		w.complete(ctx, CompleteRequest{
			WorkerID: w.ID, Key: task.Key, Epoch: task.Epoch, Status: CompleteFailed,
			Cause: "config-mismatch", Error: fmt.Sprintf("config fingerprint %s does not match lease key", short(got)),
		})
		return
	}

	// The run outlives a SIGTERM by DrainGrace; it dies immediately when
	// the coordinator revokes or fences the lease.
	runCtx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	defer cancel()
	go func() {
		select {
		case <-ctx.Done():
			t := time.NewTimer(w.DrainGrace)
			defer t.Stop()
			select {
			case <-t.C:
				cancel()
			case <-runCtx.Done():
			}
		case <-runCtx.Done():
		}
	}()

	var progress *ProgressCounter
	if task.Stream {
		progress = NewProgressCounter(cfg)
		cfg.Obs = &sim.ObsConfig{Sink: obs.FuncSink(func(ev obs.Event) error {
			progress.Count(ev)
			return nil
		})}
	}
	hbStop := make(chan struct{})
	hbDone := make(chan struct{})
	go w.heartbeatLoop(task, progress, cancel, hbStop, hbDone)

	w.Logf("dist[%s]: running %s@%d (%s/%s)", w.ID, short(task.Key), task.Epoch, cfg.Scheme, cfg.Assignment.Name)
	res, err := w.Run(runCtx, cfg)
	close(hbStop)
	<-hbDone

	req := CompleteRequest{WorkerID: w.ID, Key: task.Key, Epoch: task.Epoch}
	switch campaign.Classify(err) {
	case campaign.VerdictOK:
		if res != nil {
			// Strip the streaming side channel so streamed and unstreamed
			// runs of one configuration serve byte-identical results.
			res.Metrics = nil
		}
		data, merr := json.Marshal(res)
		if merr != nil {
			req.Status = CompleteFailed
			req.Cause = "marshal"
			req.Error = fmt.Sprintf("marshal result: %v", merr)
		} else {
			req.Status = CompleteOK
			req.Result = data
		}
	case campaign.VerdictCancelled:
		// Revoked lease, fenced lease, or drain-grace expiry: hand the job
		// back. The coordinator re-queues it unless it revoked us itself.
		req.Status = CompleteCancelled
	default:
		req.Status = CompleteFailed
		req.Cause = campaign.Cause(err)
		req.Error = err.Error()
		req.Retryable = campaign.Classify(err) == campaign.VerdictRetryable
	}
	w.complete(ctx, req)
}

// heartbeatLoop sends proof of life (plus the latest progress snapshot)
// every HeartbeatInterval until stopped. A revocation or a fencing answer
// (410) cancels the run; transport errors are tolerated — the run keeps
// going and the next tick retries, because a briefly unreachable
// coordinator usually comes back before the lease expires.
func (w *Worker) heartbeatLoop(task *Task, progress *ProgressCounter, cancelRun context.CancelFunc, stop, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(w.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		req := HeartbeatRequest{WorkerID: w.ID, Key: task.Key, Epoch: task.Epoch}
		if progress != nil {
			req.Progress, _ = json.Marshal(progress.Snapshot())
		}
		status, body, _, err := w.post(context.Background(), PathHeartbeat, req)
		switch {
		case err != nil:
			w.Logf("dist[%s]: heartbeat %s@%d: %v", w.ID, short(task.Key), task.Epoch, err)
		case status == http.StatusGone:
			w.Logf("dist[%s]: lease %s@%d fenced; abandoning run", w.ID, short(task.Key), task.Epoch)
			cancelRun()
			return
		case status == http.StatusOK:
			var resp HeartbeatResponse
			if json.Unmarshal(body, &resp) == nil && resp.Revoked {
				w.Logf("dist[%s]: lease %s@%d revoked; abandoning run", w.ID, short(task.Key), task.Epoch)
				cancelRun()
				return
			}
		}
	}
}

// lease asks the coordinator for work. A 204 long-poll expiry returns
// (nil, retryAfter, nil) — retryAfter non-zero when the coordinator asked
// for a pause (drain).
func (w *Worker) lease(ctx context.Context) (*Task, time.Duration, error) {
	req := LeaseRequest{WorkerID: w.ID, WaitS: w.LeaseWait.Seconds()}
	status, body, retryAfter, err := w.post(ctx, PathLease, req)
	if err != nil {
		return nil, retryAfter, err
	}
	switch status {
	case http.StatusNoContent:
		return nil, retryAfter, nil
	case http.StatusOK:
		var task Task
		if err := json.Unmarshal(body, &task); err != nil {
			return nil, 0, fmt.Errorf("undecodable lease response: %w", err)
		}
		return &task, 0, nil
	default:
		return nil, retryAfter, fmt.Errorf("lease: coordinator answered %d", status)
	}
}

// complete reports a task's outcome, retrying transient failures with
// jittered backoff and honoring Retry-After. A 410 means this worker was
// fenced — the result is discarded, which is exactly the fencing contract.
func (w *Worker) complete(ctx context.Context, req CompleteRequest) {
	const attempts = 6
	for i := 1; ; i++ {
		status, _, retryAfter, err := w.post(context.WithoutCancel(ctx), PathComplete, req)
		switch {
		case err == nil && status == http.StatusOK:
			w.Logf("dist[%s]: completed %s@%d (%s)", w.ID, short(req.Key), req.Epoch, req.Status)
			return
		case err == nil && status == http.StatusGone:
			w.Logf("dist[%s]: completion of %s@%d fenced by coordinator; dropping result", w.ID, short(req.Key), req.Epoch)
			return
		case err == nil && status >= 400 && status < 500 && status != http.StatusTooManyRequests:
			w.Logf("dist[%s]: completion of %s@%d rejected with %d", w.ID, short(req.Key), req.Epoch, status)
			return
		}
		if i >= attempts {
			w.Logf("dist[%s]: giving up completing %s@%d after %d attempts (the lease will expire and re-deliver)",
				w.ID, short(req.Key), req.Epoch, attempts)
			return
		}
		d := w.Backoff.Delay(i-1, retryAfter)
		w.Logf("dist[%s]: complete %s@%d attempt %d failed (status %d, err %v); retrying in %s",
			w.ID, short(req.Key), req.Epoch, i, status, err, d.Round(time.Millisecond))
		time.Sleep(d)
	}
}

// post issues one protocol call and returns the status, body, and any
// Retry-After hint.
func (w *Worker) post(ctx context.Context, path string, payload any) (status int, body []byte, retryAfter time.Duration, err error) {
	data, err := json.Marshal(payload)
	if err != nil {
		return 0, nil, 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.Coordinator+path, bytes.NewReader(data))
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.Client.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	defer resp.Body.Close()
	body, _ = io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, perr := strconv.Atoi(s); perr == nil && secs > 0 {
			retryAfter = time.Duration(secs) * time.Second
		}
	}
	return resp.StatusCode, body, retryAfter, nil
}

// sleep waits d or until ctx is done; reports whether the full wait
// elapsed.
func sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// ProgressCounter counts one run's packet-lifecycle events into the SSE
// "progress" payload: a worker ships its snapshots in heartbeats, and the
// standalone daemon publishes them on the job's topic. Count runs on the
// simulator's goroutine; Snapshot may be called from any other.
type ProgressCounter struct {
	mu    sync.Mutex
	snap  sttsim.ProgressEvent // Cycle is the latest event cycle counted
	total uint64
}

// NewProgressCounter builds the counter for a run of cfg.
func NewProgressCounter(cfg sim.Config) *ProgressCounter {
	return &ProgressCounter{total: cfg.TotalCycles()}
}

// Count folds one event into the counters.
func (p *ProgressCounter) Count(ev obs.Event) {
	p.mu.Lock()
	switch ev.Type {
	case obs.EvInject:
		p.snap.Injected++
	case obs.EvDeliver:
		p.snap.Delivered++
	case obs.EvBankDone:
		p.snap.BankDone++
	case obs.EvFault:
		p.snap.Faults++
	}
	if ev.Cycle > p.snap.Cycle {
		p.snap.Cycle = ev.Cycle
	}
	p.mu.Unlock()
}

// Snapshot returns the counters as of the latest event cycle counted.
func (p *ProgressCounter) Snapshot() sttsim.ProgressEvent {
	p.mu.Lock()
	ev := p.snap
	p.mu.Unlock()
	ev.TotalCycles = p.total
	if p.total > 0 {
		ev.Percent = 100 * float64(ev.Cycle) / float64(p.total)
		if ev.Percent > 100 {
			ev.Percent = 100
		}
	}
	return ev
}
