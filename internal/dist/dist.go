// Package dist is the coordinator/worker distribution layer behind
// sttsimd's -mode flag. It splits the daemon into a coordinator — the HTTP
// front end plus a lease table of outstanding jobs — and N stateless
// workers that pull jobs over a small HTTP protocol, execute them, and
// stream results back.
//
// Robustness is the design driver, and every mechanism here exists to keep
// one guarantee: a submitting client observes exactly one terminal outcome
// per job, byte-identical to what a single-process daemon would have
// served, no matter which workers crash along the way.
//
//   - Leases have deadlines. A worker that stops heartbeating — SIGKILL,
//     network partition, wedged host — forfeits its lease, and the job is
//     re-queued for the next worker (Table.Sweep).
//   - Re-delivery bumps the lease epoch. A zombie worker that comes back
//     after its lease was re-delivered is fenced: its heartbeats answer 410
//     and its completion — however plausible the payload — is rejected, so
//     a stale run can never overwrite the canonical result or double-write
//     the journal (Table.Complete).
//   - Workers retry every coordinator call with jittered exponential
//     backoff (sttsim.Backoff) and honor Retry-After, so a briefly
//     unreachable or back-pressured coordinator causes delay, not data loss.
//   - The coordinator journals a StatusLeased write-ahead record per
//     delivery; on restart it re-queues leased-but-unfinished jobs from the
//     journal (campaign.PendingLeases) so work survives coordinator
//     crashes too.
//
// The wire protocol is three POSTs, mounted by internal/service in
// coordinator mode: PathLease hands out work (long-poll), PathHeartbeat
// extends a lease and relays a progress snapshot to the SSE hub, and
// PathComplete delivers the terminal outcome.
package dist

import (
	"encoding/json"
	"errors"
	"fmt"
)

// Worker-protocol routes, mounted by the service coordinator.
const (
	PathLease     = "/v1/worker/lease"
	PathHeartbeat = "/v1/worker/heartbeat"
	PathComplete  = "/v1/worker/complete"
)

// Task is one leased unit of work: the memo key the job executes under, the
// fencing epoch of this delivery, and the full serialized configuration.
type Task struct {
	Key   string `json:"key"`
	Epoch uint64 `json:"epoch"`
	// Stream asks the worker to attach a progress collector and ship
	// snapshots in its heartbeats (relayed to the job's SSE feed).
	Stream bool            `json:"stream,omitempty"`
	Config json.RawMessage `json:"config"`
}

// LeaseRequest is the body of POST PathLease.
type LeaseRequest struct {
	WorkerID string `json:"worker_id"`
	// WaitS long-polls up to this many seconds when no work is queued
	// (clamped coordinator-side); 0 returns 204 immediately.
	WaitS float64 `json:"wait_s,omitempty"`
}

// HeartbeatRequest is the body of POST PathHeartbeat: proof of life for one
// lease, optionally carrying a progress snapshot (a marshaled
// sttsim.ProgressEvent, relayed verbatim as the SSE "progress" payload).
type HeartbeatRequest struct {
	WorkerID string          `json:"worker_id"`
	Key      string          `json:"key"`
	Epoch    uint64          `json:"epoch"`
	Progress json.RawMessage `json:"progress,omitempty"`
}

// HeartbeatResponse acknowledges a live lease. Revoked tells the worker the
// job was cancelled client-side: abandon the run and report
// CompleteCancelled.
type HeartbeatResponse struct {
	Revoked bool `json:"revoked"`
}

// Completion statuses a worker can report.
const (
	CompleteOK        = "ok"
	CompleteFailed    = "failed"
	CompleteCancelled = "cancelled" // revoked lease or worker drain — re-queued unless revoked
)

// CompleteRequest is the body of POST PathComplete: one lease's terminal
// outcome. Result carries the worker's serialized *sim.Result for
// CompleteOK; Error/Cause/Retryable describe a CompleteFailed run.
type CompleteRequest struct {
	WorkerID  string          `json:"worker_id"`
	Key       string          `json:"key"`
	Epoch     uint64          `json:"epoch"`
	Status    string          `json:"status"`
	Result    json.RawMessage `json:"result,omitempty"`
	Error     string          `json:"error,omitempty"`
	Cause     string          `json:"cause,omitempty"`
	Retryable bool            `json:"retryable,omitempty"`
}

// ErrStaleLease rejects a heartbeat or completion whose (key, epoch,
// worker) triple no longer names a live lease — the zombie-fencing error,
// surfaced to workers as HTTP 410 Gone.
var ErrStaleLease = errors.New("dist: stale or unknown lease")

// RemoteError is a worker-reported run failure reconstructed on the
// coordinator. It carries the worker-side cause token and retry verdict
// across the process boundary, where errors.As against the simulator's
// concrete error types cannot reach.
type RemoteError struct {
	Token     string
	Msg       string
	Retryable bool
}

// Error renders the remote failure.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("worker run failed (%s): %s", e.Token, e.Msg)
}

// CauseToken implements campaign.CauseTokenError.
func (e *RemoteError) CauseToken() string { return e.Token }

// RetryableVerdict implements campaign.RetryableError.
func (e *RemoteError) RetryableVerdict() bool { return e.Retryable }
