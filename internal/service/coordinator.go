package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"sttsim/internal/campaign"
	"sttsim/internal/dist"
	"sttsim/internal/sim"
)

// This file is the coordinator half of the distribution layer: the worker
// protocol handlers mounted in coordinator mode, the hooks that tie the
// lease table into the journal and SSE hub, and the restart path that
// re-queues leased-but-unfinished jobs from the write-ahead records.

// maxLeaseWait clamps a worker's long-poll horizon so a lease request always
// answers inside common proxy/server idle timeouts.
const maxLeaseWait = 25 * time.Second

// completeBodyBytes bounds a completion payload. Results are a few KiB;
// 64 MiB leaves room for pathological configs without letting a worker OOM
// the coordinator.
const completeBodyBytes = 64 << 20

// wireDist installs the coordinator callbacks on the lease table.
//
// onLease fires on every delivery: it write-ahead journals a StatusLeased
// record carrying the full config — the only place the config is persisted
// while the job is in flight, which is what lets a restarted coordinator
// re-queue the job with no client attached — and flips the key's jobs to
// running. onProgress relays worker heartbeat snapshots onto the job's SSE
// topic, so a streaming client sees the same progress events it would from
// a local run.
func (s *Server) wireDist() {
	s.dist.SetHooks(
		func(key, worker string, epoch uint64, cfg sim.Config) {
			rec := campaign.Record{
				Key:    key,
				Scheme: cfg.Scheme.String(),
				Bench:  cfg.Assignment.Name,
				Status: campaign.StatusLeased,
				Worker: worker,
				Epoch:  epoch,
				Config: &cfg,
			}
			if err := s.eng.JournalRecord(rec); err != nil {
				s.opts.Logf("service: journal lease %s@%d: %v", key, epoch, err)
			}
			s.markRunning(key)
		},
		func(key string, progress []byte) {
			s.hub.Publish(key, "progress", json.RawMessage(progress))
		},
	)
}

// distRun builds the coordinator-mode executor: instead of simulating
// locally, hand the job to the lease table and block until a worker
// delivers. Cancellation flows through ctx exactly like a local run — the
// engine cancels it when every interested job is cancelled, and the table
// revokes the lease.
func (s *Server) distRun(key string, stream bool) campaign.RunFunc {
	return func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
		return s.dist.Execute(ctx, key, cfg, stream)
	}
}

// RequeuePending re-submits jobs whose write-ahead lease records have no
// terminal verdict — the work a previous coordinator process handed out but
// never saw finish. The jobs re-enter the normal engine path (singleflight,
// journal, memo), just with no client job records attached; clients
// re-submitting the same configuration dedup onto the in-flight run. Returns
// how many jobs were re-queued.
func (s *Server) RequeuePending(recs []campaign.Record) int {
	if s.dist == nil {
		return 0
	}
	// Seed the lease table's per-key epoch floors from every lease record in
	// the journal — pending or superseded — so epochs stay monotonic across
	// the restart and any zombie completion from the previous incarnation
	// fences instead of landing.
	floors := make(map[string]uint64)
	for _, rec := range recs {
		if rec.Status == campaign.StatusLeased && rec.Epoch > floors[rec.Key] {
			floors[rec.Key] = rec.Epoch
		}
	}
	s.dist.SeedEpochs(floors)

	n := 0
	for _, rec := range campaign.PendingLeases(recs) {
		if rec.Config == nil {
			s.opts.Logf("service: pending lease %s has no config; cannot re-queue", rec.Key)
			continue
		}
		cfg := *rec.Config
		// Integrity gate, same as the worker's: a tampered or torn record
		// must not execute under the wrong identity.
		if cfg.Fingerprint() != rec.Key {
			s.opts.Logf("service: pending lease %s: config fingerprint mismatch; dropping", rec.Key)
			continue
		}
		handle := s.eng.Submit(rec.Key, cfg, s.distRun(rec.Key, false))
		s.mu.Lock()
		s.pending++
		s.mu.Unlock()
		go func() {
			<-handle.Done()
			s.mu.Lock()
			s.pending--
			s.mu.Unlock()
		}()
		n++
	}
	return n
}

// handleWorkerLease is POST /v1/worker/lease: hand the oldest queued job to
// the calling worker, long-polling up to the clamped wait. 204 means "no
// work right now — ask again". Lease requests are answered during drain:
// finishing the queue is exactly what drain is waiting for.
func (s *Server) handleWorkerLease(w http.ResponseWriter, r *http.Request) {
	var req dist.LeaseRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid lease request: "+err.Error(), 0)
		return
	}
	if req.WorkerID == "" {
		writeError(w, http.StatusBadRequest, "worker_id is required", 0)
		return
	}
	wait := time.Duration(req.WaitS * float64(time.Second))
	if wait < 0 {
		wait = 0
	}
	if wait > maxLeaseWait {
		wait = maxLeaseWait
	}
	// During drain, queued work is still handed out (finishing it is what
	// drain waits for), but nothing long-polls: an empty queue answers a
	// clean 204 + Retry-After immediately, and the drain's onset releases
	// polls already in flight — workers never see the listener die mid-poll.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	go func() {
		select {
		case <-s.drainCh:
			cancel()
		case <-ctx.Done():
		}
	}()
	s.mu.Lock()
	if s.draining {
		wait = 0
	}
	s.mu.Unlock()
	task, ok := s.dist.Lease(ctx, req.WorkerID, wait)
	if !ok {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, http.StatusOK, task)
}

// handleWorkerHeartbeat is POST /v1/worker/heartbeat: extend a lease, relay
// progress, and tell the worker about client-side cancellation. 410 is the
// fencing answer — the lease was re-delivered; abandon the run.
func (s *Server) handleWorkerHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req dist.HeartbeatRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid heartbeat: "+err.Error(), 0)
		return
	}
	revoked, err := s.dist.Heartbeat(req.WorkerID, req.Key, req.Epoch, req.Progress)
	if err != nil {
		writeError(w, http.StatusGone, err.Error(), 0)
		return
	}
	writeJSON(w, http.StatusOK, dist.HeartbeatResponse{Revoked: revoked})
}

// handleWorkerComplete is POST /v1/worker/complete: accept one lease's
// terminal outcome. 410 fences stale epochs — the zombie-worker answer; the
// result bytes are discarded unread.
func (s *Server) handleWorkerComplete(w http.ResponseWriter, r *http.Request) {
	var req dist.CompleteRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, completeBodyBytes)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid completion: "+err.Error(), 0)
		return
	}
	if err := s.dist.Complete(req); err != nil {
		if errors.Is(err, dist.ErrStaleLease) {
			writeError(w, http.StatusGone, err.Error(), 0)
			return
		}
		writeError(w, http.StatusBadRequest, err.Error(), 0)
		return
	}
	writeJSON(w, http.StatusOK, struct{}{})
}
