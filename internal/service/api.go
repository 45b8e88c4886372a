// Package service is the simulation-as-a-service layer: an HTTP/JSON front
// end that accepts parameterized runs, validates and fingerprints them,
// executes them on the campaign engine behind a bounded queue, dedups
// identical configurations through the singleflight memo and a size-bounded
// result cache, and streams live progress to clients over SSE.
//
// The daemon binary is cmd/sttsimd; this package holds everything testable:
// the wire aliases (api.go), the LRU result cache (cache.go),
// the progress hub and SSE fan-out (hub.go, progress.go), per-client rate
// limiting (ratelimit.go), and the HTTP server itself (server.go).
//
// The wire types themselves live in pkg/sttsim — the public client SDK —
// and are aliased here, so the structs the server marshals are the structs
// clients decode: the wire format cannot drift between the two without a
// compile error or a failing round-trip test.
package service

import (
	"time"

	"sttsim/internal/dist"
	api "sttsim/pkg/sttsim"
)

// Wire types, shared with the client SDK. Aliases (not definitions) so a
// value built here is exactly the SDK type.
type (
	ProfileSpec    = api.ProfileSpec
	JobSpec        = api.JobSpec
	JobStatus      = api.JobStatus
	Health         = api.Health
	LatencySummary = api.LatencySummary
	Stats          = api.Stats
	CacheStats     = api.CacheStats
	EngineStats    = api.EngineStats
	DistStats      = api.DistStats
	JournalHealth  = api.JournalHealth
	apiError       = api.APIError

	// SSE payloads: built here, decoded by the SDK.
	progressEvent = api.ProgressEvent
	sampleEvent   = api.SampleEvent
)

// Job states on the wire.
const (
	StateQueued    = api.StateQueued
	StateRunning   = api.StateRunning
	StateDone      = api.StateDone
	StateFailed    = api.StateFailed
	StateCancelled = api.StateCancelled
)

// distStatsWire converts the lease table's snapshot into its wire mirror.
// The field-for-field JSON equivalence of the two types is pinned by
// TestDistStatsWireEquivalence.
func distStatsWire(ds dist.Stats) *DistStats {
	out := &DistStats{
		WorkersAlive:    ds.WorkersAlive,
		Queued:          ds.Queued,
		Leased:          ds.Leased,
		Delivered:       ds.Delivered,
		Redelivered:     ds.Redelivered,
		Expired:         ds.Expired,
		Fenced:          ds.Fenced,
		StaleHeartbeats: ds.StaleHeartbeats,
		Completed:       ds.Completed,
	}
	for _, w := range ds.Workers {
		out.Workers = append(out.Workers, api.WorkerStatus{
			ID: w.ID, Alive: w.Alive, Lease: w.Lease, LastSeenS: w.LastSeenS,
		})
	}
	return out
}

// fmtTime renders timestamps consistently (RFC 3339, UTC).
func fmtTime(t time.Time) string { return t.UTC().Format(time.RFC3339Nano) }
