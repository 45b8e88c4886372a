// Package service is the simulation-as-a-service layer: an HTTP/JSON front
// end that accepts parameterized runs, validates and fingerprints them,
// executes them on the campaign engine behind a bounded queue, and streams
// live progress to clients over SSE. The engine's singleflight memo is the
// one result store: identical configurations in flight join one run, and
// finished ones are answered from the memo, their results encoded on fetch.
//
// The daemon binary is cmd/sttsimd; this package holds everything testable:
// the wire aliases (api.go), the progress hub and SSE fan-out (hub.go,
// progress.go), per-client rate limiting (ratelimit.go), the coordinator's
// worker protocol (coordinator.go), and the HTTP server itself (server.go).
//
// The wire types themselves live in pkg/sttsim — the public client SDK —
// and are aliased here, so the structs the server marshals are the structs
// clients decode: the wire format cannot drift between the two without a
// compile error or a failing round-trip test.
package service

import (
	"time"

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

// fmtTime renders timestamps consistently (RFC 3339, UTC).
func fmtTime(t time.Time) string { return t.UTC().Format(time.RFC3339Nano) }
