// Package service is the simulation-as-a-service layer: an HTTP/JSON front
// end that accepts parameterized runs, validates and fingerprints them,
// executes them on the campaign engine behind a bounded queue, dedups
// identical configurations through the singleflight memo and a size-bounded
// result cache, and streams live progress to clients over SSE.
//
// The daemon binary is cmd/sttsimd; this package holds everything testable:
// the spec-to-config conversion (api.go), the LRU result cache (cache.go),
// the progress hub and SSE fan-out (hub.go, progress.go), per-client rate
// limiting (ratelimit.go), and the HTTP server itself (server.go).
//
// The wire types themselves live in pkg/sttsim — the public client SDK —
// and are aliased here, so the structs the server marshals are the structs
// clients decode: the wire format cannot drift between the two without a
// compile error or a failing round-trip test.
package service

import (
	"fmt"
	"strings"
	"time"

	"sttsim/internal/dist"
	"sttsim/internal/sim"
	"sttsim/internal/workload"
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

var suitesByName = map[string]workload.Suite{
	"":       workload.SuiteSPEC,
	"spec":   workload.SuiteSPEC,
	"parsec": workload.SuitePARSEC,
	"server": workload.SuiteServer,
}

// SpecConfig converts the wire spec into a validated sim.Config. Every error
// is a client error (HTTP 400): the spec either named something unknown or
// failed sim.Config.Validate's bounds.
func SpecConfig(s JobSpec) (sim.Config, error) {
	scheme, err := sim.ParseScheme(s.Scheme)
	if err != nil {
		return sim.Config{}, err
	}

	var assignment workload.Assignment
	switch {
	case len(s.Profiles) > 0 && s.Bench != "":
		return sim.Config{}, fmt.Errorf("bench and profiles are mutually exclusive")
	case len(s.Profiles) > 0:
		if len(s.Profiles) > 64 {
			return sim.Config{}, fmt.Errorf("at most 64 profiles, got %d", len(s.Profiles))
		}
		profs := make([]workload.Profile, len(s.Profiles))
		names := make([]string, len(s.Profiles))
		for i, ps := range s.Profiles {
			suite, ok := suitesByName[strings.ToLower(ps.Suite)]
			if !ok {
				return sim.Config{}, fmt.Errorf("profiles[%d]: unknown suite %q (want server|parsec|spec)", i, ps.Suite)
			}
			if ps.Name == "" {
				return sim.Config{}, fmt.Errorf("profiles[%d]: name must be non-empty", i)
			}
			profs[i] = workload.Profile{
				Name: ps.Name, Suite: suite,
				L1MPKI: ps.L1MPKI, L2MPKI: ps.L2MPKI,
				L2WPKI: ps.L2WPKI, L2RPKI: ps.L2RPKI,
				Bursty: ps.Bursty,
			}
			names[i] = ps.Name
		}
		assignment = workload.Mix("mix:"+strings.Join(names, "+"), profs)
	case s.Bench == "case1":
		assignment = workload.Case1()
	case s.Bench == "case2":
		assignment = workload.Case2()
	case s.Bench != "":
		prof, err := workload.ByName(s.Bench)
		if err != nil {
			return sim.Config{}, err
		}
		assignment = workload.Homogeneous(prof)
	default:
		return sim.Config{}, fmt.Errorf("one of bench or profiles is required")
	}

	cfg := sim.Config{
		Scheme:                scheme,
		Assignment:            assignment,
		Seed:                  s.Seed,
		WarmupCycles:          s.WarmupCycles,
		MeasureCycles:         s.MeasureCycles,
		Regions:               s.Regions,
		Hops:                  s.Hops,
		WriteBufferEntries:    s.WriteBufferEntries,
		ReadPreemption:        s.ReadPreemption,
		ExtraReqVC:            s.ExtraReqVC,
		WBWindow:              s.WBWindow,
		HoldCap:               s.HoldCap,
		BankQueueDepth:        s.BankQueueDepth,
		HybridSRAMBanks:       s.HybridSRAMBanks,
		EarlyWriteTermination: s.EarlyWriteTermination,
		AuditInterval:         s.AuditInterval,
		WatchdogCycles:        s.WatchdogCycles,
		TechProfile:           strings.TrimSpace(s.TechProfile),
		MeshX:                 s.MeshX,
		MeshY:                 s.MeshY,
		Layers:                s.Layers,
	}
	if s.Corner {
		cfg.Placement = 0 // core.PlacementCorner
		cfg.PlacementSet = true
	}
	if err := cfg.Validate(); err != nil {
		return sim.Config{}, err
	}
	return cfg, nil
}

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
