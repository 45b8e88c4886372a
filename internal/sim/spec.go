package sim

import (
	"fmt"
	"strings"

	"sttsim/internal/core"
	"sttsim/internal/workload"
	api "sttsim/pkg/sttsim"
)

var suitesByName = map[string]workload.Suite{
	"":       workload.SuiteSPEC,
	"spec":   workload.SuiteSPEC,
	"parsec": workload.SuitePARSEC,
	"server": workload.SuiteServer,
}

// FromSpec resolves a wire job spec into a validated Config. It is the one
// place a benchmark name or profile mix, a scheme name, the corner flag and
// the knob list become a Config: the daemon, nocsim and the exploration
// engine all build their runs through it. Every error is a *ValidationError
// (HTTP 400 on the daemon).
//
// Placement: corner sets corner TSBs; an explicit region count without it is
// staggered; a spec that sets neither runs the paper's 8 staggered regions.
func FromSpec(s api.JobSpec) (Config, error) {
	scheme, err := ParseScheme(s.Scheme)
	if err != nil {
		return Config{}, &ValidationError{Field: "scheme", Msg: strings.TrimPrefix(err.Error(), "sim: ")}
	}
	assignment, err := specAssignment(s)
	if err != nil {
		return Config{}, err
	}
	cfg := Config{
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
	switch {
	case s.Corner:
		cfg.Placement, cfg.PlacementSet = core.PlacementCorner, true
	case s.Regions != 0:
		cfg.Placement = core.PlacementStagger
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// specAssignment resolves the spec's workload: a custom profile mix, one of
// the paper's case-study mixes, or a homogeneous Table 3 benchmark.
func specAssignment(s api.JobSpec) (workload.Assignment, error) {
	switch {
	case len(s.Profiles) > 0 && s.Bench != "":
		return workload.Assignment{}, invalid("bench", "bench and profiles are mutually exclusive")
	case len(s.Profiles) > 0:
		if len(s.Profiles) > api.MaxProfiles {
			return workload.Assignment{}, invalid("profiles", "at most %d profiles, got %d", api.MaxProfiles, len(s.Profiles))
		}
		profs := make([]workload.Profile, len(s.Profiles))
		names := make([]string, len(s.Profiles))
		for i, ps := range s.Profiles {
			suite, ok := suitesByName[strings.ToLower(ps.Suite)]
			if !ok {
				return workload.Assignment{}, invalid(fmt.Sprintf("profiles[%d].suite", i), "unknown suite %q (want server|parsec|spec)", ps.Suite)
			}
			if ps.Name == "" {
				return workload.Assignment{}, invalid(fmt.Sprintf("profiles[%d].name", i), "must be non-empty")
			}
			profs[i] = workload.Profile{
				Name: ps.Name, Suite: suite,
				L1MPKI: ps.L1MPKI, L2MPKI: ps.L2MPKI,
				L2WPKI: ps.L2WPKI, L2RPKI: ps.L2RPKI,
				Bursty: ps.Bursty,
			}
			names[i] = ps.Name
		}
		return workload.Mix("mix:"+strings.Join(names, "+"), profs), nil
	case s.Bench == "case1":
		return workload.Case1(), nil
	case s.Bench == "case2":
		return workload.Case2(), nil
	case s.Bench != "":
		prof, err := workload.ByName(s.Bench)
		if err != nil {
			return workload.Assignment{}, invalid("bench", "unknown benchmark %q", s.Bench)
		}
		return workload.Homogeneous(prof), nil
	default:
		return workload.Assignment{}, invalid("bench", "one of bench or profiles is required")
	}
}
