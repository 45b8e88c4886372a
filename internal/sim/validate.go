package sim

// Untrusted-input hardening. The batch drivers construct Configs from their
// own flag parsing, but the serving layer (internal/service) builds them from
// arbitrary client JSON, so a Config needs an explicit, panic-free validity
// check with hard resource bounds: a hostile request must be rejected with a
// typed error at the front door, never run (or allocate) its way into a
// worker.

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"sttsim/internal/core"
	"sttsim/internal/mem"
	"sttsim/internal/noc"
)

// Resource ceilings for validated configurations. They are far above
// anything the paper's evaluation uses, but low enough that a single
// accepted job cannot pin a worker or its memory indefinitely.
const (
	// MaxConfigCycles caps WarmupCycles + MeasureCycles.
	MaxConfigCycles = 100_000_000
	// MaxWriteBufferEntries caps the per-bank write buffer.
	MaxWriteBufferEntries = 4096
	// MaxBankQueueDepth caps the module-interface demand queue.
	MaxBankQueueDepth = 4096
	// MaxParentHops caps the parent-child re-ordering distance (the mesh is
	// 8x8, so anything beyond its diameter is meaningless).
	MaxParentHops = 14
	// MaxWBWindowPackets caps the window-based estimator's tagging period.
	MaxWBWindowPackets = 1_000_000
	// MaxHoldCapCycles caps the arbiter's hard-hold window.
	MaxHoldCapCycles = 1_000_000
	// MaxPKI caps the per-kilo-instruction rates of a workload profile; the
	// theoretical ceiling is 1000 (every instruction).
	MaxPKI = 1000
)

// ValidationError is the typed rejection of an untrusted Config; the serving
// layer maps it onto HTTP 400.
type ValidationError struct {
	Field string
	Msg   string
}

// Error renders the rejection.
func (e *ValidationError) Error() string {
	return fmt.Sprintf("sim: invalid config: %s: %s", e.Field, e.Msg)
}

// IsValidationError reports whether err is a config rejection.
func IsValidationError(err error) bool {
	var ve *ValidationError
	return errors.As(err, &ve)
}

func invalid(field, format string, args ...any) error {
	return &ValidationError{Field: field, Msg: fmt.Sprintf(format, args...)}
}

// finite rejects NaN and ±Inf — json.Unmarshal refuses them in literals, but
// journals, fuzzers, and in-process callers can still smuggle them in.
func finite(field string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return invalid(field, "must be finite, got %g", v)
	}
	return nil
}

// Validate checks a Config built from untrusted input against structural and
// resource bounds, after default resolution (so a zero field that defaults to
// a valid value passes). It never panics and never mutates c. A nil return
// guarantees New(c) cannot fail on geometry and that the run's resource
// appetite is bounded; it does not guarantee the run succeeds — deadlocks,
// watchdog trips, and fault-campaign outcomes are runtime verdicts. New
// calls it first, so every run passes it; accepting a config allocates
// nothing.
func (c Config) Validate() error {
	// Check the fault campaign's floats before default resolution: a NaN
	// write-error rate fails Enabled() and would be silently normalized to
	// nil by withDefaults, and a garbage config deserves a rejection, not a
	// silent fault-free run.
	if c.Fault != nil {
		if err := finite("fault.write_error_rate", c.Fault.WriteErrorRate); err != nil {
			return err
		}
	}
	c = c.withDefaults()

	if c.Scheme < 0 || c.Scheme >= NumSchemes {
		return invalid("scheme", "unknown scheme %d (want 0..%d)", int(c.Scheme), int(NumSchemes)-1)
	}
	if c.MeasureCycles == 0 {
		return invalid("measure_cycles", "must be positive")
	}
	if total := c.WarmupCycles + c.MeasureCycles; total > MaxConfigCycles || total < c.WarmupCycles {
		return invalid("measure_cycles", "warmup+measure = %d cycles exceeds the %d-cycle ceiling", total, uint64(MaxConfigCycles))
	}
	topo := c.Topology()
	if topo.MeshX < noc.MinMeshDim || topo.MeshX > noc.MaxMeshDim {
		return invalid("mesh_x", "mesh width %d outside [%d,%d]", topo.MeshX, noc.MinMeshDim, noc.MaxMeshDim)
	}
	if topo.MeshY < noc.MinMeshDim || topo.MeshY > noc.MaxMeshDim {
		return invalid("mesh_y", "mesh height %d outside [%d,%d]", topo.MeshY, noc.MinMeshDim, noc.MaxMeshDim)
	}
	if topo.Layers < 2 || topo.Layers > noc.MaxLayers {
		return invalid("layers", "layer count %d outside [2,%d]", topo.Layers, noc.MaxLayers)
	}
	if n := topo.NumNodes(); n > noc.MaxTopologyNodes {
		return invalid("layers", "%s has %d nodes, above the %d-node ceiling", topo, n, noc.MaxTopologyNodes)
	}
	if c.TechProfile != "" {
		if c.CustomTech != nil {
			return invalid("tech_profile", "cannot be combined with custom_tech")
		}
		if _, ok := mem.LookupProfile(c.TechProfile); !ok {
			return invalid("tech_profile", "unknown profile %q (registered: %s)",
				c.TechProfile, strings.Join(mem.ProfileNames(), ", "))
		}
	}
	switch c.Regions {
	case 4, 8, 16:
	default:
		return invalid("regions", "unsupported region count %d (want 4, 8, or 16)", c.Regions)
	}
	if _, _, err := core.RegionTile(topo, c.Regions); err != nil {
		return invalid("regions", "%d regions do not tile a %dx%d mesh", c.Regions, topo.MeshX, topo.MeshY)
	}
	if c.Placement != 0 && c.Placement != 1 {
		return invalid("placement", "unknown placement %d", int(c.Placement))
	}
	if c.Hops < 1 || c.Hops > MaxParentHops {
		return invalid("hops", "parent hop distance %d outside [1,%d]", c.Hops, MaxParentHops)
	}
	if c.WriteBufferEntries < 0 || c.WriteBufferEntries > MaxWriteBufferEntries {
		return invalid("write_buffer_entries", "%d outside [0,%d]", c.WriteBufferEntries, MaxWriteBufferEntries)
	}
	if c.WBWindow < 1 || c.WBWindow > MaxWBWindowPackets {
		return invalid("wb_window", "%d outside [1,%d]", c.WBWindow, MaxWBWindowPackets)
	}
	if c.HoldCap > MaxHoldCapCycles {
		return invalid("hold_cap", "%d exceeds the %d-cycle ceiling", c.HoldCap, MaxHoldCapCycles)
	}
	if c.BankQueueDepth < 0 || c.BankQueueDepth > MaxBankQueueDepth {
		return invalid("bank_queue_depth", "%d outside [0,%d]", c.BankQueueDepth, MaxBankQueueDepth)
	}
	if c.HybridSRAMBanks < 0 || c.HybridSRAMBanks > topo.NumBanks() {
		return invalid("hybrid_sram_banks", "%d outside [0,%d]", c.HybridSRAMBanks, topo.NumBanks())
	}
	if c.WatchdogCycles != 0 && c.WatchdogCycles < 100 {
		return invalid("watchdog_cycles", "%d is below the 100-cycle floor (every real packet takes longer; smaller values fabricate deadlocks)", c.WatchdogCycles)
	}

	if c.Assignment.Name == "" {
		return invalid("assignment.name", "must be non-empty")
	}
	for i, p := range c.Assignment.Profiles {
		for _, f := range []struct {
			name string
			v    float64
		}{
			{"l1_mpki", p.L1MPKI}, {"l2_mpki", p.L2MPKI},
			{"l2_wpki", p.L2WPKI}, {"l2_rpki", p.L2RPKI},
		} {
			// The field name is formatted only on rejection: this loop runs
			// for every core on every New, so it must not allocate.
			if f.v >= 0 && f.v <= MaxPKI {
				continue
			}
			field := fmt.Sprintf("assignment.profiles[%d].%s", i, f.name)
			if err := finite(field, f.v); err != nil {
				return err
			}
			return invalid(field, "rate %g outside [0,%d]", f.v, MaxPKI)
		}
	}

	if t := c.CustomTech; t != nil {
		if t.CapacityMB < 1 || t.CapacityMB > 1024 {
			return invalid("custom_tech.capacity_mb", "%d outside [1,1024]", t.CapacityMB)
		}
		if t.ReadCycles < 1 || t.ReadCycles > 100_000 {
			return invalid("custom_tech.read_cycles", "%d outside [1,100000]", t.ReadCycles)
		}
		if t.WriteCycles < 1 || t.WriteCycles > 100_000 {
			return invalid("custom_tech.write_cycles", "%d outside [1,100000]", t.WriteCycles)
		}
		for _, f := range []struct {
			name string
			v    float64
		}{
			{"area_mm2", t.AreaMM2}, {"read_energy_nj", t.ReadEnergyNJ},
			{"write_energy_nj", t.WriteEnergyNJ}, {"leakage_power_mw", t.LeakagePowerMW},
			{"read_latency_ns", t.ReadLatencyNS}, {"write_latency_ns", t.WriteLatencyNS},
		} {
			field := "custom_tech." + f.name
			if err := finite(field, f.v); err != nil {
				return err
			}
			if f.v < 0 {
				return invalid(field, "must be non-negative, got %g", f.v)
			}
		}
	}

	if c.Fault != nil {
		if err := c.Fault.Validate(); err != nil {
			return &ValidationError{Field: "fault", Msg: strings.TrimPrefix(err.Error(), "fault: ")}
		}
		for i, f := range c.Fault.TSBFailures {
			if f.Region >= c.Regions {
				return invalid(fmt.Sprintf("fault.tsb_failures[%d].region", i),
					"region %d outside the run's %d regions", f.Region, c.Regions)
			}
		}
		for i, p := range c.Fault.PortFaults {
			if !topo.ValidNode(p.Node) {
				return invalid(fmt.Sprintf("fault.port_faults[%d].node", i),
					"node %d outside the run's %s topology", p.Node, topo)
			}
		}
	}
	return nil
}
