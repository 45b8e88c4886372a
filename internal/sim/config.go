// Package sim assembles the full system — 64 cores, the two-layer NoC, 64
// L2 banks, 4 memory controllers, the coherence directory and the STT-RAM-
// aware arbitration — and runs the six design scenarios of Section 4.1 over
// the Table 3 workloads, producing the measurements every figure and table
// of the paper's evaluation is built from.
package sim

import (
	"fmt"
	"strings"

	"sttsim/internal/core"
	"sttsim/internal/cpu"
	"sttsim/internal/fault"
	"sttsim/internal/mem"
	"sttsim/internal/noc"
	"sttsim/internal/workload"
)

// Scheme is one of the six design scenarios of Section 4.1.
type Scheme int

const (
	// SchemeSRAM64TSB: SRAM banks, unrestricted path diversity (baseline).
	SchemeSRAM64TSB Scheme = iota
	// SchemeSTT64TSB: STT-RAM banks (4x capacity, 33-cycle writes),
	// unrestricted path diversity.
	SchemeSTT64TSB
	// SchemeSTT4TSB: STT-RAM banks, requests restricted to the region TSBs,
	// no prioritization (isolates the cost of restricting path diversity).
	SchemeSTT4TSB
	// SchemeSTT4TSBSS: region TSBs + bank-aware arbitration with the
	// Simplistic congestion estimator.
	SchemeSTT4TSBSS
	// SchemeSTT4TSBRCA: region TSBs + bank-aware arbitration with Regional
	// Congestion Awareness.
	SchemeSTT4TSBRCA
	// SchemeSTT4TSBWB: region TSBs + bank-aware arbitration with the
	// Window-Based estimator (the paper's recommended design).
	SchemeSTT4TSBWB
	// NumSchemes is the scenario count.
	NumSchemes
)

var schemeNames = [NumSchemes]string{
	"SRAM-64TSB", "STT-RAM-64TSB", "STT-RAM-4TSB",
	"STT-RAM-4TSB-SS", "STT-RAM-4TSB-RCA", "STT-RAM-4TSB-WB",
}

// String returns the paper's name for the scheme.
func (s Scheme) String() string {
	if s >= 0 && s < NumSchemes {
		return schemeNames[s]
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// schemesByName maps every accepted spelling, lower-cased, onto its scheme:
// the command-line names below plus the paper's names (added by init).
var schemesByName = map[string]Scheme{
	"sram": SchemeSRAM64TSB, "stt64": SchemeSTT64TSB, "stt4": SchemeSTT4TSB,
	"ss": SchemeSTT4TSBSS, "rca": SchemeSTT4TSBRCA, "wb": SchemeSTT4TSBWB,
}

func init() {
	for s, name := range schemeNames {
		schemesByName[strings.ToLower(name)] = Scheme(s)
	}
}

// ParseScheme resolves a scheme name, case-insensitively: a command-line
// spelling (sram, stt64, stt4, ss, rca, wb) or the paper's name (e.g.
// STT-RAM-4TSB-WB).
func ParseScheme(name string) (Scheme, error) {
	s, ok := schemesByName[strings.ToLower(name)]
	if !ok {
		return 0, fmt.Errorf("sim: unknown scheme %q (want sram|stt64|stt4|ss|rca|wb)", name)
	}
	return s, nil
}

// AllSchemes lists the six scenarios in the paper's order.
func AllSchemes() []Scheme {
	return []Scheme{
		SchemeSRAM64TSB, SchemeSTT64TSB, SchemeSTT4TSB,
		SchemeSTT4TSBSS, SchemeSTT4TSBRCA, SchemeSTT4TSBWB,
	}
}

// Tech returns the bank technology the scheme uses.
func (s Scheme) Tech() mem.Tech {
	if s == SchemeSRAM64TSB {
		return mem.SRAM
	}
	return mem.STTRAM
}

// Restricted reports whether requests are confined to the region TSBs.
func (s Scheme) Restricted() bool { return s >= SchemeSTT4TSB }

// Prioritized reports whether the bank-aware arbiter is active.
func (s Scheme) Prioritized() bool { return s >= SchemeSTT4TSBSS }

// Config describes one simulation run.
type Config struct {
	Scheme     Scheme
	Assignment workload.Assignment
	Seed       uint64

	// WarmupCycles run before statistics are reset; MeasureCycles are then
	// simulated and reported.
	WarmupCycles  uint64
	MeasureCycles uint64

	// Region geometry (Section 3.4 / Figure 11); zero values mean 8
	// staggered regions — the configuration the paper's Figure 12
	// sensitivity study finds best and recommends.
	Regions   int
	Placement core.Placement
	// placementSet records an explicit Placement choice (Placement's zero
	// value is a valid setting).
	PlacementSet bool
	// Hops is the parent-child re-ordering distance (default 2).
	Hops int

	// WriteBufferEntries, when nonzero, fronts every bank with the Sun et
	// al. SRAM write buffer (20 reproduces BUFF-20); ReadPreemption enables
	// their read-preemptive drain abort.
	WriteBufferEntries int
	ReadPreemption     bool

	// ExtraReqVC grants the request class one more VC (the "+1 VC" design
	// point of Section 4.4).
	ExtraReqVC bool

	// WBWindow overrides the window-based estimator's tagging period
	// (default 100 packets).
	WBWindow int

	// CustomTech, when non-nil, replaces the scheme's bank technology —
	// used by the write-latency inflection ablation and the PCRAM
	// extension. The SRAM baseline scheme ignores it.
	CustomTech *mem.Tech

	// TechProfile selects a registered bank technology by name (see
	// mem.ProfileNames: "sram", "sttram", "sttram-rr10", "sotram",
	// "hybrid16", ...). Empty means the scheme's own technology. Mutually
	// exclusive with CustomTech; the SRAM baseline scheme ignores it. A
	// hybrid profile also resolves HybridSRAMBanks when that field is unset.
	TechProfile string

	// MeshX, MeshY, Layers select the network shape (mesh width and height
	// per layer, total stacked layers including the core layer). All-zero
	// means the paper's 8x8x2 system; partially set dims inherit the default
	// for the unset axes. See Config.Topology.
	MeshX  int
	MeshY  int
	Layers int

	// HoldCap overrides the arbiter's hard-hold window in cycles
	// (0 = core.HoldCap default; negative disables holds entirely,
	// degrading the scheme to pure demotion).
	HoldCap int

	// BankQueueDepth overrides the module-interface demand-queue depth
	// (0 = MaxBankQueue default).
	BankQueueDepth int

	// GeneratorFactory, when non-nil, supplies each core's instruction
	// stream instead of the built-in synthetic generator — the hook trace
	// replay (internal/trace) plugs into. missRatio is the technology-
	// adjusted read miss ratio the built-in generator would have used.
	// Excluded from JSON (funcs cannot serialize) and from Fingerprint;
	// such runs are never memoized or checkpoint-journaled (see Cacheable).
	GeneratorFactory func(core int, prof workload.Profile, missRatio float64) cpu.Generator `json:"-"`

	// Extensions beyond the paper's six schemes (documented in DESIGN.md):

	// HybridSRAMBanks makes the first N banks SRAM while the rest use the
	// scheme's technology — the hybrid cache architecture of the related
	// work ([17,19]) as a comparison point. 0 disables.
	HybridSRAMBanks int
	// EarlyWriteTermination enables the Zhou et al. (ICCAD'09) circuit-level
	// mitigation on every bank: array writes complete in 40-100% of the
	// worst-case pulse.
	EarlyWriteTermination bool

	// Resilience knobs (documented in DESIGN.md "Resilience"):

	// Fault, when non-nil and enabled, runs the simulation under a
	// fault-injection campaign: scheduled TSB/link failures with graceful
	// region re-homing, router port degradation, and stochastic STT-RAM write
	// failures with bounded retry. A nil or disabled config is provably
	// zero-cost: withDefaults normalizes it to nil and no fault machinery is
	// wired.
	Fault *fault.Config

	// Obs, when non-nil and enabled, wires the observability layer
	// (internal/obs): packet-lifecycle event tracing into Obs.Sink and/or
	// time-series metrics sampling every Obs.MetricsInterval cycles. Like
	// Fault, a present-but-disabled config is normalized to nil by
	// withDefaults, so disabled runs take exactly the pre-observability code
	// paths. Excluded from JSON (sinks cannot serialize) and from
	// fingerprinting; observed runs are never memoized (see Cacheable).
	Obs *ObsConfig `json:"-"`

	// AuditInterval, when nonzero, runs noc.CheckInvariants every
	// AuditInterval cycles during the run; a violation aborts the run with a
	// structured *RunError. cmd/nocsim audits every 10000 cycles by default.
	AuditInterval uint64

	// WatchdogCycles overrides the NoC deadlock watchdog window (0 = the
	// noc.WatchdogCycles default). Tests use small values so induced
	// deadlocks are detected quickly.
	WatchdogCycles uint64
}

// BankTech resolves the bank technology for this configuration:
// CustomTech when set, else the named TechProfile, else the scheme's own
// technology. The SRAM baseline scheme always runs Table 2 SRAM.
func (c Config) BankTech() mem.Tech {
	if c.Scheme != SchemeSRAM64TSB {
		if c.CustomTech != nil {
			return *c.CustomTech
		}
		if p, ok := c.techProfile(); ok {
			return p.Tech
		}
	}
	return c.Scheme.Tech()
}

// techProfile resolves the named profile, if any.
func (c Config) techProfile() (mem.Profile, bool) {
	if c.TechProfile == "" {
		return mem.Profile{}, false
	}
	return mem.LookupProfile(c.TechProfile)
}

// Topology resolves the configured network shape; unset dims take the
// paper's 8x8x2 defaults.
func (c Config) Topology() noc.Topology {
	t := noc.Topology{MeshX: c.MeshX, MeshY: c.MeshY, Layers: c.Layers}
	def := noc.DefaultTopology()
	if t.MeshX == 0 {
		t.MeshX = def.MeshX
	}
	if t.MeshY == 0 {
		t.MeshY = def.MeshY
	}
	if t.Layers == 0 {
		t.Layers = def.Layers
	}
	return t
}

// TotalCycles is the run's length, warmup plus measure, with unset windows
// at their defaults.
func (c Config) TotalCycles() uint64 {
	c = c.withDefaults()
	return c.WarmupCycles + c.MeasureCycles
}

// withDefaults fills unset fields with the paper's defaults.
func (c Config) withDefaults() Config {
	if c.WarmupCycles == 0 {
		c.WarmupCycles = 20000
	}
	if c.MeasureCycles == 0 {
		c.MeasureCycles = 60000
	}
	if c.Regions == 0 {
		c.Regions = 8
		if !c.PlacementSet {
			c.Placement = core.PlacementStagger
		}
	}
	if c.Hops == 0 {
		c.Hops = core.DefaultHops
	}
	if c.WBWindow == 0 {
		c.WBWindow = core.WBWindow
	}
	if c.Seed == 0 {
		c.Seed = 0x5717AB
	}
	// A hybrid tech profile carries its SRAM split; an explicit
	// HybridSRAMBanks wins over the profile's.
	if p, ok := c.techProfile(); ok && p.HybridSRAMBanks > 0 && c.HybridSRAMBanks == 0 {
		c.HybridSRAMBanks = p.HybridSRAMBanks
	}
	// Zero-cost-when-off guarantee: a present-but-disabled fault campaign is
	// indistinguishable from no campaign at all, so Results stay byte-
	// identical to the fault-free code paths. An *invalid* campaign (e.g. a
	// negative error rate) is kept so New rejects it rather than silently
	// running fault-free.
	if c.Fault != nil && !c.Fault.Enabled() && c.Fault.Validate() == nil {
		c.Fault = nil
	}
	// Same guarantee for the observability layer: a present-but-inert Obs
	// config wires nothing.
	if !c.Obs.enabled() {
		c.Obs = nil
	}
	return c
}
