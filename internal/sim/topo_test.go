package sim

import (
	"testing"

	"sttsim/internal/mem"
	"sttsim/internal/workload"
)

// TestNonDefaultTopologiesRun: the parameterized shapes the exploration
// engine sweeps — smaller meshes, taller stacks, rectangular layers — all
// build, run, and retire instructions end to end under the full WB scheme.
func TestNonDefaultTopologiesRun(t *testing.T) {
	for _, shape := range []struct{ x, y, l int }{
		{4, 4, 2}, {4, 4, 3}, {8, 8, 3}, {16, 8, 2}, {2, 8, 2},
	} {
		cfg := Config{
			Scheme:     SchemeSTT4TSBWB,
			Assignment: workload.Homogeneous(workload.MustByName("x264")),
			MeshX:      shape.x, MeshY: shape.y, Layers: shape.l,
			WarmupCycles: 2000, MeasureCycles: 5000, Regions: 4,
			AuditInterval: 500,
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%dx%dx%d: validate: %v", shape.x, shape.y, shape.l, err)
		}
		r, err := Run(cfg)
		if err != nil {
			t.Fatalf("%dx%dx%d: run: %v", shape.x, shape.y, shape.l, err)
		}
		if r.InstructionThroughput <= 0 {
			t.Errorf("%dx%dx%d: zero throughput", shape.x, shape.y, shape.l)
		}
		if r.Energy.UncoreJ() <= 0 {
			t.Errorf("%dx%dx%d: zero uncore energy", shape.x, shape.y, shape.l)
		}
	}
}

// TestTopologyDeterminism: a non-default shape is exactly as deterministic as
// the paper shape — two runs of the same config produce identical results.
func TestTopologyDeterminism(t *testing.T) {
	cfg := Config{
		Scheme:     SchemeSTT4TSBRCA,
		Assignment: workload.Homogeneous(workload.MustByName("tpcc")),
		MeshX:      4, MeshY: 8, Layers: 3,
		WarmupCycles: 2000, MeasureCycles: 4000, Regions: 8,
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.InstructionThroughput != b.InstructionThroughput ||
		a.Latency.MeanNetwork() != b.Latency.MeanNetwork() ||
		a.Energy.UncoreJ() != b.Energy.UncoreJ() {
		t.Fatalf("non-default topology runs diverged: %+v vs %+v",
			a.InstructionThroughput, b.InstructionThroughput)
	}
}

// TestTechProfilesRun: every registered profile drives a full run; hybrid
// profiles resolve their SRAM split, and the retention-relaxed variants beat
// baseline STT-RAM on mean queue latency at equal traffic (their writes hold
// banks for fewer cycles).
func TestTechProfilesRun(t *testing.T) {
	base := func() Config {
		return Config{
			Scheme:       SchemeSTT4TSBWB,
			Assignment:   workload.Homogeneous(workload.MustByName("tpcc")),
			WarmupCycles: 3000, MeasureCycles: 8000,
		}
	}
	results := map[string]*Result{}
	for _, name := range mem.ProfileNames() {
		cfg := base()
		cfg.TechProfile = name
		if err := cfg.Validate(); err != nil {
			t.Fatalf("profile %q: validate: %v", name, err)
		}
		r, err := Run(cfg)
		if err != nil {
			t.Fatalf("profile %q: run: %v", name, err)
		}
		results[name] = r
	}
	if rr, stt := results["sttram-rr10"], results["sttram"]; rr.Latency.MeanQueue() >= stt.Latency.MeanQueue() {
		t.Errorf("sttram-rr10 queue latency %.2f not below baseline sttram %.2f",
			rr.Latency.MeanQueue(), stt.Latency.MeanQueue())
	}
}

// TestHybridProfileResolvesSplit: selecting hybrid16 with an unset
// HybridSRAMBanks behaves exactly like the explicit split.
func TestHybridProfileResolvesSplit(t *testing.T) {
	viaProfile := Config{
		Scheme:     SchemeSTT4TSBWB,
		Assignment: workload.Homogeneous(workload.MustByName("x264")),
	}
	explicit := viaProfile
	viaProfile.TechProfile = "hybrid16"
	explicit.HybridSRAMBanks = 16
	a, err := Run(withQuick(viaProfile))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(withQuick(explicit))
	if err != nil {
		t.Fatal(err)
	}
	if a.InstructionThroughput != b.InstructionThroughput {
		t.Fatalf("hybrid16 profile (IT=%.3f) diverged from explicit 16-bank split (IT=%.3f)",
			a.InstructionThroughput, b.InstructionThroughput)
	}
}

func withQuick(c Config) Config {
	c.WarmupCycles = 2000
	c.MeasureCycles = 5000
	return c
}
