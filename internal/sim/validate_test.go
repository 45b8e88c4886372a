package sim

import (
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"sttsim/internal/fault"
	"sttsim/internal/mem"
	"sttsim/internal/workload"
)

// validBase is a config that must pass validation.
func validBase() Config {
	return Config{
		Scheme:     SchemeSTT4TSBWB,
		Assignment: workload.Homogeneous(workload.MustByName("tpcc")),
	}
}

// TestValidateAcceptsDefaults: the zero-ish config every driver builds is
// valid after default resolution.
func TestValidateAcceptsDefaults(t *testing.T) {
	if err := validBase().Validate(); err != nil {
		t.Fatalf("Validate(default config) = %v, want nil", err)
	}
	cfg := validBase()
	cfg.Regions = 16
	cfg.Hops = 3
	cfg.WriteBufferEntries = 20
	cfg.HoldCap = -1 // negative disables holds — documented and legal
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Validate(tuned config) = %v, want nil", err)
	}
	// A port fault past node 127 is legal on a mesh that has the node.
	cfg = validBase()
	cfg.MeshX, cfg.MeshY = 16, 16
	cfg.Fault = &fault.Config{PortFaults: []fault.PortFault{{Cycle: 1, Node: 300, Port: 1, Period: 2}}}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Validate(16x16x2 port fault at node 300) = %v, want nil", err)
	}
}

// TestValidateRejectsHostileConfigs: the table of malformed/hostile shapes the
// serving layer must turn into 400s. Every rejection is a typed
// *ValidationError and names the offending field.
func TestValidateRejectsHostileConfigs(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"negative scheme", func(c *Config) { c.Scheme = -1 }},
		{"scheme out of range", func(c *Config) { c.Scheme = NumSchemes }},
		{"absurd cycle count", func(c *Config) { c.MeasureCycles = MaxConfigCycles + 1 }},
		{"cycle overflow", func(c *Config) { c.WarmupCycles = math.MaxUint64 - 1; c.MeasureCycles = 10 }},
		{"zero region mesh", func(c *Config) { c.Regions = -4 }},
		{"region count 3", func(c *Config) { c.Regions = 3 }},
		{"region count 1024", func(c *Config) { c.Regions = 1024 }},
		{"bad placement", func(c *Config) { c.Placement = 7; c.PlacementSet = true }},
		{"negative hops", func(c *Config) { c.Hops = -2 }},
		{"absurd write buffer", func(c *Config) { c.WriteBufferEntries = 1 << 30 }},
		{"negative write buffer", func(c *Config) { c.WriteBufferEntries = -1 }},
		{"negative wb window", func(c *Config) { c.WBWindow = -5 }},
		{"absurd hold cap", func(c *Config) { c.HoldCap = MaxHoldCapCycles + 1 }},
		{"negative bank queue", func(c *Config) { c.BankQueueDepth = -1 }},
		{"hybrid banks beyond layer", func(c *Config) { c.HybridSRAMBanks = 65 }},
		{"tiny watchdog", func(c *Config) { c.WatchdogCycles = 3 }},
		{"empty assignment", func(c *Config) { c.Assignment = workload.Assignment{} }},
		{"NaN profile rate", func(c *Config) { c.Assignment.Profiles[5].L2RPKI = nan }},
		{"Inf profile rate", func(c *Config) { c.Assignment.Profiles[0].L2WPKI = math.Inf(1) }},
		{"negative profile rate", func(c *Config) { c.Assignment.Profiles[63].L1MPKI = -3 }},
		{"absurd profile rate", func(c *Config) { c.Assignment.Profiles[1].L2MPKI = 1e9 }},
		{"zero-capacity tech", func(c *Config) { c.CustomTech = &mem.Tech{Name: "x", ReadCycles: 2, WriteCycles: 2} }},
		{"zero-cycle tech", func(c *Config) { c.CustomTech = &mem.Tech{Name: "x", CapacityMB: 4} }},
		{"NaN tech energy", func(c *Config) {
			c.CustomTech = &mem.Tech{Name: "x", CapacityMB: 4, ReadCycles: 2, WriteCycles: 2, ReadEnergyNJ: nan}
		}},
		{"NaN fault rate", func(c *Config) { c.Fault = &fault.Config{WriteErrorRate: nan} }},
		{"fault rate above 1", func(c *Config) { c.Fault = &fault.Config{WriteErrorRate: 2} }},
		{"fault region beyond run", func(c *Config) {
			c.Fault = &fault.Config{WriteErrorRate: 1e-4, TSBFailures: []fault.TSBFailure{{Cycle: 1, Region: 12}}}
		}},
		{"unknown tech profile", func(c *Config) { c.TechProfile = "unobtainium" }},
		{"profile with custom tech", func(c *Config) {
			t := mem.STTRAM
			c.TechProfile = "sttram"
			c.CustomTech = &t
		}},
		{"mesh width too small", func(c *Config) { c.MeshX = 1 }},
		{"mesh width too large", func(c *Config) { c.MeshX = 64 }},
		{"negative mesh height", func(c *Config) { c.MeshY = -8 }},
		{"too many layers", func(c *Config) { c.Layers = 9 }},
		{"one layer", func(c *Config) { c.Layers = 1; c.MeshX = 8 }},
		{"node ceiling", func(c *Config) { c.MeshX = 32; c.MeshY = 32; c.Layers = 8 }},
		{"regions do not tile mesh", func(c *Config) { c.MeshX = 2; c.MeshY = 2; c.Regions = 16 }},
		{"hybrid banks beyond small topo", func(c *Config) { c.MeshX = 4; c.MeshY = 4; c.HybridSRAMBanks = 17 }},
		{"fault port 300 on the paper shape", func(c *Config) {
			c.Fault = &fault.Config{PortFaults: []fault.PortFault{{Cycle: 1, Node: 300, Port: 1, Period: 2}}}
		}},
		{"negative fault port node", func(c *Config) {
			c.Fault = &fault.Config{PortFaults: []fault.PortFault{{Cycle: 1, Node: -1, Port: 1, Period: 2}}}
		}},
		{"fault port beyond topo", func(c *Config) {
			c.MeshX = 4
			c.MeshY = 4
			c.Fault = &fault.Config{WriteErrorRate: 1e-4, PortFaults: []fault.PortFault{{Cycle: 1, Node: 100, Port: 1, Period: 2}}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := validBase()
			tc.mutate(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatal("hostile config passed validation")
			}
			var ve *ValidationError
			if !errors.As(err, &ve) {
				t.Fatalf("rejection %v is not a *ValidationError", err)
			}
			if strings.HasPrefix(ve.Msg, ve.Field+":") {
				t.Fatalf("rejection %q repeats its field name", err)
			}
		})
	}
}

// TestValidateNeverMutates: Validate resolves defaults on a copy.
func TestValidateNeverMutates(t *testing.T) {
	cfg := validBase()
	_ = cfg.Validate()
	if cfg.WarmupCycles != 0 || cfg.Regions != 0 || cfg.Hops != 0 {
		t.Fatalf("Validate mutated its receiver: %+v", cfg)
	}
}

// FuzzValidateConfigJSON: arbitrary JSON decoded into a Config either fails
// to decode, fails validation, or builds a simulator — never panics. This is
// the panic-isolation guarantee the serving layer's workers rely on.
func FuzzValidateConfigJSON(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"Scheme":5,"MeasureCycles":1000}`))
	f.Add([]byte(`{"Scheme":-9,"Regions":3,"Hops":-1}`))
	f.Add([]byte(`{"WarmupCycles":18446744073709551615,"MeasureCycles":2}`))
	f.Add([]byte(`{"Assignment":{"Name":"x","Profiles":[{"L2RPKI":1e308}]}}`))
	f.Add([]byte(`{"CustomTech":{"CapacityMB":-1},"HybridSRAMBanks":9999}`))
	f.Add([]byte(`{"TechProfile":"sttram-rr10","MeshX":4,"MeshY":4,"Layers":3}`))
	f.Add([]byte(`{"TechProfile":"hybrid32","MeshX":16,"MeshY":2}`))
	f.Add([]byte(`{"MeshX":32,"MeshY":32,"Layers":2,"Regions":16}`))
	f.Add([]byte(`{"TechProfile":"../../etc/passwd","Layers":-1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var cfg Config
		if err := json.Unmarshal(data, &cfg); err != nil {
			return
		}
		if cfg.Assignment.Name == "" {
			// Give decodable configs a runnable workload so validation
			// exercises the numeric bounds, not just the name check.
			cfg.Assignment = workload.Homogeneous(workload.MustByName("wrf"))
		}
		if err := cfg.Validate(); err != nil {
			if !IsValidationError(err) {
				t.Fatalf("rejection %v is not a *ValidationError", err)
			}
			return
		}
		// Accepted configs must construct without panicking. (Running them is
		// a supervision concern; construction is where geometry could blow up.)
		if _, err := New(cfg); err != nil {
			t.Fatalf("validated config failed construction: %v", err)
		}
		// And they must keep constructing under every registered technology
		// profile — the exploration engine substitutes profiles freely into
		// otherwise-accepted specs.
		for _, name := range mem.ProfileNames() {
			pcfg := cfg
			pcfg.TechProfile = name
			pcfg.CustomTech = nil
			pcfg.HybridSRAMBanks = 0
			if err := pcfg.Validate(); err != nil {
				if !IsValidationError(err) {
					t.Fatalf("profile %q rejection %v is not a *ValidationError", name, err)
				}
				continue
			}
			if _, err := New(pcfg); err != nil {
				t.Fatalf("validated config failed construction under profile %q: %v", name, err)
			}
		}
	})
}
