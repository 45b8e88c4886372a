package sim

import (
	"testing"

	"sttsim/internal/core"
	api "sttsim/pkg/sttsim"
)

// TestFromSpecPlacement pins how a spec's region count and corner flag
// resolve: omitted regions keep the paper-default fingerprint, an explicit
// count is staggered unless corner is set, and unknown names are typed
// rejections.
func TestFromSpecPlacement(t *testing.T) {
	cases := []struct {
		name      string
		spec      api.JobSpec
		regions   int
		placement core.Placement
	}{
		{"default", api.JobSpec{Scheme: "wb", Bench: "x264"}, 8, core.PlacementStagger},
		{"explicit regions stagger", api.JobSpec{Scheme: "wb", Bench: "x264", Regions: 8}, 8, core.PlacementStagger},
		{"explicit regions corner", api.JobSpec{Scheme: "wb", Bench: "x264", Regions: 4, Corner: true}, 4, core.PlacementCorner},
		{"corner default count", api.JobSpec{Scheme: "wb", Bench: "x264", Corner: true}, 8, core.PlacementCorner},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := FromSpec(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			if got := cfg.withDefaults(); got.Regions != tc.regions || got.Placement != tc.placement {
				t.Fatalf("resolved %d regions placed %v, want %d placed %v",
					got.Regions, got.Placement, tc.regions, tc.placement)
			}
		})
	}

	cfg, err := FromSpec(api.JobSpec{Scheme: "wb", Bench: "x264"})
	if err != nil {
		t.Fatal(err)
	}
	if fp := cfg.Fingerprint(); fp != "904202293a0f5d930f500d54998bdcca36a4f9c9bb7fdfc245cdbeba67cf64cb" {
		t.Errorf("default spec fingerprint drifted: %s", fp)
	}

	for _, spec := range []api.JobSpec{
		{Scheme: "wb", Bench: "no-such-bench"},
		{Scheme: "wb", Bench: "x264", TechProfile: "no-such-tech"},
		{Scheme: "quantum", Bench: "x264"},
		{Scheme: "wb"},
	} {
		if _, err := FromSpec(spec); !IsValidationError(err) {
			t.Errorf("FromSpec(%+v) = %v, want a *ValidationError", spec, err)
		}
	}
}
