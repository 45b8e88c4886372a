package exp

import (
	"strings"
	"testing"
)

func TestAblationWBWindow(t *testing.T) {
	r := tinyRunner(t)
	pts := AblationWBWindow(r)
	if len(pts) != 5 {
		t.Fatalf("points = %d, want 5", len(pts))
	}
	if pts[0].Normalized != 1 {
		t.Fatal("first point must be the reference")
	}
	for _, p := range pts {
		if p.Perf <= 0 {
			t.Fatalf("%s: no performance measured", p.Label)
		}
		// The paper's claim is that performance is insensitive around N=100;
		// sanity-bound the whole sweep to a modest band.
		if p.Normalized < 0.7 || p.Normalized > 1.3 {
			t.Errorf("%s: window swing too large (%.2f)", p.Label, p.Normalized)
		}
	}
	var b strings.Builder
	PrintAblation(&b, "wb window", pts)
	if !strings.Contains(b.String(), "N=100") {
		t.Fatal("rendered sweep missing N=100 row")
	}
}

func TestAblationHoldCap(t *testing.T) {
	r := tinyRunner(t)
	pts := AblationHoldCap(r)
	if len(pts) != 4 || pts[0].Label != "demote-only" {
		t.Fatalf("unexpected sweep: %+v", pts)
	}
	for _, p := range pts {
		if p.Perf <= 0 {
			t.Fatalf("%s: no performance measured", p.Label)
		}
	}
}

func TestAblationBankQueue(t *testing.T) {
	r := tinyRunner(t)
	pts := AblationBankQueue(r)
	if len(pts) != 4 {
		t.Fatalf("points = %d, want 4", len(pts))
	}
	for _, p := range pts {
		if p.Perf <= 0 {
			t.Fatalf("%s: no performance measured", p.Label)
		}
	}
}

func TestAblationWriteLatencyInflection(t *testing.T) {
	r := tinyRunner(t)
	pts := AblationWriteLatency(r)
	if len(pts) != 3 { // quick mode
		t.Fatalf("points = %d, want 3", len(pts))
	}
	if pts[0].WriteCycles != 3 || pts[len(pts)-1].WriteCycles != 150 {
		t.Fatalf("sweep endpoints wrong: %+v", pts)
	}
	for _, p := range pts {
		if p.Gain <= 0 {
			t.Fatalf("wc=%d: no measurement", p.WriteCycles)
		}
		// The scheme's effect stays within a plausible band at every write
		// latency; the sweep's *shape* (where the benefit peaks, and how it
		// erodes once bank bandwidth saturates at PCRAM-like latencies) is
		// recorded and discussed in EXPERIMENTS.md rather than asserted at
		// this tiny test scale, where the ratio is sensitive to cycle-level
		// timing (the PCRAM point sits near 1.6 under end-of-cycle credit
		// visibility).
		if p.Gain < 0.5 || p.Gain > 1.8 {
			t.Errorf("wc=%d: implausible gain %.2f", p.WriteCycles, p.Gain)
		}
	}
	var b strings.Builder
	PrintWriteLatency(&b, pts)
	if !strings.Contains(b.String(), "150") {
		t.Fatal("rendered sweep missing the PCRAM point")
	}
}

func TestExtensions(t *testing.T) {
	r := tinyRunner(t)
	entries := Extensions(r)
	if len(entries) == 0 {
		t.Fatal("no extension entries")
	}
	for _, e := range entries {
		if e.Normalized[0] != 1 {
			t.Errorf("%s: STT-RAM baseline not 1", e.Bench)
		}
		for i, v := range e.Normalized {
			if v <= 0 {
				t.Errorf("%s design %d: no measurement", e.Bench, i)
			}
		}
		// Early write termination shortens every array write; it must not
		// hurt on write-heavy workloads.
		if e.Normalized[1] < 0.98 {
			t.Errorf("%s: EWT should not hurt (%.3f)", e.Bench, e.Normalized[1])
		}
	}
	var b strings.Builder
	PrintExtensions(&b, entries)
	if !strings.Contains(b.String(), "WB+EWT") || !strings.Contains(b.String(), "Hybrid16") {
		t.Fatal("rendered extensions missing designs")
	}
}
