package stats

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatalf("zero counter = %d, want 0", c.Value())
	}
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Fatalf("counter = %d, want 42", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Fatalf("reset counter = %d, want 0", c.Value())
	}
}

func TestAccumulator(t *testing.T) {
	var a Accumulator
	if a.Mean() != 0 || a.Count() != 0 {
		t.Fatal("zero accumulator should report 0 mean/count")
	}
	for _, v := range []float64{3, 1, 2} {
		a.Observe(v)
	}
	if a.Count() != 3 {
		t.Fatalf("count = %d, want 3", a.Count())
	}
	if a.Sum() != 6 {
		t.Fatalf("sum = %f, want 6", a.Sum())
	}
	if a.Mean() != 2 {
		t.Fatalf("mean = %f, want 2", a.Mean())
	}
	if a.Min() != 1 || a.Max() != 3 {
		t.Fatalf("min/max = %f/%f, want 1/3", a.Min(), a.Max())
	}
	a.Reset()
	if a.Count() != 0 || a.Sum() != 0 {
		t.Fatal("reset accumulator should be empty")
	}
}

func TestAccumulatorNegativeFirstSample(t *testing.T) {
	var a Accumulator
	a.Observe(-5)
	if a.Min() != -5 || a.Max() != -5 {
		t.Fatalf("min/max = %f/%f, want -5/-5", a.Min(), a.Max())
	}
}

func TestGapHistogramBins(t *testing.T) {
	h := NewGapHistogram()
	if h.Bins() != 7 {
		t.Fatalf("gap histogram has %d bins, want 7", h.Bins())
	}
	// One sample per bin boundary region.
	samples := []uint64{0, 15, 16, 32, 33, 65, 66, 98, 99, 131, 132, 164, 165, 1000}
	wantBin := []int{0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6}
	for i, v := range samples {
		before := h.Count(wantBin[i])
		h.Observe(v)
		if h.Count(wantBin[i]) != before+1 {
			t.Fatalf("sample %d landed outside bin %d", v, wantBin[i])
		}
	}
	if h.Total() != uint64(len(samples)) {
		t.Fatalf("total = %d, want %d", h.Total(), len(samples))
	}
}

func TestHistogramPercents(t *testing.T) {
	h := NewHistogram(10, 20)
	for i := 0; i < 5; i++ {
		h.Observe(5)
	}
	for i := 0; i < 5; i++ {
		h.Observe(15)
	}
	p := h.Percents()
	if p[0] != 50 || p[1] != 50 || p[2] != 0 {
		t.Fatalf("percents = %v, want [50 50 0]", p)
	}
}

func TestHistogramLabels(t *testing.T) {
	h := NewGapHistogram()
	want := []string{"<16", "16-33", "33-66", "66-99", "99-132", "132-165", "165+"}
	for i, w := range want {
		if got := h.Label(i); got != w {
			t.Errorf("label(%d) = %q, want %q", i, got, w)
		}
	}
}

func TestHistogramMergeAndReset(t *testing.T) {
	a := NewGapHistogram()
	b := NewGapHistogram()
	a.Observe(5)
	b.Observe(200)
	b.Observe(20)
	a.Merge(b)
	if a.Total() != 3 {
		t.Fatalf("merged total = %d, want 3", a.Total())
	}
	if a.Count(0) != 1 || a.Count(1) != 1 || a.Count(6) != 1 {
		t.Fatalf("merged counts wrong: %v", a.Percents())
	}
	a.Reset()
	if a.Total() != 0 || a.Count(0) != 0 {
		t.Fatal("reset histogram should be empty")
	}
}

func TestHistogramMergePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mismatched bounds")
		}
	}()
	NewHistogram(1, 2).Merge(NewHistogram(1, 3))
}

func TestNewHistogramPanicsOnBadBounds(t *testing.T) {
	for _, bounds := range [][]uint64{{}, {5, 5}, {5, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for bounds %v", bounds)
				}
			}()
			NewHistogram(bounds...)
		}()
	}
}

func TestIPCAndThroughput(t *testing.T) {
	if got := IPC(200, 100); got != 2 {
		t.Fatalf("IPC = %f, want 2", got)
	}
	if got := IPC(5, 0); got != 0 {
		t.Fatalf("IPC with zero cycles = %f, want 0", got)
	}
	if got := InstructionThroughput([]float64{1, 2, 0.5}); got != 3.5 {
		t.Fatalf("IT = %f, want 3.5", got)
	}
}

func TestWeightedSpeedupAndSlowdown(t *testing.T) {
	shared := []float64{1, 1}
	alone := []float64{2, 1}
	if got := WeightedSpeedup(shared, alone); got != 1.5 {
		t.Fatalf("WS = %f, want 1.5", got)
	}
	if got := MaxSlowdown(shared, alone); got != 2 {
		t.Fatalf("max slowdown = %f, want 2", got)
	}
	// Zero alone IPC contributes nothing; zero shared IPC is skipped.
	if got := WeightedSpeedup([]float64{1}, []float64{0}); got != 0 {
		t.Fatalf("WS with zero alone = %f, want 0", got)
	}
	if got := MaxSlowdown([]float64{0}, []float64{3}); got != 0 {
		t.Fatalf("slowdown with zero shared = %f, want 0", got)
	}
}

func TestMinIPC(t *testing.T) {
	if got := MinIPC(nil); got != 0 {
		t.Fatalf("MinIPC(nil) = %f, want 0", got)
	}
	if got := MinIPC([]float64{2, 0.5, 1}); got != 0.5 {
		t.Fatalf("MinIPC = %f, want 0.5", got)
	}
}

func TestLatencyBreakdown(t *testing.T) {
	var l LatencyBreakdown
	l.ObservePacket(10, 30)
	l.ObservePacket(20, 10)
	if l.MeanNetwork() != 15 {
		t.Fatalf("mean network = %f, want 15", l.MeanNetwork())
	}
	if l.MeanQueue() != 20 {
		t.Fatalf("mean queue = %f, want 20", l.MeanQueue())
	}
	if l.MeanTotal() != 35 {
		t.Fatalf("mean total = %f, want 35", l.MeanTotal())
	}
	l.Reset()
	if l.MeanTotal() != 0 {
		t.Fatal("reset breakdown should be empty")
	}
}

// Property: histogram percents always sum to ~100 for non-empty histograms,
// and every sample lands in exactly one bin.
func TestHistogramPercentSumProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewGapHistogram()
		for _, v := range raw {
			h.Observe(uint64(v))
		}
		var sum float64
		var count uint64
		for i := 0; i < h.Bins(); i++ {
			sum += h.Percent(i)
			count += h.Count(i)
		}
		return math.Abs(sum-100) < 1e-6 && count == uint64(len(raw))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: weighted speedup of a workload against itself equals the number
// of cores with nonzero IPC, and max slowdown is exactly 1 when any core has
// nonzero IPC.
func TestSelfSpeedupProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		ipcs := make([]float64, len(raw))
		nonzero := 0
		for i, v := range raw {
			ipcs[i] = float64(v) / 16
			if ipcs[i] > 0 {
				nonzero++
			}
		}
		ws := WeightedSpeedup(ipcs, ipcs)
		if math.Abs(ws-float64(nonzero)) > 1e-9 {
			return false
		}
		ms := MaxSlowdown(ipcs, ipcs)
		if nonzero == 0 {
			return ms == 0
		}
		return math.Abs(ms-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: accumulator mean always lies within [min, max].
func TestAccumulatorMeanBoundsProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		var a Accumulator
		for _, v := range raw {
			a.Observe(float64(v))
		}
		return a.Mean() >= a.Min()-1e-9 && a.Mean() <= a.Max()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHeatmapRendering(t *testing.T) {
	vals := make([]float64, 64)
	vals[0] = 1   // bottom-left (printed last)
	vals[63] = 10 // top-right (printed first)
	var b strings.Builder
	Heatmap(&b, "demo", vals, 8)
	out := b.String()
	if !strings.Contains(out, "demo (max 10.000)") {
		t.Fatalf("missing title/max: %q", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// title + border + 8 rows + border
	if len(lines) != 11 {
		t.Fatalf("rendered %d lines, want 11", len(lines))
	}
	// Max value renders as the darkest shade in the first grid row.
	if !strings.Contains(lines[2], "@@") {
		t.Fatalf("top row should contain the darkest shade: %q", lines[2])
	}
	// Invalid shapes degrade gracefully.
	var e strings.Builder
	Heatmap(&e, "bad", vals[:3], 8)
	if !strings.Contains(e.String(), "invalid heatmap shape") {
		t.Fatal("invalid shape not reported")
	}
}

func TestHeatmapAllZeros(t *testing.T) {
	var b strings.Builder
	Heatmap(&b, "zeros", make([]float64, 4), 2)
	if !strings.Contains(b.String(), "max 0.000") {
		t.Fatal("zero heatmap should render with max 0")
	}
}

func TestAccumulatorJSONRoundTrip(t *testing.T) {
	var a Accumulator
	for _, v := range []float64{3, 1, 4, 1.5, 9} {
		a.Observe(v)
	}
	data, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	var b Accumulator
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if b.Sum() != a.Sum() || b.Count() != a.Count() || b.Min() != a.Min() || b.Max() != a.Max() {
		t.Fatalf("round trip lost samples: %+v vs %+v", b, a)
	}
}

func TestHistogramJSONRoundTrip(t *testing.T) {
	h := NewGapHistogram()
	for _, v := range []uint64{1, 17, 40, 200, 5, 100} {
		h.Observe(v)
	}
	data, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	g := &Histogram{}
	if err := json.Unmarshal(data, g); err != nil {
		t.Fatal(err)
	}
	if g.Total() != h.Total() || g.Bins() != h.Bins() {
		t.Fatalf("round trip changed shape: %v vs %v", g, h)
	}
	for i := 0; i < h.Bins(); i++ {
		if g.Count(i) != h.Count(i) || g.Label(i) != h.Label(i) {
			t.Fatalf("bin %d differs after round trip", i)
		}
	}
	// A second round-tripped histogram must still Merge with a live one.
	h.Merge(g)
	if err := json.Unmarshal([]byte(`{"bounds":[5,3],"counts":[1,2,3],"total":6}`), g); err == nil {
		t.Fatal("non-increasing bounds must be rejected")
	}
}
