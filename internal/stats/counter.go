// Package stats provides the statistics primitives used throughout the
// simulator: named counters, binned histograms matching the paper's Figure 3
// bins, latency breakdowns (network vs. bank queuing), and the system-level
// performance metrics of Section 4.1 (instruction throughput, weighted
// speedup, maximum slowdown).
package stats

import "encoding/json"

// Counter is a monotonically increasing event counter.
type Counter struct {
	n uint64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta uint64) { c.n += delta }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n++ }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Reset sets the counter back to zero.
func (c *Counter) Reset() { c.n = 0 }

// Accumulator tracks a running sum, count, min and max of observed samples.
// The zero value is ready to use.
type Accumulator struct {
	sum   float64
	count uint64
	min   float64
	max   float64
}

// Observe records one sample.
func (a *Accumulator) Observe(v float64) {
	if a.count == 0 || v < a.min {
		a.min = v
	}
	if a.count == 0 || v > a.max {
		a.max = v
	}
	a.sum += v
	a.count++
}

// Count returns the number of observed samples.
func (a *Accumulator) Count() uint64 { return a.count }

// Sum returns the sum of all observed samples.
func (a *Accumulator) Sum() float64 { return a.sum }

// Mean returns the arithmetic mean of the samples, or 0 if none were observed.
func (a *Accumulator) Mean() float64 {
	if a.count == 0 {
		return 0
	}
	return a.sum / float64(a.count)
}

// Min returns the smallest observed sample, or 0 if none were observed.
func (a *Accumulator) Min() float64 { return a.min }

// Max returns the largest observed sample, or 0 if none were observed.
func (a *Accumulator) Max() float64 { return a.max }

// Reset discards all samples.
func (a *Accumulator) Reset() { *a = Accumulator{} }

// accumulatorJSON is the wire form of an Accumulator. The fields are private
// in memory (the accessors enforce the zero-samples contract), but the
// campaign checkpoint journal must round-trip results losslessly.
type accumulatorJSON struct {
	Sum   float64 `json:"sum"`
	Count uint64  `json:"count"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
}

// MarshalJSON serializes the accumulator for the checkpoint journal.
func (a Accumulator) MarshalJSON() ([]byte, error) {
	return json.Marshal(accumulatorJSON{Sum: a.sum, Count: a.count, Min: a.min, Max: a.max})
}

// UnmarshalJSON restores an accumulator from its journaled form.
func (a *Accumulator) UnmarshalJSON(data []byte) error {
	var j accumulatorJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	a.sum, a.count, a.min, a.max = j.Sum, j.Count, j.Min, j.Max
	return nil
}
