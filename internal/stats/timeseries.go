package stats

// Time-series sampling registry (internal/obs tentpole, part 2): named probes
// are registered once at simulator construction, then Sample(now) snapshots
// every probe into a fixed-capacity ring buffer every K cycles. The rings
// bound memory for arbitrarily long runs; the exported MetricsLog is what
// cmd/nocsim -metrics-out writes out as a CSV/JSONL artifact.

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// DefaultSeriesCap is the default ring capacity: at the default 1000-cycle
// sampling interval this covers an 8M-cycle run without wrapping.
const DefaultSeriesCap = 8192

// Probe reads one instantaneous metric value.
type Probe func() float64

// Series is a fixed-capacity ring of samples for one metric.
type Series struct {
	name  string
	probe Probe
	buf   []float64
	head  int // next write position
	n     int // live samples (≤ cap)
}

// Name returns the metric name.
func (s *Series) Name() string { return s.name }

// Len returns the number of live samples.
func (s *Series) Len() int { return s.n }

// Values returns the live samples oldest-first (a copy).
func (s *Series) Values() []float64 {
	out := make([]float64, s.n)
	start := s.head - s.n
	if start < 0 {
		start += len(s.buf)
	}
	for i := 0; i < s.n; i++ {
		out[i] = s.buf[(start+i)%len(s.buf)]
	}
	return out
}

func (s *Series) push(v float64) {
	s.buf[s.head] = v
	s.head = (s.head + 1) % len(s.buf)
	if s.n < len(s.buf) {
		s.n++
	}
}

// SampleFunc observes one live sampling tick — the streaming adapter the
// serving layer uses to push probe samples to SSE subscribers while a run is
// still executing. names and values are parallel, in registration order, and
// both slices are reused between ticks: copy them if they outlive the call.
type SampleFunc func(cycle uint64, names []string, values []float64)

// Registry holds named probes and their sample rings. The zero value is not
// usable; construct with NewRegistry. A nil *Registry is the disabled state:
// Register and Sample on nil are no-ops, mirroring obs.Tracer.
type Registry struct {
	interval uint64
	cap      int
	series   []*Series
	byName   map[string]*Series
	cycles   *Series // parallel ring of sample cycles

	onSample SampleFunc
	names    []string  // lazily built for onSample, invalidated by Register
	values   []float64 // reused between onSample ticks
}

// NewRegistry creates a registry sampling every interval cycles, each series
// keeping at most capacity samples (DefaultSeriesCap when capacity <= 0).
// A zero interval disables sampling and yields a nil registry.
func NewRegistry(interval uint64, capacity int) *Registry {
	if interval == 0 {
		return nil
	}
	if capacity <= 0 {
		capacity = DefaultSeriesCap
	}
	return &Registry{
		interval: interval,
		cap:      capacity,
		byName:   make(map[string]*Series),
		cycles:   &Series{name: "cycle", buf: make([]float64, capacity)},
	}
}

// Interval returns the sampling period in cycles (0 when disabled).
func (r *Registry) Interval() uint64 {
	if r == nil {
		return 0
	}
	return r.interval
}

// Register adds a probe under name. Registering the same name twice replaces
// the probe but keeps the samples, so re-wiring after a fault is seamless.
func (r *Registry) Register(name string, p Probe) {
	if r == nil || p == nil {
		return
	}
	if s, ok := r.byName[name]; ok {
		s.probe = p
		return
	}
	s := &Series{name: name, probe: p, buf: make([]float64, r.cap)}
	r.byName[name] = s
	r.series = append(r.series, s)
	r.names = nil // re-derive on the next streamed sample
}

// SetOnSample installs a live-sample observer (nil uninstalls). Safe on a nil
// registry, matching the rest of the disabled-state contract.
func (r *Registry) SetOnSample(fn SampleFunc) {
	if r == nil {
		return
	}
	r.onSample = fn
}

// Due reports whether now is a sampling cycle.
func (r *Registry) Due(now uint64) bool {
	return r != nil && now%r.interval == 0
}

// Sample snapshots every probe. Call when Due(now); calling on other cycles
// records an off-interval sample, which is harmless but unaligned.
func (r *Registry) Sample(now uint64) {
	if r == nil {
		return
	}
	r.cycles.push(float64(now))
	for _, s := range r.series {
		s.push(s.probe())
	}
	if r.onSample != nil {
		if r.names == nil {
			r.names = make([]string, len(r.series))
			for i, s := range r.series {
				r.names[i] = s.name
			}
			r.values = make([]float64, len(r.series))
		}
		for i, s := range r.series {
			// The freshest sample is one behind the ring head.
			idx := s.head - 1
			if idx < 0 {
				idx += len(s.buf)
			}
			r.values[i] = s.buf[idx]
		}
		r.onSample(now, r.names, r.values)
	}
}

// Reset drops all recorded samples (the simulator calls this at the warmup
// boundary so the log covers the measurement window only).
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.cycles.head, r.cycles.n = 0, 0
	for _, s := range r.series {
		s.head, s.n = 0, 0
	}
}

// Log snapshots the registry into an exportable MetricsLog. Series appear in
// name order for deterministic output.
func (r *Registry) Log() *MetricsLog {
	if r == nil {
		return nil
	}
	ml := &MetricsLog{Interval: r.interval, Cycles: make([]uint64, r.cycles.n)}
	for i, v := range r.cycles.Values() {
		ml.Cycles[i] = uint64(v)
	}
	names := make([]string, 0, len(r.series))
	for _, s := range r.series {
		names = append(names, s.name)
	}
	sort.Strings(names)
	for _, name := range names {
		ml.Series = append(ml.Series, MetricSeries{Name: name, Values: r.byName[name].Values()})
	}
	return ml
}

// MetricSeries is one exported metric's samples, aligned with
// MetricsLog.Cycles.
type MetricSeries struct {
	Name   string    `json:"name"`
	Values []float64 `json:"values"`
}

// MetricsLog is the exportable snapshot of a sampling registry.
type MetricsLog struct {
	Interval uint64         `json:"interval"`
	Cycles   []uint64       `json:"cycles"`
	Series   []MetricSeries `json:"series"`
}

// WriteCSV renders the log as one row per sample, one column per metric.
func (m *MetricsLog) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	bw.WriteString("cycle")
	for _, s := range m.Series {
		bw.WriteString(",")
		bw.WriteString(s.Name)
	}
	bw.WriteString("\n")
	for i, cyc := range m.Cycles {
		bw.WriteString(strconv.FormatUint(cyc, 10))
		for _, s := range m.Series {
			bw.WriteString(",")
			if i < len(s.Values) {
				bw.WriteString(strconv.FormatFloat(s.Values[i], 'g', -1, 64))
			}
		}
		if _, err := bw.WriteString("\n"); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteJSONL renders the log as one JSON object per sample, matching the
// artifact convention of the checkpoint journal (one record per line).
func (m *MetricsLog) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	for i, cyc := range m.Cycles {
		fmt.Fprintf(bw, `{"cycle":%d`, cyc)
		for _, s := range m.Series {
			if i < len(s.Values) {
				fmt.Fprintf(bw, `,%q:%s`, s.Name, strconv.FormatFloat(s.Values[i], 'g', -1, 64))
			}
		}
		if _, err := bw.WriteString("}\n"); err != nil {
			return err
		}
	}
	return bw.Flush()
}
