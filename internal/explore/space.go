// Package explore is the design-space exploration engine: it sweeps named
// technology profiles, network topologies, and scheme/geometry knobs over the
// campaign execution engine, scores every evaluated point on uncore latency,
// uncore energy, and die area, and maintains the Pareto-optimal frontier of
// the swept space. The paper's evaluation walks a handful of hand-picked
// configurations; this package turns that walk into a reproducible search:
// deterministic enumeration, seeded sampling, successive-halving budget
// allocation, checkpoint/resume through the campaign journal, and
// machine-readable frontier artifacts (pareto.jsonl, CSV, ranked summary).
package explore

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"sttsim/internal/mem"
	"sttsim/internal/noc"
	"sttsim/internal/sim"
	api "sttsim/pkg/sttsim"
)

// Axis is one sweep dimension: a named, ordered list of values and the rule
// for binding a value into a job spec.
type Axis struct {
	Name   string
	Values []string

	set func(*api.JobSpec, string) error
}

// TechAxis sweeps registered technology profiles. With no arguments it
// covers every registered profile.
func TechAxis(names ...string) (Axis, error) {
	if len(names) == 0 {
		names = mem.ProfileNames()
	}
	for _, n := range names {
		if _, ok := mem.LookupProfile(n); !ok {
			return Axis{}, fmt.Errorf("explore: unknown tech profile %q (registered: %s)",
				n, strings.Join(mem.ProfileNames(), ", "))
		}
	}
	return Axis{
		Name:   "tech",
		Values: names,
		set: func(s *api.JobSpec, v string) error {
			s.TechProfile = v
			return nil
		},
	}, nil
}

// TopoAxis sweeps network shapes given as "XxYxL" strings (e.g. "8x8x2").
func TopoAxis(shapes ...string) (Axis, error) {
	if len(shapes) == 0 {
		return Axis{}, fmt.Errorf("explore: topology axis needs at least one shape")
	}
	canon := make([]string, len(shapes))
	for i, s := range shapes {
		t, err := noc.ParseTopology(s)
		if err != nil {
			return Axis{}, err
		}
		canon[i] = t.String()
	}
	return Axis{
		Name:   "topo",
		Values: canon,
		set: func(s *api.JobSpec, v string) error {
			t, err := noc.ParseTopology(v)
			if err != nil {
				return err
			}
			s.MeshX, s.MeshY, s.Layers = t.MeshX, t.MeshY, t.Layers
			return nil
		},
	}, nil
}

// SchemeAxis sweeps design schemes by name (see sim.ParseScheme); the names
// as given are the axis values.
func SchemeAxis(names ...string) (Axis, error) {
	if len(names) == 0 {
		return Axis{}, fmt.Errorf("explore: scheme axis needs at least one scheme")
	}
	for _, n := range names {
		if _, err := sim.ParseScheme(n); err != nil {
			return Axis{}, fmt.Errorf("explore: %w", err)
		}
	}
	return Axis{
		Name:   "scheme",
		Values: names,
		set: func(s *api.JobSpec, v string) error {
			s.Scheme = v
			return nil
		},
	}, nil
}

// RegionsAxis sweeps the region count (4, 8, or 16). Placement follows the
// base spec's corner flag: staggered unless the base sets corner.
func RegionsAxis(counts ...int) (Axis, error) {
	return intAxis("regions", counts, func(s *api.JobSpec, n int) { s.Regions = n })
}

// HopsAxis sweeps the parent-child re-ordering distance.
func HopsAxis(counts ...int) (Axis, error) {
	return intAxis("hops", counts, func(s *api.JobSpec, n int) { s.Hops = n })
}

// WriteBufferAxis sweeps the per-bank write-buffer depth (0 disables).
func WriteBufferAxis(entries ...int) (Axis, error) {
	return intAxis("wbuf", entries, func(s *api.JobSpec, n int) { s.WriteBufferEntries = n })
}

func intAxis(name string, vals []int, set func(*api.JobSpec, int)) (Axis, error) {
	if len(vals) == 0 {
		return Axis{}, fmt.Errorf("explore: %s axis needs at least one value", name)
	}
	strs := make([]string, len(vals))
	for i, v := range vals {
		strs[i] = strconv.Itoa(v)
	}
	return Axis{
		Name:   name,
		Values: strs,
		set: func(s *api.JobSpec, v string) error {
			n, err := strconv.Atoi(v)
			if err != nil {
				return fmt.Errorf("explore: %s axis value %q: %w", name, v, err)
			}
			set(s, n)
			return nil
		},
	}, nil
}

// Point is one coordinate of the space: a value per axis, in axis order.
type Point struct {
	Values []string
	ID     string // canonical "axis=value,..." rendering
}

// Space is a parameter space over a base job spec: the cartesian product of
// its axes, minus the points sim.FromSpec rejects.
type Space struct {
	// Base carries everything the axes do not touch: workload, cycles, seed.
	Base api.JobSpec
	Axes []Axis
}

// NewSpace validates the axes (non-empty, unique names) over a base spec.
func NewSpace(base api.JobSpec, axes ...Axis) (*Space, error) {
	if len(axes) == 0 {
		return nil, fmt.Errorf("explore: a space needs at least one axis")
	}
	seen := map[string]bool{}
	for _, a := range axes {
		if a.Name == "" || len(a.Values) == 0 || a.set == nil {
			return nil, fmt.Errorf("explore: malformed axis %q", a.Name)
		}
		if seen[a.Name] {
			return nil, fmt.Errorf("explore: duplicate axis %q", a.Name)
		}
		seen[a.Name] = true
		vseen := map[string]bool{}
		for _, v := range a.Values {
			if vseen[v] {
				return nil, fmt.Errorf("explore: axis %q repeats value %q", a.Name, v)
			}
			vseen[v] = true
		}
	}
	return &Space{Base: base, Axes: axes}, nil
}

// Size returns the raw cartesian size, before constraint pruning.
func (s *Space) Size() int {
	n := 1
	for _, a := range s.Axes {
		n *= len(a.Values)
	}
	return n
}

// pointID renders the canonical identity of a value vector.
func (s *Space) pointID(vals []string) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = s.Axes[i].Name + "=" + v
	}
	return strings.Join(parts, ",")
}

// bind applies a point's values to the base spec.
func (s *Space) bind(p Point) (api.JobSpec, error) {
	if len(p.Values) != len(s.Axes) {
		return api.JobSpec{}, fmt.Errorf("explore: point %q has %d values for %d axes", p.ID, len(p.Values), len(s.Axes))
	}
	spec := s.Base
	for i, a := range s.Axes {
		if err := a.set(&spec, p.Values[i]); err != nil {
			return api.JobSpec{}, err
		}
	}
	return spec, nil
}

// Config binds a point into a full runnable, validated configuration.
func (s *Space) Config(p Point) (sim.Config, error) {
	spec, err := s.bind(p)
	if err != nil {
		return sim.Config{}, err
	}
	return sim.FromSpec(spec)
}

// Points enumerates every valid point in deterministic lexicographic axis
// order. Points whose bound configuration fails validation (e.g. a region
// count that does not tile a swept mesh) are pruned; the second return is
// how many the constraints dropped.
func (s *Space) Points() ([]Point, int) {
	idx := make([]int, len(s.Axes))
	var pts []Point
	pruned := 0
	for {
		vals := make([]string, len(s.Axes))
		for i, a := range s.Axes {
			vals[i] = a.Values[idx[i]]
		}
		p := Point{Values: vals, ID: s.pointID(vals)}
		if _, err := s.Config(p); err == nil {
			pts = append(pts, p)
		} else {
			pruned++
		}
		// Odometer increment, last axis fastest.
		i := len(idx) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(s.Axes[i].Values) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return pts, pruned
		}
	}
}

// SortPoints orders points canonically by ID (in place) — the tie-break used
// everywhere ordering must not depend on evaluation timing.
func SortPoints(pts []Point) {
	sort.Slice(pts, func(i, j int) bool { return pts[i].ID < pts[j].ID })
}
