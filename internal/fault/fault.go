// Package fault implements the deterministic fault-injection engine behind
// the simulator's resilience experiments. It models the two hardware failure
// modes a stacked 3D STT-RAM cache actually faces:
//
//   - structural faults in the vertical interconnect — a through-silicon bus
//     (TSB) or an individual router port dying outright or degrading to a
//     fraction of its bandwidth (TSV/TSB defects are a first-order yield
//     concern in 3D stacking);
//   - stochastic STT-RAM write failures — the MTJ write process is inherently
//     probabilistic, so any realistic controller needs retry-on-write-failure
//     support. The engine draws a per-array-write failure with a configurable
//     raw write error rate.
//
// Every draw comes from a per-bank splitmix64 stream seeded from the campaign
// seed, so a campaign is exactly reproducible: the same Config produces the
// same fault sequence regardless of wall-clock or map iteration order.
// Structural faults are scheduled events (cycle-stamped), consumed in
// deterministic order by the simulator's main loop.
//
// The engine is provably zero-cost when disabled: a Config with a zero write
// error rate and no scheduled events reports Enabled() == false, and the
// simulator wires nothing.
package fault

import (
	"fmt"
	"sort"

	"sttsim/internal/noc"
)

// Defaults for the graceful-degradation machinery in cache.BankController.
const (
	// DefaultMaxWriteRetries bounds how many times a failed STT-RAM array
	// write is re-pulsed before the controller gives up and invalidates the
	// line.
	DefaultMaxWriteRetries = 3
	// DefaultRetryBackoffCycles is the gap between a detected write failure
	// and the retry re-entering the bank queue (verify-read plus control
	// turnaround; the retry itself then occupies the array for a full
	// Table 2 write pulse).
	DefaultRetryBackoffCycles = 8
)

// TSBFailure kills one region TSB's vertical down-link at the given cycle.
// Region indexes the RegionLayout the run uses (0-based); for unrestricted
// schemes it resolves against the same layout geometry so failure campaigns
// are comparable across schemes.
type TSBFailure struct {
	Cycle  uint64
	Region int
}

// PortFault degrades one router output port starting at the given cycle.
// Period 0 kills the port outright; Period N > 1 lets it move flits only on
// cycles divisible by N (a link running at 1/N duty cycle, e.g. a partially
// delaminated TSV bundle).
type PortFault struct {
	Cycle  uint64
	Node   noc.NodeID
	Port   noc.Port
	Period uint64
}

// Config describes one fault-injection campaign.
type Config struct {
	// Seed drives every stochastic draw; 0 means "derive from the run seed"
	// (the simulator substitutes its workload seed).
	Seed uint64

	// WriteErrorRate is the per-array-write probability that an STT-RAM write
	// fails and must be retried (the raw write error rate; realistic MTJs sit
	// around 1e-9..1e-4 depending on pulse margin).
	WriteErrorRate float64

	// MaxWriteRetries bounds the retry-with-backoff loop; 0 means
	// DefaultMaxWriteRetries. After the last retry fails the controller
	// invalidates the line instead of wedging the bank.
	MaxWriteRetries int

	// RetryBackoffCycles is the delay before a failed write re-enters the
	// bank queue; 0 means DefaultRetryBackoffCycles.
	RetryBackoffCycles uint64

	// TSBFailures schedules vertical-bus deaths (graceful re-homing).
	TSBFailures []TSBFailure

	// PortFaults schedules router port degradations (no re-routing: these
	// model faults the topology cannot route around, and are how resilience
	// tests induce detectable deadlocks).
	PortFaults []PortFault
}

// Enabled reports whether the campaign injects anything at all. A nil or
// zero-rate, event-free config is a no-op and the simulator wires no fault
// machinery for it.
func (c *Config) Enabled() bool {
	if c == nil {
		return false
	}
	return c.WriteErrorRate > 0 || len(c.TSBFailures) > 0 || len(c.PortFaults) > 0
}

// Validate rejects configurations that cannot describe a physical campaign.
func (c *Config) Validate() error {
	if c == nil {
		return nil
	}
	if c.WriteErrorRate < 0 || c.WriteErrorRate > 1 {
		return fmt.Errorf("fault: write error rate %g outside [0,1]", c.WriteErrorRate)
	}
	if c.MaxWriteRetries < 0 {
		return fmt.Errorf("fault: negative retry bound %d", c.MaxWriteRetries)
	}
	for _, f := range c.TSBFailures {
		if f.Region < 0 {
			return fmt.Errorf("fault: TSB failure with negative region %d", f.Region)
		}
	}
	for _, f := range c.PortFaults {
		// The upper bound depends on the run's topology; the simulator's
		// config validation checks it.
		if f.Node < 0 {
			return fmt.Errorf("fault: port fault on invalid node %d", f.Node)
		}
		if f.Port < 0 || f.Port >= noc.NumPorts {
			return fmt.Errorf("fault: port fault on invalid port %d", f.Port)
		}
		if f.Period == 1 {
			return fmt.Errorf("fault: port fault with period 1 is not a fault")
		}
	}
	return nil
}

// MaxRetries resolves the retry bound.
func (c *Config) MaxRetries() int {
	if c == nil || c.MaxWriteRetries == 0 {
		return DefaultMaxWriteRetries
	}
	return c.MaxWriteRetries
}

// Backoff resolves the retry backoff.
func (c *Config) Backoff() uint64 {
	if c == nil || c.RetryBackoffCycles == 0 {
		return DefaultRetryBackoffCycles
	}
	return c.RetryBackoffCycles
}

// Event is one scheduled structural fault, ready for the simulator to apply.
// Exactly one of TSB / Port is non-nil.
type Event struct {
	Cycle uint64
	TSB   *TSBFailure
	Port  *PortFault
}

// Stats counts the engine's stochastic activity.
type Stats struct {
	WriteDraws    uint64 // array writes that consulted the error model
	WriteFailures uint64 // draws that came up faulty
}

// Engine is the run-time half of a campaign: pre-sorted structural events and
// per-bank PRNG streams for the write error model.
type Engine struct {
	cfg    Config
	events []Event
	next   int

	bankRNG []uint64
	stats   Stats
}

// NewEngine builds the engine for a campaign over numBanks banks. The
// runSeed is mixed in when the config leaves Seed at 0, so fault draws follow
// the workload seed by default. Per-bank streams are seeded by bank index.
func NewEngine(cfg Config, runSeed uint64, numBanks int) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = runSeed ^ 0xFA017FA017FA0170
	}
	e := &Engine{cfg: cfg, bankRNG: make([]uint64, numBanks)}
	for b := range e.bankRNG {
		// Distinct, well-mixed stream per bank: draws stay deterministic even
		// if bank service order ever changes.
		e.bankRNG[b] = (seed + uint64(b)*0x9E3779B97F4A7C15) | 1
	}
	for i := range cfg.TSBFailures {
		f := cfg.TSBFailures[i]
		e.events = append(e.events, Event{Cycle: f.Cycle, TSB: &f})
	}
	for i := range cfg.PortFaults {
		f := cfg.PortFaults[i]
		e.events = append(e.events, Event{Cycle: f.Cycle, Port: &f})
	}
	sort.SliceStable(e.events, func(i, j int) bool { return e.events[i].Cycle < e.events[j].Cycle })
	return e, nil
}

// Config returns the campaign configuration.
func (e *Engine) Config() Config { return e.cfg }

// Stats returns a copy of the stochastic-draw counters.
func (e *Engine) Stats() Stats { return e.stats }

// ResetStats clears the stochastic-draw counters (end of warmup). The PRNG
// streams and the structural-event cursor are untouched.
func (e *Engine) ResetStats() { e.stats = Stats{} }

// HasEventsDue reports (in O(1)) whether EventsDue would return anything.
func (e *Engine) HasEventsDue(now uint64) bool {
	return e.next < len(e.events) && e.events[e.next].Cycle <= now
}

// EventsDue consumes and returns every scheduled event with Cycle <= now, in
// schedule order. Each event is returned exactly once.
func (e *Engine) EventsDue(now uint64) []Event {
	if !e.HasEventsDue(now) {
		return nil
	}
	start := e.next
	for e.next < len(e.events) && e.events[e.next].Cycle <= now {
		e.next++
	}
	return e.events[start:e.next]
}

// WriteFails draws the stochastic write-error model for one array write at
// the given bank. It implements cache.WriteFaultInjector.
func (e *Engine) WriteFails(bank int) bool {
	if e.cfg.WriteErrorRate <= 0 || bank < 0 || bank >= len(e.bankRNG) {
		return false
	}
	e.stats.WriteDraws++
	// splitmix64 step on the bank's private stream.
	e.bankRNG[bank] += 0x9E3779B97F4A7C15
	z := e.bankRNG[bank]
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if float64(z>>11)/(1<<53) < e.cfg.WriteErrorRate {
		e.stats.WriteFailures++
		return true
	}
	return false
}
