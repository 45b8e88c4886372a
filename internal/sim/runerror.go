package sim

import (
	"errors"
	"fmt"
	"strings"

	"sttsim/internal/noc"
)

// FaultReport aggregates everything the fault-injection campaign did to the
// run: the stochastic write-error draws, the cache controllers' recovery
// activity, and the structural faults applied. Attached to Result.Fault when
// a campaign is enabled (nil otherwise, preserving byte-identical Results for
// fault-free runs).
type FaultReport struct {
	// Stochastic write-error model (fault.Engine), measurement window only.
	WriteDraws    uint64 // array writes that consulted the error model
	WriteFailures uint64 // draws that came up faulty

	// Graceful-degradation activity in the bank controllers, measurement
	// window only.
	WriteRetries     uint64 // failed writes re-pulsed after backoff
	RetriesExhausted uint64 // writes abandoned after the retry bound
	LinesInvalidated uint64 // resident lines dropped by abandoned writes
	FillsDropped     uint64 // fills abandoned after the retry bound

	// Structural faults applied over the whole run (campaign state, not
	// reset at the warmup boundary).
	TSBsFailed     uint64 // region TSB down-links killed
	RegionsRehomed uint64 // regions currently served by a foreign TSB
	PortsFailed    uint64 // router output ports killed outright
	PortsDegraded  uint64 // router output ports running at reduced duty
}

// String renders the report as a compact one-line digest.
func (f *FaultReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "writes: %d draws, %d failed, %d retried, %d exhausted (%d lines invalidated, %d fills dropped)",
		f.WriteDraws, f.WriteFailures, f.WriteRetries, f.RetriesExhausted,
		f.LinesInvalidated, f.FillsDropped)
	fmt.Fprintf(&b, "; structure: %d TSBs failed, %d regions re-homed, %d ports dead, %d degraded",
		f.TSBsFailed, f.RegionsRehomed, f.PortsFailed, f.PortsDegraded)
	return b.String()
}

// RunError is the structured failure Run returns when the simulated system
// stops making progress or corrupts its own state: a NoC deadlock caught by
// the watchdog, a periodic invariant-audit violation, an inapplicable fault
// event, or a router-protocol panic. It carries enough context to debug the
// failure without re-running: the cycle, the in-flight packet population, and
// the invariant auditor's verdict at the moment of death.
type RunError struct {
	Scheme    Scheme
	Benchmark string
	// Cycle is the simulation cycle the failure was detected at.
	Cycle uint64
	// Err is the underlying failure (e.g. a *noc.DeadlockError).
	Err error
	// Packets dumps every in-flight packet at the failure point — for a
	// deadlock, the stalled population the watchdog saw.
	Packets []noc.PacketDump
	// Invariant is the noc.CheckInvariants report taken at the failure point
	// (nil when the network state was still self-consistent).
	Invariant error
}

// Error summarizes the failure; the full packet dump is available via the
// Packets field (and rendered by cmd/nocsim).
func (e *RunError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim: %s/%s failed at cycle %d: %v",
		e.Scheme, e.Benchmark, e.Cycle, e.Err)
	if e.Invariant != nil {
		fmt.Fprintf(&b, " (invariant audit: %v)", e.Invariant)
	}
	fmt.Fprintf(&b, "; %d packets in flight", len(e.Packets))
	return b.String()
}

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *RunError) Unwrap() error { return e.Err }

// failure wraps a structural error in a *RunError with full context.
func (s *Simulator) failure(err error) *RunError {
	re := &RunError{
		Scheme:    s.cfg.Scheme,
		Benchmark: s.cfg.Assignment.Name,
		Cycle:     s.now,
		Err:       err,
	}
	var dl *noc.DeadlockError
	if errors.As(err, &dl) {
		// The watchdog already captured the stalled population.
		re.Packets = dl.Stalled
	} else {
		re.Packets = s.net.DumpInFlight()
	}
	re.Invariant = s.net.CheckInvariants()
	return re
}
