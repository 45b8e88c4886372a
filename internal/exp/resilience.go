package exp

import (
	"fmt"
	"io"

	"sttsim/internal/campaign"
	"sttsim/internal/fault"
	"sttsim/internal/sim"
	"sttsim/internal/workload"
)

// Resilience study: how gracefully does each of the six designs degrade under
// the two hardware failure modes a stacked 3D STT-RAM cache faces — stochastic
// MTJ write failures (retried with backoff, line-invalidated on exhaustion)
// and structural TSB/vertical-bus deaths (regions re-homed onto surviving
// TSBs)? The sweep varies the raw write error rate with an intact stack, and
// separately kills 1..3 of 4 region TSBs with a perfect error rate, reporting
// performance normalized to each scheme's fault-free run.

// resilienceRegions keeps every scheme on the same 4-region geometry so a
// "kill TSB k" campaign is comparable across schemes (and 1..3 of 4 TSBs can
// die while the system stays serviceable).
const resilienceRegions = 4

// resilienceKillCycle fires structural faults immediately so the measurement
// window sees the steady-state degraded system, not the transient.
const resilienceKillCycle = 1

// ResilienceEntry is one design point of the resilience sweep.
type ResilienceEntry struct {
	Scheme sim.Scheme
	// Rate is the raw write error rate (0 for the structural sub-sweep).
	Rate float64
	// TSBKills is how many of the 4 region TSBs are killed at cycle 1.
	TSBKills int

	IT     float64 // instruction throughput
	MinIPC float64
	// Normalized is the scheme's PerfMetric relative to its own fault-free
	// run (1.0 = no degradation).
	Normalized float64
	// Fault is the run's degradation report (nil for the fault-free point).
	Fault *sim.FaultReport

	// Failed records a run that died instead of completing — a resilience
	// failure, reported rather than fatal. Cause is the campaign failure
	// token (panic/deadlock/timeout/...), Err the full message.
	Failed bool
	Cause  string
	Err    string

	// perf caches the run's PerfMetric for normalization.
	perf float64
}

// resilienceRates is the write-error-rate sub-sweep (raw MTJ write error
// rates from "good margin" to "pathological").
var resilienceRates = []float64{1e-4, 1e-3, 1e-2}

// Resilience sweeps write-error rate and TSB-failure count for every scheme
// on one benchmark. With Options.Quick the sweep keeps one rate and one kill
// count per scheme.
func Resilience(r *Runner, prof workload.Profile) []ResilienceEntry {
	rates := resilienceRates
	kills := []int{1, 2, 3}
	if r.opts.Quick {
		rates = []float64{1e-3}
		kills = []int{2}
	}
	for _, scheme := range sim.AllSchemes() {
		r.Prefetch(resilienceConfig(scheme, prof, 0, 0))
		for _, rate := range rates {
			r.Prefetch(resilienceConfig(scheme, prof, rate, 0))
		}
		for _, k := range kills {
			r.Prefetch(resilienceConfig(scheme, prof, 0, k))
		}
	}
	var out []ResilienceEntry
	for _, scheme := range sim.AllSchemes() {
		base, entry := runResilience(r, scheme, prof, 0, 0)
		if !entry.Failed {
			entry.Normalized = 1
		}
		out = append(out, entry)
		for _, rate := range rates {
			_, e := runResilience(r, scheme, prof, rate, 0)
			e.normalizeTo(prof, base)
			out = append(out, e)
		}
		for _, k := range kills {
			_, e := runResilience(r, scheme, prof, 0, k)
			e.normalizeTo(prof, base)
			out = append(out, e)
		}
	}
	return out
}

// normalizeTo fills the entry's Normalized field against the fault-free run.
func (e *ResilienceEntry) normalizeTo(prof workload.Profile, base *sim.Result) {
	if e.Failed || base == nil {
		return
	}
	if b := PerfMetric(prof, base); b > 0 {
		e.Normalized = e.perf / b
	}
}

// resilienceConfig builds one design point's run configuration.
func resilienceConfig(scheme sim.Scheme, prof workload.Profile, rate float64, tsbKills int) sim.Config {
	cfg := sim.Config{
		Scheme:     scheme,
		Assignment: workload.Homogeneous(prof),
		Regions:    resilienceRegions,
	}
	if rate > 0 || tsbKills > 0 {
		fc := &fault.Config{WriteErrorRate: rate}
		for k := 0; k < tsbKills; k++ {
			fc.TSBFailures = append(fc.TSBFailures,
				fault.TSBFailure{Cycle: resilienceKillCycle, Region: k})
		}
		cfg.Fault = fc
	}
	return cfg
}

// runResilience executes one design point. Every engine failure — RunError,
// timeout, cancellation — becomes a Failed entry: a resilience study reports
// how designs die, it doesn't die with them.
func runResilience(r *Runner, scheme sim.Scheme, prof workload.Profile, rate float64, tsbKills int) (*sim.Result, ResilienceEntry) {
	entry := ResilienceEntry{Scheme: scheme, Rate: rate, TSBKills: tsbKills}
	res, err := r.Run(resilienceConfig(scheme, prof, rate, tsbKills))
	if err != nil {
		entry.Failed = true
		entry.Cause = campaign.Cause(err)
		entry.Err = err.Error()
		return nil, entry
	}
	entry.IT = res.InstructionThroughput
	entry.MinIPC = res.MinIPC
	entry.Fault = res.Fault
	entry.perf = PerfMetric(prof, res)
	return res, entry
}

// PrintResilience renders the sweep grouped by scheme.
func PrintResilience(w io.Writer, entries []ResilienceEntry) {
	t := &table{header: []string{
		"scheme", "rate", "tsb-kills", "IT", "minIPC", "norm", "retries", "exhausted", "rehomed", "status",
	}}
	for _, e := range entries {
		if e.Failed {
			cell := "FAILED(" + e.Cause + ")"
			t.add(e.Scheme.String(), fmt.Sprintf("%g", e.Rate), fmt.Sprintf("%d", e.TSBKills),
				cell, cell, cell, "-", "-", "-", "FAILED: "+e.Err)
			continue
		}
		retries, exhausted, rehomed := "-", "-", "-"
		if e.Fault != nil {
			retries = fmt.Sprintf("%d", e.Fault.WriteRetries)
			exhausted = fmt.Sprintf("%d", e.Fault.RetriesExhausted)
			rehomed = fmt.Sprintf("%d", e.Fault.RegionsRehomed)
		}
		norm := f3(e.Normalized)
		if e.Normalized == 0 {
			norm = "-" // baseline failed; nothing to normalize against
		}
		t.add(e.Scheme.String(), fmt.Sprintf("%g", e.Rate), fmt.Sprintf("%d", e.TSBKills),
			f2(e.IT), f3(e.MinIPC), norm, retries, exhausted, rehomed, "ok")
	}
	t.write(w)
}
