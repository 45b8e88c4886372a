package main

// endToEnd lists every end-to-end metric with its unit; each untraced run
// reports all of them (see README.md for what each means per workload).
var endToEnd = map[string]string{
	"setup_s":               "s",
	"run_s":                 "s",
	"sim_cycles_per_s":      "1/s",
	"run_alloc_mb":          "MB",
	"sim_heap_mb":           "MB",
	"ipc_total":             "instr/cycle",
	"uncore_latency_cycles": "cycles",
	"e2e_p50_s":             "s",
	"e2e_p95_s":             "s",
}

// perLayer lists every per-layer metric with its unit; each traced run
// reports all of them, with 0 for a layer the workload does not call.
var perLayer = map[string]string{
	"sim.step_us_p50":           "us",
	"sim.step_us_p99":           "us",
	"workload.next_ns":          "ns",
	"workload.next_calls":       "count",
	"cpu.committed":             "count",
	"cpu.stall_rob":             "count",
	"cpu.stall_mshr":            "count",
	"noc.step_us":               "us",
	"noc.flits_delivered":       "count",
	"noc.buffer_writes":         "count",
	"noc.tsb_flits":             "count",
	"noc.transit_cycles":        "cycles",
	"core.priority_ns":          "ns",
	"core.priority_calls":       "count",
	"core.delay_decisions":      "count",
	"mem.tick_ns":               "ns",
	"mem.bank_reads":            "count",
	"mem.bank_writes":           "count",
	"mem.bank_busy_frac":        "ratio",
	"cache.read_miss_ratio":     "ratio",
	"cache.bank_queue_cycles":   "cycles",
	"campaign.queue_wait_ms":    "ms",
	"campaign.run_ms":           "ms",
	"campaign.executed":         "count",
	"campaign.journal_write_ms": "ms",
	"campaign.fsync_ms":         "ms",
	"service.submit_miss_ms":    "ms",
	"service.submit_hit_ms":     "ms",
	"service.submit_invalid_ms": "ms",
	"service.submit_p99_ms":     "ms",
	"service.hit_p99_ms":        "ms",
	"service.cache_hit_ratio":   "ratio",
	"service.deduped":           "count",
	"sttsim.wait_polls":         "count",
	"serve.late_p99_ms":         "ms",
	"serve.sent":                "count",
	"serve.succeeded":           "count",
	"serve.failed":              "count",
	"trace.overhead_frac":       "ratio",
	"trace.base_run_s":          "s",
}

// complete fills every metric of the run's set that the workload did not
// measure with 0 (no samples), so each run reports the whole set, and
// reports any measured metric that is not in the set.
func (o *outcome) complete(trace bool) {
	want := endToEnd
	if trace {
		want = perLayer
	}
	for name, unit := range want {
		if _, ok := o.metrics[name]; !ok {
			o.set(name, unit, 0, 0)
		}
	}
	for name := range o.metrics {
		if _, ok := want[name]; !ok {
			o.breakRun("metric %s is not in the reported set", name)
		}
	}
}
