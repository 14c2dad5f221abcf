package main

// metricDef is one metric the benchmark prints. End-to-end metrics carry a
// bound: the share of the parent's median by which the metric may worsen
// before a change counts as a regression. BENCHMARK.json lists the same
// definitions (TestBenchmarkJSONMatchesDefinitions).
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"items_per_cpu_s", "1/cpu-s", "higher", 0.25},
	{"item_ms_p50", "ms", "lower", 0.25},
	{"item_ms_p90", "ms", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.10},
	{"tsoper_norm_exec", "ratio", "lower", 0.05},
	{"tsoper_nvm_writes", "lines", "lower", 0.05},
	{"tardis_norm_drain", "ratio", "lower", 0.05},
}

var perLayer = []metricDef{
	{name: "trace.generate_ms", unit: "ms", better: "lower"},
	{name: "trace.generate_alloc_mb", unit: "MB", better: "lower"},
	{name: "program.compile_ms", unit: "ms", better: "lower"},
	{name: "machine.new_ms", unit: "ms", better: "lower"},
	{name: "machine.new_alloc_mb", unit: "MB", better: "lower"},
	{name: "machine.new_calls", unit: "count", better: "lower"},
	{name: "machine.advance_ms", unit: "ms", better: "lower"},
	{name: "machine.advance_ms.slc", unit: "ms", better: "lower"},
	{name: "machine.advance_ms.mesi", unit: "ms", better: "lower"},
	{name: "machine.advance_ms.tardis", unit: "ms", better: "lower"},
	{name: "machine.advance_alloc_mb", unit: "MB", better: "lower"},
	{name: "machine.mcycles_per_cpu_s", unit: "Mcycles/cpu-s", better: "higher"},
	{name: "machine.results_ms", unit: "ms", better: "lower"},
	{name: "telemetry.snapshot_ms", unit: "ms", better: "lower"},
	{name: "sim.cycles.baseline", unit: "cycles", better: "lower"},
	{name: "sim.cycles.hw-rp", unit: "cycles", better: "lower"},
	{name: "sim.cycles.bsp", unit: "cycles", better: "lower"},
	{name: "sim.cycles.bsp-slc", unit: "cycles", better: "lower"},
	{name: "sim.cycles.bsp-slc-agb", unit: "cycles", better: "lower"},
	{name: "sim.cycles.stw", unit: "cycles", better: "lower"},
	{name: "sim.cycles.tsoper", unit: "cycles", better: "lower"},
	{name: "sim.cycles.tsoper-mesi", unit: "cycles", better: "lower"},
	{name: "sim.cycles.tsoper-tardis", unit: "cycles", better: "lower"},
	{name: "sim.drain_tail_cycles.tsoper", unit: "cycles", better: "lower"},
	{name: "core.ag_count", unit: "count", better: "lower"},
	{name: "core.ag_mean_lines", unit: "lines", better: "higher"},
	{name: "agb.reservation_stalls", unit: "count", better: "lower"},
	{name: "agb.occupancy_mean", unit: "lines", better: "lower"},
	{name: "cache.evict_buf_stalls", unit: "count", better: "lower"},
	{name: "nvm.writes", unit: "lines", better: "lower"},
	{name: "nvm.reads", unit: "lines", better: "lower"},
	{name: "nvm.busy_cycles", unit: "cycles", better: "lower"},
	{name: "noc.messages", unit: "count", better: "lower"},
	{name: "noc.hops", unit: "count", better: "lower"},
	{name: "noc.busy_cycles", unit: "cycles", better: "lower"},
	{name: "slc.persist_list_len_mean", unit: "nodes", better: "lower"},
	{name: "slc.invalidation_walk_mean", unit: "nodes", better: "lower"},
	{name: "traffic.coherence_writes", unit: "lines", better: "lower"},
	{name: "traffic.persist_writes", unit: "lines", better: "lower"},
	{name: "tardis.renewals", unit: "count", better: "lower"},
	{name: "tardis.lease_hits", unit: "count", better: "higher"},
	{name: "tardis.ts_jumps", unit: "count", better: "lower"},
	{name: "litmus.model_ms", unit: "ms", better: "lower"},
	{name: "litmus.explore_ms", unit: "ms", better: "lower"},
	{name: "litmus.explore_ms.slc", unit: "ms", better: "lower"},
	{name: "litmus.explore_ms.mesi", unit: "ms", better: "lower"},
	{name: "litmus.explore_ms.tardis", unit: "ms", better: "lower"},
	{name: "litmus.points", unit: "count", better: "higher"},
	{name: "litmus.alloc_mb", unit: "MB", better: "lower"},
	{name: "crashmc.run_ms", unit: "ms", better: "lower"},
	{name: "crashmc.injections", unit: "count", better: "higher"},
	{name: "crashmc.partial_states", unit: "count", better: "higher"},
	{name: "crashmc.mutate_ms", unit: "ms", better: "lower"},
	{name: "crashmc.harvest_ms", unit: "ms", better: "lower"},
	{name: "checker.check_ms", unit: "ms", better: "lower"},
	{name: "checker.checks", unit: "count", better: "higher"},
	{name: "machine.crash_ms", unit: "ms", better: "lower"},
	{name: "client.submit_ms", unit: "ms", better: "lower"},
	{name: "client.wait_ms", unit: "ms", better: "lower"},
	{name: "client.result_ms", unit: "ms", better: "lower"},
	{name: "service.job_ms", unit: "ms", better: "lower"},
	{name: "service.cache_hits", unit: "count", better: "higher"},
	{name: "service.cache_misses", unit: "count", better: "lower"},
	{name: "service.dedups", unit: "count", better: "higher"},
	{name: "service.evictions", unit: "count", better: "lower"},
	{name: "runtime.gc_cycles", unit: "count", better: "lower"},
	{name: "runtime.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "bench.traced_items_per_cpu_s", unit: "1/cpu-s", better: "higher"},
}

// metricDefs is the set a run prints: per-layer when traced, else
// end-to-end.
func metricDefs(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}
