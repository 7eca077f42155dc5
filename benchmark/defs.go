package main

// metricDef names one metric the driver emits. BENCHMARK.json lists the
// same names, units and directions; bench_test.go keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string
}

// runSeconds is BENCHMARK.json's run_seconds: the nominal measured time the
// full-size workloads are sized for. -seconds scales the repeat counts of
// the repeating workloads in proportion.
const runSeconds = 30

// workloadNames is the fixed workload list, in the order they run.
var workloadNames = []string{"fabric100k", "fabric10k.w2", "sweep.cold", "sweep.warm"}

// endToEnd is what a user of the system sees, measured with tracing off.
// Every workload reports every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"work_per_sec", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"cpu_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"live_heap_mb", "MB", "lower"},
}

// perLayer is what the traced pass reports, one group per module. A metric
// a workload does not exercise reads 0 there.
var perLayer = []metricDef{
	{"sim.run_s", "s", "lower"},
	{"sim.events", "count", "lower"},
	{"sim.windows", "count", "lower"},
	{"sim.domains", "count", "lower"},
	{"sim.events_per_window", "count", "higher"},
	{"sim.shard_speedup", "ratio", "higher"},
	{"sim.schedule_ns_op", "ns", "lower"},
	{"sim.nested_after_ns_op", "ns", "lower"},
	{"sim.handoff_ns_op", "ns", "lower"},
	{"sim.empty_window_us", "us", "lower"},
	{"topology.build_s", "s", "lower"},
	{"topology.build_bytes_per_host", "B/host", "lower"},
	{"workload.gen_s", "s", "lower"},
	{"transport.launch_s", "s", "lower"},
	{"transport.bulk_ns_pkt", "ns", "lower"},
	{"transport.incast_us_op", "us", "lower"},
	{"transport.retransmits", "count", "lower"},
	{"transport.timeouts", "count", "lower"},
	{"queue.egress_ns_op", "ns", "lower"},
	{"queue.marks", "count", "lower"},
	{"queue.drops", "count", "lower"},
	{"aqm.ecnsharp_ns_op", "ns", "lower"},
	{"packet.pool_ns_op", "ns", "lower"},
	{"metrics.collect_s", "s", "lower"},
	{"metrics.pool_us_sweep", "us", "lower"},
	{"experiments.cell_run_s_p50", "s", "lower"},
	{"experiments.cell_run_s_max", "s", "lower"},
	{"experiments.encode_us_cell", "us", "lower"},
	{"experiments.decode_us_cell", "us", "lower"},
	{"experiments.result_bytes_cell", "B", "lower"},
	{"harness.execute_s", "s", "lower"},
	{"harness.utilisation", "ratio", "higher"},
	{"harness.straggler_s", "s", "lower"},
	{"cache.open_ms", "ms", "lower"},
	{"cache.get_us_op", "us", "lower"},
	{"cache.put_us_op", "us", "lower"},
	{"cache.hits", "count", "higher"},
	{"cache.misses", "count", "lower"},
	{"cache.puts", "count", "lower"},
	{"cache.shared", "count", "lower"},
	{"cache.bytes", "B", "lower"},
	{"service.submit_ms", "ms", "lower"},
	{"service.stream_ms", "ms", "lower"},
	{"service.results_ms", "ms", "lower"},
	{"service.results_bytes", "B", "lower"},
	{"service.roundtrip_p99_ms", "ms", "lower"},
	{"service.retained_mb_per_sweep", "MB", "lower"},
	{"runtime.alloc_bytes_per_event", "B", "lower"},
	{"runtime.alloc_mb", "MB", "lower"},
	{"runtime.num_gc", "count", "lower"},
	{"runtime.gc_cpu_frac", "ratio", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"bench.trace_overhead_frac", "ratio", "lower"},
}
