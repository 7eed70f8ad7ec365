package main

// metricDef declares one reported metric. BENCHMARK.json lists the same
// names and units; the package tests hold the two in step.
type metricDef struct{ name, unit string }

// endToEnd is what an untraced run reports, on every workload. Each
// workload gives the names its own reading; NOTES.md has the table.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"train_tuples_per_s", "tuples/s"},
	{"final_acc", "fraction"},
	{"op_p50_ms", "ms"},
	{"op_p95_ms", "ms"},
	{"peak_heap_mb", "MiB"},
}

// perLayer is what a traced run reports: the layer ladder, on every
// workload.
var perLayer = []metricDef{
	{"ml.kernel_ns_per_tuple", "ns"},
	{"ml.kernel_allocs_per_tuple", "count"},
	{"ml.batch_ns_per_tuple", "ns"},
	{"ml.batch_procs2_speedup", "ratio"},
	{"ml.eval_ns_per_tuple", "ns"},
	{"shuffle.corgipile_ns_per_tuple", "ns"},
	{"shuffle.noshuffle_ns_per_tuple", "ns"},
	{"shuffle.corgipile_allocs_per_tuple", "count"},
	{"shuffle.corgi_over_noshuffle", "ratio"},
	{"storage.read_block_ns_per_tuple", "ns"},
	{"storage.read_block_allocs_per_tuple", "count"},
	{"storage.decode_all_ms", "ms"},
	{"storage.append_us_per_tuple", "us"},
	{"storage.tuples_per_block", "count"},
	{"iosim.train_sim_s", "sim_s"},
	{"iosim.bytes_read_per_epoch", "bytes"},
	{"iosim.seeks_per_epoch", "count"},
	{"iosim.cache_hit_ratio", "fraction"},
	{"executor.plan_ns_per_tuple", "ns"},
	{"executor.self_ns_per_tuple", "ns"},
	{"core.run_ns_per_tuple", "ns"},
	{"core.self_ns_per_tuple", "ns"},
	{"sqlparse.parse_train_us", "us"},
	{"sqlparse.parse_insert_us", "us"},
	{"sqlparse.parse_predict_us", "us"},
	{"db.train_ns_per_tuple", "ns"},
	{"db.self_ns_per_tuple", "ns"},
	{"db.insert_ms", "ms"},
	{"db.wal_bytes_per_user_byte", "ratio"},
	{"db.wal_syncs_per_insert", "count"},
	{"serve.rtt_us", "us"},
	{"serve.predict_warm_ms", "ms"},
	{"serve.predict_after_insert_ms", "ms"},
	{"serve.predict_p99_ms", "ms"},
	{"serve.insert_p50_ms", "ms"},
	{"serve.insert_p99_ms", "ms"},
	{"serve.train_job_s", "s"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.job_wall_ms", "ms"},
	{"serve.job_cpu_ms", "ms"},
	{"serve.reject_ratio", "fraction"},
	{"obs.metrics_overhead_ratio", "ratio"},
	{"obs.events_overhead_ratio", "ratio"},
	{"obs.history_overhead_ratio", "ratio"},
	{"bench.gen_late_p99_ms", "ms"},
	{"bench.trace_overhead_ratio", "ratio"},
}

var units = func() map[string]string {
	m := make(map[string]string)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		m[d.name] = d.unit
	}
	return m
}()

// unitOf returns a declared metric's unit. An undeclared name panics: it is
// a bug in the benchmark, not something input can cause.
func unitOf(name string) string {
	u, ok := units[name]
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	return u
}
