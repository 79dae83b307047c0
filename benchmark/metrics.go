package main

// metric names one reported number and its unit. The lists below are the
// benchmark's contract with BENCHMARK.json; metrics_test.go keeps the
// two in step.
type metric struct {
	name, unit string
}

// endToEnd is what a user of the system sees, reported for every
// workload from an untraced run. success_ratio is 1 - error_rate: a
// contract metric may never be zero, and error_rate must always be.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"throughput_ops_s", "ops/s"},
	{"cpu_s_per_kop", "s"},
	{"rss_mb", "MiB"},
	{"success_ratio", "ratio"},
}

// perLayer is measured from outside each layer, in a traced run. A
// metric that does not apply to the workload being run reads 0.
var perLayer = []metric{
	// Compile pipeline: median per traced op, and engine counters over
	// the measured window.
	{"sql.parse_us", "us"},
	{"plan.bind_us", "us"},
	{"ir.build_us", "us"},
	{"xopt.optimize_us", "us"},
	{"codegen.compile_us", "us"},
	{"engine.compiles_per_kop", "count"},
	{"plancache.hit_ratio", "ratio"},
	{"plancache.evictions", "count"},
	// Execution: median per traced op; single-operator probes.
	{"exec.open_us", "us"},
	{"exec.drain_us", "us"},
	{"exec.close_us", "us"},
	{"exec.scan_ns_per_row", "ns"},
	{"exec.filter_ns_per_row", "ns"},
	{"exec.join_ns_per_row", "ns"},
	{"exec.agg_ns_per_row", "ns"},
	{"exec.sort_ns_per_row", "ns"},
	{"exec.predict_tree_ns_per_row", "ns"},
	{"exec.predict_forest_ns_per_row", "ns"},
	{"exec.predict_nn_ns_per_row", "ns"},
	{"exec.dop_speedup_join", "ratio"},
	{"exec.dop_speedup_agg", "ratio"},
	{"exec.dop_speedup_predict", "ratio"},
	{"engine.alloc_bytes_per_row", "bytes"},
	// Model runtimes standalone.
	{"ml.forest_predict_ns_per_row", "ns"},
	{"ml.tree_predict_ns_per_row", "ns"},
	{"ort.session_run_ns_per_row", "ns"},
	{"ort.session_build_us", "us"},
	{"ort.session_cache_hit_ratio", "ratio"},
	// Caches and admission.
	{"rescache.hit_ratio", "ratio"},
	{"rescache.evictions", "count"},
	{"rescache.bytes", "bytes"},
	{"sched.queued_ratio", "ratio"},
	{"sched.mean_wait_us", "us"},
	{"sched.rejected", "count"},
	{"sched.admit_release_ns", "ns"},
	{"rescache.get_ns", "ns"},
	// Wire.
	{"http.request_us", "us"},
	{"http.ttfb_us", "us"},
	{"pgwire.request_us", "us"},
	{"pgwire.ttfb_us", "us"},
	{"http.overhead_us", "us"},
	{"pgwire.overhead_us", "us"},
	{"http.bytes_per_row", "bytes"},
	{"pgwire.bytes_per_row", "bytes"},
	{"router.hop_us", "us"},
	// Storage.
	{"storage.write_bytes_per_user_byte", "ratio"},
	{"storage.disk_bytes_per_user_byte", "ratio"},
	{"storage.wal_records", "count"},
	{"storage.segments", "count"},
	{"storage.checkpoints", "count"},
	{"storage.recovery_ms", "ms"},
	{"storage.lost_acked_rows", "count"},
	{"wal.append_fsync_us", "us"},
	{"segment.write_mb_s", "MB/s"},
	{"segment.read_mb_s", "MB/s"},
	// Per-shape medians of the measured window.
	{"shape.fig1_pruned.p50_ms", "ms"},
	{"shape.forest_groupby.p50_ms", "ms"},
	{"shape.lr_nn_scan.p50_ms", "ms"},
	{"shape.join_agg.p50_ms", "ms"},
	{"shape.topk_sort.p50_ms", "ms"},
	{"shape.hot_point.p50_ms", "ms"},
	{"shape.adhoc_tiny.p50_ms", "ms"},
	{"shape.cold_point.p50_ms", "ms"},
	{"shape.rowset_2k.p50_ms", "ms"},
	{"shape.insert_32.p50_ms", "ms"},
	{"shape.recent_window_agg.p50_ms", "ms"},
	{"shape.score_fresh.p50_ms", "ms"},
	// Load generator honesty.
	{"gen.build_s", "s"},
	{"gen.late_p95_us", "us"},
	{"gen.cpu_share", "ratio"},
	{"proc.vm_hwm_mb", "MiB"},
	{"trace.overhead_pct", "%"},
}
