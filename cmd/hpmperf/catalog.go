package main

// metricDef is one metric of the benchmark's contract: BENCHMARK.json
// lists exactly these, and TestCatalogMatchesContract keeps the two in
// step.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics a client or operator of hpmserve sees. Every
// workload reports every one of them, measured with hpmperf's tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"energy_per_req_j", "J", "lower", 0.02},
	{"response_mean_s", "s", "lower", 0.15},
	{"wire_bytes_per_bin", "B", "lower", 0.002},
	{"rss_peak_mb", "MB", "lower", 0.2},
	{"alloc_bytes_per_bin", "B", "lower", 0.2},
}

// perLayer are the single-layer metrics of the traced run, named after
// the repo's modules; they carry no bound. "e2e" ones are read from the
// daemon run from outside, the rest from the in-process traced pass.
var perLayer = []metricDef{
	// hpmserve, from outside.
	{"hpmserve.bins_per_s", "1/s", "higher", 0},
	{"hpmserve.req_p50_ms", "ms", "lower", 0},
	{"hpmserve.req_tail_ms", "ms", "lower", 0},
	{"hpmserve.metrics_scrape_ms", "ms", "lower", 0},
	{"hpmserve.ready_s", "s", "lower", 0},
	{"hpmserve.restore_ready_s", "s", "lower", 0},
	{"hpmserve.shutdown_flush_s", "s", "lower", 0},
	{"hpmserve.http_overhead_us", "us", "lower", 0},
	{"hpmserve.http_noop_us", "us", "lower", 0},
	{"hpmserve.ledger_residual_pct", "%", "lower", 0},
	{"hpmserve.req_bytes_per_bin", "B", "lower", 0},
	{"hpmserve.resp_bytes_per_bin", "B", "lower", 0},
	{"hpmserve.json_decode_proxy_us", "us", "lower", 0},
	{"hpmserve.json_encode_proxy_us", "us", "lower", 0},
	{"hpmserve.cpu_us_per_bin", "us", "lower", 0},
	{"hpmserve.create_tenant_ms", "ms", "lower", 0},
	{"hpmserve.queue_rejects", "count", "lower", 0},
	{"hpmserve.metrics_bytes", "B", "lower", 0},
	{"hpmserve.metrics_series", "count", "lower", 0},
	{"hpmserve.open_loop_late_us", "us", "lower", 0},
	// fleet.
	{"fleet.observe_us", "us", "lower", 0},
	{"fleet.shard_hop_us", "us", "lower", 0},
	{"fleet.observe_batch_us_per_bin", "us", "lower", 0},
	{"fleet.batch_self_us_per_entry", "us", "lower", 0},
	{"fleet.create_tenant_ms", "ms", "lower", 0},
	{"fleet.snapshot_ms", "ms", "lower", 0},
	{"fleet.snapshot_bytes", "B", "lower", 0},
	{"fleet.restore_ms", "ms", "lower", 0},
	{"fleet.restore_us_per_history_bin", "us", "lower", 0},
	{"fleet.journal_open_ms", "ms", "lower", 0},
	{"fleet.journal_append_ms", "ms", "lower", 0},
	{"fleet.journal_append_bytes", "B", "lower", 0},
	{"fleet.journal_compact_ms", "ms", "lower", 0},
	{"fleet.persist_bytes", "B", "lower", 0},
	// core and the engine under it.
	{"core.observe_bin_us", "us", "lower", 0},
	{"core.observe_bin_traced_us", "us", "lower", 0},
	{"core.allocs_per_bin", "count", "lower", 0},
	{"core.bytes_per_bin", "B", "lower", 0},
	{"core.new_manager_ms", "ms", "lower", 0},
	{"engine.mechanics_us_per_bin", "us", "lower", 0},
	{"engine.qos_violation_frac", "1", "lower", 0},
	// controllers.
	{"controller.tick_decide_us_per_bin", "us", "lower", 0},
	{"controller.l0_us_per_bin", "us", "lower", 0},
	{"controller.l1_us_per_bin", "us", "lower", 0},
	{"controller.l2_us_per_bin", "us", "lower", 0},
	{"controller.l0_decides_per_bin", "count", "lower", 0},
	{"controller.l1_decides_per_bin", "count", "lower", 0},
	{"controller.l2_decides_per_bin", "count", "lower", 0},
	{"llc.explored_per_bin_l0", "count", "lower", 0},
	{"llc.explored_per_bin_l1", "count", "lower", 0},
	{"llc.explored_per_bin_l2", "count", "lower", 0},
	{"llc.ns_per_explored", "ns", "lower", 0},
	// Leaves.
	{"approx.gmap_probe_ns", "ns", "lower", 0},
	{"forecast.kalman_observe_ns", "ns", "lower", 0},
	{"workload.feed_push_ns_per_req", "ns", "lower", 0},
	{"cluster.dispatch_ns_per_req", "ns", "lower", 0},
	{"cluster.advance_ns_per_req", "ns", "lower", 0},
	{"metrics.write_text_ms_per_kseries", "ms", "lower", 0},
	{"obs.record_ns", "ns", "lower", 0},
	{"obs.recorder_overhead_pct", "%", "lower", 0},
}

// exactEndToEnd and exactPerLayer are the metrics that are pure functions
// of (workload, seed, seconds): two runs must agree on them bit for bit.
var exactEndToEnd = []string{"energy_per_req_j", "response_mean_s", "wire_bytes_per_bin"}

var exactPerLayer = []string{
	"fleet.persist_bytes",
	"engine.qos_violation_frac",
	"llc.explored_per_bin_l0",
	"llc.explored_per_bin_l1",
	"llc.explored_per_bin_l2",
	"controller.l0_decides_per_bin",
	"controller.l1_decides_per_bin",
	"controller.l2_decides_per_bin",
	"hpmserve.req_bytes_per_bin",
	"hpmserve.resp_bytes_per_bin",
}
