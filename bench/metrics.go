package main

// metricDef is one named metric. BENCHMARK.json carries the same names,
// units and directions; bench_test.go checks the two agree.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression (0 for
	// per-layer metrics, which have none).
	Bound float64
}

// endToEnd lists the metrics of the untraced pass. Every workload reports
// every one of them: an operation is one query, except on adapt_perturbed
// where it is Q1 twice (under R2, then R1) on the perturbed adaptive Grid.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"input_tuples_per_s", "1/s", "higher", 0.25},
	{"latency_ms_p50", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"alloc_mb_per_op", "MB", "lower", 0.06},
	{"allocs_per_op", "count", "lower", 0.03},
}

// perLayer lists the metrics of the traced pass, named module.metric after
// the packages under internal/. A layer a workload does not exercise
// reports 0 there.
var perLayer = []metricDef{
	{"sqlparse.normalize_us", "us", "lower", 0},
	{"logical.plan_us", "us", "lower", 0},
	{"physical.schedule_us", "us", "lower", 0},
	{"physical.bind_us", "us", "lower", 0},
	{"plancache.hit_rate", "ratio", "higher", 0},
	{"plancache.get_ns", "ns", "lower", 0},
	{"plancache.evictions_per_query", "count", "lower", 0},
	{"services.session_us", "us", "lower", 0},
	{"services.frontend_share", "ratio", "lower", 0},
	{"services.admission_queue_ms_sum", "ms", "lower", 0},
	{"dataset.generate_s", "s", "lower", 0},
	{"storage.block_read_mb_per_s", "MB/s", "higher", 0},
	{"storage.blocks_per_query", "count", "lower", 0},
	{"storage.run_write_mb_per_s", "MB/s", "higher", 0},
	{"storage.budget_reserve_ns", "ns", "lower", 0},
	{"storage.spill_bytes_per_query", "bytes", "lower", 0},
	{"storage.spill_partitions_per_query", "count", "lower", 0},
	{"storage.spill_restarts_per_query", "count", "lower", 0},
	{"relation.decode_ns_per_tuple", "ns", "lower", 0},
	{"relation.encode_ns_per_tuple", "ns", "lower", 0},
	{"engine.scan_ns_per_tuple", "ns", "lower", 0},
	{"engine.join_ns_per_tuple", "ns", "lower", 0},
	{"engine.join_spill_ns_per_tuple", "ns", "lower", 0},
	{"engine.agg_ns_per_tuple", "ns", "lower", 0},
	{"engine.sort_ns_per_tuple", "ns", "lower", 0},
	{"engine.exchange_ns_per_tuple", "ns", "lower", 0},
	{"engine.exchange_tuples_routed_per_query", "count", "lower", 0},
	{"engine.exchange_buffers_per_query", "count", "lower", 0},
	{"transport.wire_marshal_ns_per_tuple", "ns", "lower", 0},
	{"transport.wire_unmarshal_ns_per_tuple", "ns", "lower", 0},
	{"transport.tcp_send_us", "us", "lower", 0},
	{"transport.messages_per_query", "count", "lower", 0},
	{"transport.rpc_latency_ms_mean", "ms", "lower", 0},
	{"bus.publish_deliver_ns", "ns", "lower", 0},
	{"bus.published_per_query", "count", "lower", 0},
	{"bus.dropped_per_query", "count", "lower", 0},
	{"core.med_observe_ns", "ns", "lower", 0},
	{"core.raw_events_per_query", "count", "lower", 0},
	{"core.med_notifications_per_query", "count", "lower", 0},
	{"core.proposals_per_query", "count", "lower", 0},
	{"core.adaptations_per_query", "count", "higher", 0},
	{"core.tuples_moved_per_query", "count", "lower", 0},
	{"core.state_replays_per_query", "count", "lower", 0},
	{"core.adaptation_ms_mean", "ms", "lower", 0},
	{"core.first_adapt_at_share", "ratio", "lower", 0},
	{"core.slow_node_tuple_share", "ratio", "lower", 0},
	{"core.adapt_norm_q1", "ratio", "lower", 0},
	{"core.adapt_norm_q2", "ratio", "lower", 0},
	{"core.adapt_overhead_q1", "ratio", "lower", 0},
	{"core.adapt_overhead_q2", "ratio", "lower", 0},
	{"core.static_perturbed_norm_q1", "ratio", "lower", 0},
	{"core.static_perturbed_norm_q2", "ratio", "lower", 0},
	{"core.q2_hung_runs", "count", "lower", 0},
	{"vtime.sleep_overshoot_us", "us", "lower", 0},
	{"runtime.gc_pause_ms_per_query", "ms", "lower", 0},
	{"bench.trace_overhead_share", "ratio", "lower", 0},
	{"bench.unattributed_share", "ratio", "lower", 0},
}

// value is one measured metric with the number of samples behind it.
type value struct {
	V float64
	N int
}

// metrics maps metric names to measured values.
type metrics map[string]value
