package obs

// Canonical metric names, so the packages instrumenting them and the tests
// asserting on /metrics output agree on spelling. Label sets are noted per
// metric.
const (
	// Engine (label: fragment).
	MEngineTuplesProduced = "engine_tuples_produced_total"
	MEngineBatchSize      = "engine_batch_size"
	// Morsel-driven parallel drivers: currently live worker goroutines and
	// per-morsel (fill+send) latency in paper milliseconds.
	MEngineParallelWorkers = "engine_parallel_workers"
	MEngineMorselMs        = "engine_morsel_ms"
	// R1 replay tuples a HashAggregate could not absorb because it had
	// already frozen its output or closed: lost rows (DESIGN.md §8).
	MAggReplayDropped = "agg_replay_dropped_tuples_total"

	// Exchanges (label: exchange).
	MExchangeTuplesRouted   = "exchange_tuples_routed_total"
	MExchangeBuffersSent    = "exchange_buffers_sent_total"
	MExchangeTuplesConsumed = "exchange_tuples_consumed_total"

	// Bus (no labels; per-topic detail stays in bus.Stats).
	MBusPublished  = "bus_published_total"
	MBusDelivered  = "bus_delivered_total"
	MBusDropped    = "bus_dropped_total"
	MBusQueueDepth = "bus_queue_depth"

	// Monitoring components.
	MMEDRawEvents        = "med_raw_events_total"
	MMEDNotifications    = "med_notifications_total"
	MDiagNotificationsIn = "diagnoser_notifications_in_total"
	MDiagProposals       = "diagnoser_proposals_total"
	// Responder outcomes (label: outcome = adapted|skipped-late|redundant|failed).
	MAdaptations        = "adaptations_total"
	MTuplesMoved        = "adaptation_tuples_moved_total"
	MStateReplays       = "adaptation_state_replays_total"
	MProgressFallbacks  = "adaptation_progress_fallbacks_total"
	MAdaptationDuration = "adaptation_duration_ms"

	// Control-plane RPC.
	MRPCLatency = "rpc_latency_ms"
	MRPCErrors  = "rpc_errors_total"

	// Transport (label: kind = local|remote for tcp; none for inproc).
	MTransportMessages = "transport_messages_total"
	// Frames whose routing header parsed but whose message did not: dropped,
	// connection kept.
	MTransportCorruptFrames = "transport_corrupt_frames_total"

	// Query lifecycle (label: outcome = ok|error).
	MQueries      = "queries_total"
	MSessionsOpen = "sessions_open"

	// Serving front: plan cache.
	MPlanCacheHits      = "plan_cache_hits_total"
	MPlanCacheMisses    = "plan_cache_misses_total"
	MPlanCacheEvictions = "plan_cache_evictions_total"
	MPlanCacheSize      = "plan_cache_size"

	// Serving front: admission control. The queue-time histogram is in
	// real (wall-clock) milliseconds — queueing happens before any
	// simulated execution starts.
	MAdmissionQueued   = "admission_queued_total"
	MAdmissionRejected = "admission_rejected_total"
	MAdmissionWaiting  = "admission_waiting"
	MAdmissionQueueMs  = "admission_queue_ms"

	// Stored-table scans: blocks decoded by the batched scan path.
	MScanBlocksRead = "scan_blocks_read_total"

	// Memory governance: per-query budget accounting and grace-hash /
	// external-sort spilling (no labels; spill detail is on the timeline).
	MMemInflight     = "mem_inflight_bytes"
	MMemOverrelease  = "mem_overrelease_total"
	MMemUngoverned   = "mem_ungoverned_total"
	MSpillBytes      = "spill_bytes_total"
	MSpillPartitions = "spill_partitions_total"
	MSpillRestarts   = "spill_restarts_total"

	// Elastic cluster: evaluator liveness and recovery. Failovers are
	// labelled by outcome (recovered|failed); the duration histogram covers
	// detection-to-resume in paper milliseconds.
	MEvaluatorsLive   = "evaluators_live"
	MFailovers        = "failovers_total"
	MNodesJoined      = "nodes_joined_total"
	MRecoveryDuration = "recovery_duration_ms"
)
