// Canonical metric names for the vetting pipeline, one constant per metric so
// call sites and tests cannot drift apart. Scheme: apichecker_<layer>_<name>
// with a unit suffix (_total for counters, _minutes/_ms/_us for times).

#ifndef APICHECKER_OBS_NAMES_H_
#define APICHECKER_OBS_NAMES_H_

namespace apichecker::obs::names {

// emu layer — device farm and dynamic-analysis engine.
inline constexpr char kEmuAppsTotal[] = "apichecker_emu_apps_total";
inline constexpr char kEmuAppMinutes[] = "apichecker_emu_app_minutes";
inline constexpr char kEmuTrackedInvocationsTotal[] =
    "apichecker_emu_tracked_invocations_total";
inline constexpr char kEmuTotalInvocationsTotal[] =
    "apichecker_emu_total_invocations_total";
inline constexpr char kEmuDetectedTotal[] = "apichecker_emu_detected_total";
inline constexpr char kEmuCrashesTotal[] = "apichecker_emu_crashes_total";
inline constexpr char kEmuRetriesTotal[] = "apichecker_emu_retries_total";
inline constexpr char kEmuFallbacksTotal[] = "apichecker_emu_fallbacks_total";
inline constexpr char kEmuFarmBatchesTotal[] = "apichecker_emu_farm_batches_total";
inline constexpr char kEmuFarmBatchMs[] = "apichecker_emu_farm_batch_ms";
inline constexpr char kEmuFarmMakespanMinutes[] =
    "apichecker_emu_farm_makespan_minutes";
inline constexpr char kEmuFarmQueueWaitMinutes[] =
    "apichecker_emu_farm_queue_wait_minutes";
inline constexpr char kEmuFarmLastMakespanMinutes[] =
    "apichecker_emu_farm_last_makespan_minutes";
inline constexpr char kEmuFarmInjectedFaultsTotal[] =
    "apichecker_emu_farm_injected_faults_total";

// core layer — APICHECKER train/classify.
inline constexpr char kCoreTrainMs[] = "apichecker_core_train_ms";
inline constexpr char kCoreClassifyLatencyUs[] = "apichecker_core_classify_latency_us";
inline constexpr char kCoreScore[] = "apichecker_core_score";
inline constexpr char kCoreVerdictMaliciousTotal[] =
    "apichecker_core_verdict_malicious_total";
inline constexpr char kCoreVerdictBenignTotal[] =
    "apichecker_core_verdict_benign_total";
inline constexpr char kCoreKeyApis[] = "apichecker_core_key_apis";
inline constexpr char kCoreFeatures[] = "apichecker_core_features";

// ml layer — random-forest training.
inline constexpr char kMlTreeTrainMs[] = "apichecker_ml_tree_train_ms";
inline constexpr char kMlForestTrainMs[] = "apichecker_ml_forest_train_ms";
inline constexpr char kMlForestTrainsTotal[] = "apichecker_ml_forest_trains_total";

// market layer — review pipeline and deployment simulation.
inline constexpr char kMarketSubmissionsTotal[] = "apichecker_market_submissions_total";
inline constexpr char kMarketOutcomePublishedTotal[] =
    "apichecker_market_outcome_published_total";
inline constexpr char kMarketOutcomeRejectedFingerprintTotal[] =
    "apichecker_market_outcome_rejected_fingerprint_total";
inline constexpr char kMarketOutcomeRejectedCheckerTotal[] =
    "apichecker_market_outcome_rejected_apichecker_total";
inline constexpr char kMarketOutcomeFalsePositiveReleasedTotal[] =
    "apichecker_market_outcome_false_positive_released_total";
inline constexpr char kMarketFnReportedTotal[] = "apichecker_market_fn_reported_total";
inline constexpr char kMarketScanMinutes[] = "apichecker_market_scan_minutes";
inline constexpr char kMarketDayMakespanMinutes[] =
    "apichecker_market_day_makespan_minutes";
inline constexpr char kMarketRetrainMs[] = "apichecker_market_retrain_ms";
inline constexpr char kMarketModelPromotionsTotal[] =
    "apichecker_market_model_promotions_total";
inline constexpr char kMarketModelRollbacksTotal[] =
    "apichecker_market_model_rollbacks_total";

// serve layer — online vetting service (admission, batching, cache, swap).
inline constexpr char kServeSubmissionsTotal[] = "apichecker_serve_submissions_total";
inline constexpr char kServeAcceptedTotal[] = "apichecker_serve_accepted_total";
inline constexpr char kServeRejectedTotal[] = "apichecker_serve_rejected_total";
inline constexpr char kServeCompletedTotal[] = "apichecker_serve_completed_total";
inline constexpr char kServeDeadlineExpiredTotal[] =
    "apichecker_serve_deadline_expired_total";
inline constexpr char kServeParseErrorsTotal[] = "apichecker_serve_parse_errors_total";
inline constexpr char kServeCacheHitsTotal[] = "apichecker_serve_cache_hits_total";
inline constexpr char kServeCacheMissesTotal[] = "apichecker_serve_cache_misses_total";
inline constexpr char kServeModelSwapsTotal[] = "apichecker_serve_model_swaps_total";
inline constexpr char kServeModelVersion[] = "apichecker_serve_model_version";
inline constexpr char kServeQueueDepth[] = "apichecker_serve_queue_depth";
inline constexpr char kServeBatchesTotal[] = "apichecker_serve_batches_total";
inline constexpr char kServeBatchSize[] = "apichecker_serve_batch_size";
inline constexpr char kServeQueueWaitMs[] = "apichecker_serve_queue_wait_ms";
inline constexpr char kServeE2eLatencyMs[] = "apichecker_serve_e2e_latency_ms";
inline constexpr char kServeHashOpsTotal[] = "apichecker_serve_hash_ops_total";
inline constexpr char kServeCacheFastpathHitsTotal[] =
    "apichecker_serve_cache_fastpath_hits_total";
// Also emitted as per-size-bucket variants with an embedded Prometheus label,
// e.g. apichecker_serve_admission_latency_ms{size="large"}
// (see serve::AdmissionSeriesName).
inline constexpr char kServeAdmissionLatencyMs[] =
    "apichecker_serve_admission_latency_ms";

// serve layer — overload control & QoS. kServeShedTotal, kServeAcceptedTotal,
// kServeCompletedTotal, kServeDeadlineExpiredTotal, and kServeE2eLatencyMs are
// additionally emitted as per-priority-class variants with an embedded label,
// e.g. apichecker_serve_shed_total{class="bulk"} (see serve::ClassSeriesName).
// kServePressureState is the watermark state machine's current level
// (0 normal, 1 pressure, 2 critical).
inline constexpr char kServeShedTotal[] = "apichecker_serve_shed_total";
inline constexpr char kServePressureState[] = "apichecker_serve_pressure_state";
inline constexpr char kServePressureTransitionsTotal[] =
    "apichecker_serve_pressure_transitions_total";

// serve layer — per-stage latency attribution for traced submissions. Each
// histogram observes one entry of a trace's contiguous breakdown, so the
// stage sums add up (within float error) to kServeTracedE2eMs's sum — the
// invariant ci.sh checks from the metrics dump.
inline constexpr char kServeStageSubmitMs[] = "apichecker_serve_stage_submit_ms";
inline constexpr char kServeStageQueueWaitMs[] =
    "apichecker_serve_stage_queue_wait_ms";
inline constexpr char kServeStageBatchLingerMs[] =
    "apichecker_serve_stage_batch_linger_ms";
inline constexpr char kServeStageFarmExecuteMs[] =
    "apichecker_serve_stage_farm_execute_ms";
inline constexpr char kServeStageClassifyMs[] =
    "apichecker_serve_stage_classify_ms";
inline constexpr char kServeStageStoreAppendMs[] =
    "apichecker_serve_stage_store_append_ms";
inline constexpr char kServeStageResolveMs[] =
    "apichecker_serve_stage_resolve_ms";
inline constexpr char kServeTracedE2eMs[] = "apichecker_serve_traced_e2e_ms";

// obs layer — the trace collector's own accounting.
inline constexpr char kObsStageSpansTotal[] = "apichecker_obs_trace_spans_total";
inline constexpr char kObsStageSpansDroppedTotal[] =
    "apichecker_obs_trace_spans_dropped_total";
inline constexpr char kObsTracesStartedTotal[] =
    "apichecker_obs_traces_started_total";
inline constexpr char kObsTracesCompletedTotal[] =
    "apichecker_obs_traces_completed_total";
inline constexpr char kObsTracesDroppedTotal[] =
    "apichecker_obs_traces_dropped_total";

// ingest layer — streaming APK intake (chunked read, incremental hash,
// ref-counted blob pool, off-thread parse stage).
inline constexpr char kIngestBlobsTotal[] = "apichecker_ingest_blobs_total";
inline constexpr char kIngestBytesStreamedTotal[] =
    "apichecker_ingest_bytes_streamed_total";
inline constexpr char kIngestChunksTotal[] = "apichecker_ingest_chunks_total";
inline constexpr char kIngestBlobPoolBytes[] = "apichecker_ingest_blob_pool_bytes";
inline constexpr char kIngestBlobPoolPeakBytes[] =
    "apichecker_ingest_blob_pool_peak_bytes";
inline constexpr char kIngestParseStageMs[] = "apichecker_ingest_parse_stage_ms";
// Spill-to-disk blobs: payloads above the spill threshold live in an mmap'd
// unlinked temp file instead of the heap, so the blob-pool gauge bounds RSS.
inline constexpr char kIngestBlobsSpilledTotal[] =
    "apichecker_ingest_blobs_spilled_total";
inline constexpr char kIngestSpilledBlobBytes[] =
    "apichecker_ingest_spilled_blob_bytes";
inline constexpr char kIngestSpillFailuresTotal[] =
    "apichecker_ingest_spill_failures_total";

// serve layer — multi-farm pool (routing, failover, circuit breakers). The
// aggregate series below also exist as per-farm variants with an embedded
// Prometheus label, e.g. apichecker_serve_farm_batches_routed_total{farm="2"}
// (see serve::FarmSeriesName).
inline constexpr char kServeFarmPoolSize[] = "apichecker_serve_farm_pool_size";
inline constexpr char kServeFarmHealthy[] = "apichecker_serve_farm_healthy";
inline constexpr char kServeFarmBatchesRoutedTotal[] =
    "apichecker_serve_farm_batches_routed_total";
inline constexpr char kServeFarmFaultsTotal[] = "apichecker_serve_farm_faults_total";
inline constexpr char kServeFarmRetriesTotal[] = "apichecker_serve_farm_retries_total";
inline constexpr char kServeFarmRejectedUnhealthyTotal[] =
    "apichecker_serve_farm_rejected_unhealthy_total";
inline constexpr char kServeFarmBreakerOpenTotal[] =
    "apichecker_serve_farm_breaker_open_total";
inline constexpr char kServeFarmBreakerReprobeTotal[] =
    "apichecker_serve_farm_breaker_reprobe_total";
inline constexpr char kServeFarmMakespanMinutes[] =
    "apichecker_serve_farm_makespan_minutes";

// fabric layer — cross-process farm fabric (framed RPC transport between the
// vetting front-end and `apichecker farm` worker processes). Counter/byte
// series exist on both sides; kFabricProtocolErrorsTotal is additionally
// emitted with a kind label, e.g.
// apichecker_fabric_protocol_errors_total{kind="crc_mismatch"}.
inline constexpr char kFabricFramesSentTotal[] = "apichecker_fabric_frames_sent_total";
inline constexpr char kFabricFramesReceivedTotal[] =
    "apichecker_fabric_frames_received_total";
inline constexpr char kFabricBytesSentTotal[] = "apichecker_fabric_bytes_sent_total";
inline constexpr char kFabricBytesReceivedTotal[] =
    "apichecker_fabric_bytes_received_total";
inline constexpr char kFabricProtocolErrorsTotal[] =
    "apichecker_fabric_protocol_errors_total";
inline constexpr char kFabricHandshakesTotal[] =
    "apichecker_fabric_handshakes_total";
inline constexpr char kFabricHandshakeFailuresTotal[] =
    "apichecker_fabric_handshake_failures_total";
inline constexpr char kFabricHeartbeatsTotal[] =
    "apichecker_fabric_heartbeats_total";
inline constexpr char kFabricHeartbeatMissesTotal[] =
    "apichecker_fabric_heartbeat_misses_total";
inline constexpr char kFabricDisconnectsTotal[] =
    "apichecker_fabric_disconnects_total";
inline constexpr char kFabricReconnectsTotal[] =
    "apichecker_fabric_reconnects_total";
inline constexpr char kFabricModelSyncsTotal[] =
    "apichecker_fabric_model_syncs_total";
inline constexpr char kFabricRpcMs[] = "apichecker_fabric_rpc_ms";
inline constexpr char kFabricWorkerConnectionsTotal[] =
    "apichecker_fabric_worker_connections_total";
inline constexpr char kFabricWorkerBatchesTotal[] =
    "apichecker_fabric_worker_batches_total";
inline constexpr char kFabricWorkerAppsTotal[] =
    "apichecker_fabric_worker_apps_total";
inline constexpr char kFabricWorkerMaliciousTotal[] =
    "apichecker_fabric_worker_malicious_total";

// store layer — persistent verdict store (WAL append, fsync, recovery,
// compaction) and its warm-start handoff into the serve digest cache.
inline constexpr char kStoreAppendsTotal[] = "apichecker_store_appends_total";
inline constexpr char kStoreAppendErrorsTotal[] =
    "apichecker_store_append_errors_total";
inline constexpr char kStoreFsyncsTotal[] = "apichecker_store_fsyncs_total";
inline constexpr char kStoreFsyncFailuresTotal[] =
    "apichecker_store_fsync_failures_total";
inline constexpr char kStoreInjectedFaultsTotal[] =
    "apichecker_store_injected_faults_total";
inline constexpr char kStoreCompactionsTotal[] =
    "apichecker_store_compactions_total";
inline constexpr char kStoreRecoveredRecordsTotal[] =
    "apichecker_store_recovered_records_total";
inline constexpr char kStoreTruncatedTailsTotal[] =
    "apichecker_store_truncated_tails_total";
inline constexpr char kStoreQuarantinedSegmentsTotal[] =
    "apichecker_store_quarantined_segments_total";
inline constexpr char kStoreWarmStartHitsTotal[] =
    "apichecker_store_warm_start_hits_total";
// Fleet verdict-segment exchange (VerdictStore::ExportSegments/ImportSegments).
inline constexpr char kStoreSegmentsExportedTotal[] =
    "apichecker_store_segments_exported_total";
inline constexpr char kStoreRecordsExportedTotal[] =
    "apichecker_store_records_exported_total";
inline constexpr char kStoreSegmentsImportedTotal[] =
    "apichecker_store_segments_imported_total";
inline constexpr char kStoreRecordsImportedTotal[] =
    "apichecker_store_records_imported_total";
inline constexpr char kStoreImportSupersededTotal[] =
    "apichecker_store_import_superseded_total";
inline constexpr char kStoreSegments[] = "apichecker_store_segments";
inline constexpr char kStoreLiveRecords[] = "apichecker_store_live_records";
inline constexpr char kStoreDeadRecords[] = "apichecker_store_dead_records";

// gateway layer — network ingest gateway (framed APK upload over the fabric
// transport). kGatewayUploadsAbortedTotal is additionally emitted with a
// reason label, e.g. apichecker_gateway_uploads_aborted_total{reason="slow_loris"}.
inline constexpr char kGatewayConnectionsTotal[] =
    "apichecker_gateway_connections_total";
inline constexpr char kGatewayUploadsAcceptedTotal[] =
    "apichecker_gateway_uploads_accepted_total";
inline constexpr char kGatewayUploadsCompletedTotal[] =
    "apichecker_gateway_uploads_completed_total";
inline constexpr char kGatewayUploadsAbortedTotal[] =
    "apichecker_gateway_uploads_aborted_total";
inline constexpr char kGatewaySlowLorisDisconnectsTotal[] =
    "apichecker_gateway_slow_loris_disconnects_total";
inline constexpr char kGatewayEarlyVerdictsTotal[] =
    "apichecker_gateway_early_verdicts_total";
inline constexpr char kGatewayResumedByDigestTotal[] =
    "apichecker_gateway_resumed_by_digest_total";
inline constexpr char kGatewayVerdictsSentTotal[] =
    "apichecker_gateway_verdicts_sent_total";
inline constexpr char kGatewayVerdictSendFailuresTotal[] =
    "apichecker_gateway_verdict_send_failures_total";
inline constexpr char kGatewayBytesReceivedTotal[] =
    "apichecker_gateway_bytes_received_total";
inline constexpr char kGatewayActiveUploads[] = "apichecker_gateway_active_uploads";
inline constexpr char kGatewayUploadStageMs[] = "apichecker_gateway_upload_stage_ms";
inline constexpr char kGatewayClientRetriesTotal[] =
    "apichecker_gateway_client_retries_total";
inline constexpr char kGatewayNetInjectedFaultsTotal[] =
    "apichecker_gateway_net_injected_faults_total";

// rt layer — the unified async runtime (executor + timer wheel + poller).
// Every former per-subsystem thread (scheduler loop, farm dispatchers,
// fabric monitors, gateway upload connections, periodic reporter) is now a
// task on this runtime, so these series describe the whole serving spine.
inline constexpr char kRtTasksTotal[] = "apichecker_rt_tasks_total";
inline constexpr char kRtStealsTotal[] = "apichecker_rt_steals_total";
inline constexpr char kRtQueueDepth[] = "apichecker_rt_queue_depth";
inline constexpr char kRtTimersScheduledTotal[] =
    "apichecker_rt_timers_scheduled_total";
inline constexpr char kRtTimersCancelledTotal[] =
    "apichecker_rt_timers_cancelled_total";
inline constexpr char kRtTimerLagMs[] = "apichecker_rt_timer_lag_ms";
inline constexpr char kRtPollWakeupsTotal[] = "apichecker_rt_poll_wakeups_total";
inline constexpr char kRtFdWatchesTotal[] = "apichecker_rt_fd_watches_total";
// Peak `Threads:` sampled from /proc/self/status at connection-accept time —
// the CI gate that proves thread count is O(cores), not O(connections).
inline constexpr char kRtProcessThreadsPeak[] =
    "apichecker_rt_process_threads_peak";

}  // namespace apichecker::obs::names

#endif  // APICHECKER_OBS_NAMES_H_
