// VettingService: the online serving facade over the whole pipeline. Accepts
// a stream of APK submissions (the paper's production reality: T-Market
// pushes ~10K APKs/day through APICHECKER and swaps the model monthly with
// zero downtime, §5), applies admission control on sharded bounded queues,
// resolves byte-identical resubmissions from the digest cache, coalesces the
// rest into device-farm batches, and classifies against an RCU-hot-swappable
// model snapshot.
//
// Invariants:
//  * Backpressure, not OOM — a full shard rejects at Submit() with a Result
//    error; accepted work is bounded by num_shards * shard_capacity.
//  * No lost submissions — after Shutdown(), accepted == completed +
//    deadline_expired + parse_errors + rejected_unhealthy + shed_overload.
//    Every way out of the service goes through one ResolutionLedger, so this
//    holds by construction: even with every farm circuit-broken or the
//    overload governor shedding, a submission resolves visibly; it never
//    hangs.
//  * Graceful degradation — under pressure the governor sheds bulk first,
//    then rescan, never interactive (see serve/overload.h).
//  * No torn models — each batch classifies under exactly one ModelSnapshot;
//    swaps publish atomically and in-flight batches pin the old snapshot.

#ifndef APICHECKER_SERVE_SERVICE_H_
#define APICHECKER_SERVE_SERVICE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <iterator>
#include <memory>
#include <mutex>
#include <optional>
#include <span>

#include "core/checker.h"
#include "emu/farm.h"
#include "fabric/remote_client.h"
#include "market/model_registry.h"
#include "rt/runtime.h"
#include "serve/batch_scheduler.h"
#include "serve/digest_cache.h"
#include "serve/farm_pool.h"
#include "serve/ledger.h"
#include "serve/overload.h"
#include "serve/serving_model.h"
#include "serve/submission_shards.h"
#include "serve/types.h"
#include "store/verdict_store.h"
#include "util/result.h"

namespace apichecker::serve {

struct ServiceConfig {
  size_t num_shards = 4;
  size_t shard_capacity = 256;   // Bounded admission: max queued per class lane.
  size_t cache_capacity = 8192;  // Digest-cache entries.
  // Overload control: watermark shedding, weighted-fair class shares, and
  // per-class SLO default deadlines (see serve/overload.h).
  OverloadConfig overload;
  emu::FarmConfig farm;  // Per-farm template; batch_size defaults to
                         // farm.num_emulators.
  FarmPoolConfig pool;   // Farm count, failover budget, breaker, fault plan.
  BatchSchedulerConfig scheduler;
  // Persistent verdict store; store.dir empty = persistence disabled. When
  // set, verdicts survive restarts: recovery replays them into the digest
  // cache (stale model versions skipped) before the scheduler starts.
  store::StoreConfig store;
  // When true the scheduler thread is not started; submissions queue up until
  // Start() — the drain-control switch (and how tests fill queues
  // deterministically).
  bool start_paused = false;
  // Fraction of submissions stamped with a TraceContext at admission (0 = off,
  // 1.0 = every submission — tests; 0.01 = a production-like rate).
  // Implemented as deterministic 1-in-N on the submission id, so sampled
  // traffic is reproducible run to run.
  double trace_sample_rate = 0.0;
  // Farm fabric: when non-empty, the pool dispatches to one `apichecker farm`
  // worker process per endpoint (RemoteFarmClient) instead of in-process
  // farms; pool.num_farms is overridden by the endpoint count. The paper's
  // actual deployment shape — front-end and emulator tier as separate,
  // independently restartable processes.
  std::vector<std::string> fabric_endpoints;
  // Template for every remote client (endpoint and farm_id are assigned per
  // entry above).
  fabric::RemoteClientConfig fabric_client;
  // Worker threads of the unified runtime: the one executor hosting the
  // scheduler strand, farm dispatch tasks, the local farms' per-app fan-out,
  // fabric heartbeat timers, and gateway upload state machines. 0 = auto:
  // max(hardware_concurrency, 2 * farms + 4) — the floor keeps the executor
  // ahead of the worst-case number of farm dispatches holding a worker at
  // once on small machines.
  size_t rt_threads = 0;
};

class VettingService {
 public:
  // `initial_model` must be trained; it is published as model version 1.
  VettingService(const android::ApiUniverse& universe, ServiceConfig config,
                 core::ApiChecker initial_model);
  ~VettingService();

  VettingService(const VettingService&) = delete;
  VettingService& operator=(const VettingService&) = delete;

  // Admission: constant-time regardless of APK size — the blob carries its
  // digest (hashed once, incrementally, at ingest), so Submit() returns as
  // soon as the handle is routed; parsing happens later on a pool worker. A
  // digest the cache already holds for the live model resolves immediately
  // (fast-path), never touching a shard queue. Errors: "admission queue full"
  // (backpressure) or "service is shut down". The future resolves when the
  // submission is classified, expires, or fails to parse — never silently
  // dropped.
  util::Result<std::future<VettingResult>> Submit(Submission submission);

  // Submit variant with an asynchronous completion hook: `on_result` runs
  // (after the future is fulfilled) on whichever runtime task resolved the
  // submission. This is how the event-driven gateway gets its verdict without
  // parking a thread on future.get(). The hook must be cheap and
  // non-blocking; it is NOT invoked on admission errors (the returned Err
  // carries those). The returned future remains valid and may be ignored.
  util::Result<std::future<VettingResult>> SubmitWithCallback(
      Submission submission, std::function<void(const VettingResult&)> on_result);

  // Early-admission hooks for the network ingest gateway, which must be able
  // to answer BEFORE an upload body finishes arriving.
  //
  // PeekCachedVerdict: the digest-cache fastpath, exposed by digest alone — a
  // client that declares a digest it already uploaded gets the live model's
  // verdict without transferring a single body byte. Touches the cache's LRU
  // state but none of the service counters (the upload never became a
  // submission).
  std::optional<CachedVerdict> PeekCachedVerdict(const std::string& digest);
  // WouldShed: runs the overload governor's watermark state machine against
  // the current end-to-end backlog (shards + farm batches + network ingress)
  // and reports whether a submission of `priority` would be shed right now.
  // The gateway uses it to refuse an upload at open time instead of after the
  // multi-MB body has been received, parsed, and pooled.
  bool WouldShed(Priority priority);
  // Registers a probe for in-flight network-upload backlog (the gateway's
  // active-upload count). Its value joins the governor's depth input so
  // uploads still on the wire count as pressure before they reach a shard
  // queue. Must be set before traffic flows (not thread-safe against a
  // concurrent Submit).
  void SetIngressBacklogProbe(std::function<size_t()> probe);

  // Starts the scheduler if start_paused was set. Idempotent.
  void Start();

  // Registers the network front door's quiesce hook (the gateway's Stop).
  // Shutdown() invokes it FIRST, before admission closes, so in-flight
  // uploads drain to verdicts instead of being rejected mid-body. Must be set
  // before Shutdown may run; pass nullptr to detach (a gateway being
  // destroyed before the service must deregister).
  void RegisterFrontDoor(std::function<void()> stop);

  // Tears the service down in dependency order: front door (gateway) →
  // admission → scheduler drain → farm pool → store flush → runtime. The
  // runtime stops LAST, while every layer whose tasks it may still run is
  // alive — this is the lifetime contract that makes stale timer/strand
  // tasks safe. Idempotent and safe to call concurrently (late callers block
  // until the first completes); the destructor calls it.
  void Shutdown();

  // Hot-swap: publishes a new model; in-flight batches finish on the old
  // snapshot. Returns the new version.
  uint32_t SwapModel(core::ApiChecker next);
  // Same, from a core/model_store blob (what market::ModelRegistry archives).
  util::Result<uint32_t> SwapModelFromBlob(std::span<const uint8_t> blob);

  // Wires the registry's promotion event to SwapModelFromBlob, so a model
  // promoted by the monthly evolution loop goes live here without a restart.
  // The registry must outlive this service or be detached first.
  void AttachToRegistry(market::ModelRegistry& registry);

  ServiceStats stats() const;
  // Current watermark state / lifetime transitions of the overload governor.
  PressureState pressure_state() const { return governor_.state(); }
  uint64_t pressure_transitions() const { return governor_.transitions(); }
  FarmPoolStats farm_pool_stats() const { return pool_.stats(); }
  // Null when persistence is disabled or the store failed to open.
  const store::VerdictStore* verdict_store() const { return store_.get(); }
  uint32_t model_version() const { return model_.version(); }
  // Lifetime shard-queue pushes; lets tests prove the admission fast-path
  // resolved a duplicate without enqueueing it.
  uint64_t shard_pushes() const { return shards_.total_pushes(); }
  const ServiceConfig& config() const { return config_; }
  const DigestCache& cache() const { return cache_; }
  // The unified runtime hosting every asynchronous task of this service; the
  // gateway attaches its upload state machines here. Valid until Shutdown().
  rt::Runtime& runtime() { return *runtime_; }

 private:
  void WarmStartFromStore();

  const android::ApiUniverse& universe_;
  ServiceConfig config_;
  ResolutionLedger ledger_;
  DigestCache cache_;
  // Declared before pool_/scheduler_ so it outlives the tasks that append
  // to it; Shutdown() flushes it after the pool drains (see Shutdown()).
  std::unique_ptr<store::VerdictStore> store_;
  ServingModel model_;
  // Declared before every layer that posts to it. Destruction order is moot
  // (Shutdown() stops it explicitly, last), but construction order is not:
  // the pool/scheduler take it by reference.
  std::unique_ptr<rt::Runtime> runtime_;
  FarmPool pool_;
  SubmissionShards shards_;
  OverloadGovernor governor_;
  BatchScheduler scheduler_;
  std::atomic<uint64_t> next_id_{1};
  std::atomic<bool> shut_down_{false};
  std::once_flag shutdown_once_;
  std::function<void()> front_door_stop_;
  // In-flight network-upload depth, as submissions (empty = no gateway).
  std::function<size_t()> ingress_backlog_probe_;
  size_t sample_every_ = 0;  // 0 = tracing off; N = every Nth submission.
  // Resolved scheduler batch size (0-means-num_emulators already applied):
  // converts the farm pool's batch backlog into submissions for the governor.
  size_t batch_size_hint_ = 1;
  // Admission metrics, resolved once.
  obs::Counter& fastpath_hits_total_;
  obs::Gauge& queue_depth_;
  obs::Histogram& admission_ms_;
  std::array<obs::Histogram*, std::size(kApkSizeBuckets)> admission_ms_by_size_{};
};

}  // namespace apichecker::serve

#endif  // APICHECKER_SERVE_SERVICE_H_
