#include "serve/service.h"

#include <algorithm>
#include <cmath>
#include <thread>
#include <utility>

#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/trace_collector.h"
#include "util/logging.h"

namespace apichecker::serve {

namespace {

BatchSchedulerConfig ResolveSchedulerConfig(const ServiceConfig& config) {
  BatchSchedulerConfig resolved = config.scheduler;
  if (resolved.batch_size == 0) {
    resolved.batch_size = std::max<size_t>(1, config.farm.num_emulators);
  }
  return resolved;
}

// Opens the verdict store when configured. A store that fails to open (bad
// disk, unwritable dir) degrades to cold-start serving rather than refusing
// to serve at all.
std::unique_ptr<store::VerdictStore> OpenStoreOrNull(const ServiceConfig& config) {
  if (config.store.dir.empty()) {
    return nullptr;
  }
  auto opened = store::VerdictStore::Open(config.store);
  if (!opened.ok()) {
    APICHECKER_LOG(Error) << "verdict store disabled: " << opened.error();
    return nullptr;
  }
  return std::move(*opened);
}

// Local farms by default; one RemoteFarmClient per fabric endpoint when the
// service is fronting a multi-process fleet. The remote clients share the
// service's runtime for their heartbeat timers and reconnect tasks.
std::vector<std::unique_ptr<fabric::FarmBackend>> MakeBackends(
    const android::ApiUniverse& universe, const ServiceConfig& config,
    rt::Runtime* runtime) {
  if (config.fabric_endpoints.empty()) {
    return MakeLocalFarmBackends(universe, config.pool, config.farm);
  }
  std::vector<std::unique_ptr<fabric::FarmBackend>> backends;
  backends.reserve(config.fabric_endpoints.size());
  for (size_t i = 0; i < config.fabric_endpoints.size(); ++i) {
    fabric::RemoteClientConfig remote = config.fabric_client;
    remote.endpoint = config.fabric_endpoints[i];
    remote.farm_id = static_cast<uint32_t>(i);
    backends.push_back(
        std::make_unique<fabric::RemoteFarmClient>(universe, remote, runtime));
  }
  return backends;
}

// 0 = auto. The floor matters on small machines: farm dispatches and fabric
// heartbeat ticks occupy workers for bounded-blocking stretches, so the
// executor must have headroom beyond the farm count or a fully-dispatched
// pool would starve the scheduler strand.
size_t ResolveRuntimeWorkers(const ServiceConfig& config) {
  if (config.rt_threads > 0) {
    return config.rt_threads;
  }
  const size_t farms = config.fabric_endpoints.empty()
                           ? std::max<size_t>(1, config.pool.num_farms)
                           : config.fabric_endpoints.size();
  const size_t hw = std::max<size_t>(2, std::thread::hardware_concurrency());
  return std::max(hw, 2 * farms + 4);
}

}  // namespace

VettingService::VettingService(const android::ApiUniverse& universe,
                               ServiceConfig config, core::ApiChecker initial_model)
    : universe_(universe),
      config_(config),
      cache_(config.cache_capacity),
      store_(OpenStoreOrNull(config)),
      model_(std::move(initial_model)),
      runtime_(std::make_unique<rt::Runtime>(
          rt::RuntimeOptions{ResolveRuntimeWorkers(config)})),
      pool_(config.pool, MakeBackends(universe, config, runtime_.get()),
            runtime_.get()),
      shards_(config.num_shards, config.shard_capacity,
              config.overload.class_weights),
      governor_(config.overload),
      scheduler_(ResolveSchedulerConfig(config), *runtime_, shards_, cache_,
                 model_, pool_, ledger_, store_.get()),
      fastpath_hits_total_(obs::MetricsRegistry::Default().counter(
          obs::names::kServeCacheFastpathHitsTotal)),
      queue_depth_(obs::MetricsRegistry::Default().gauge(obs::names::kServeQueueDepth)),
      admission_ms_(obs::MetricsRegistry::Default().histogram(
          obs::names::kServeAdmissionLatencyMs)) {
  for (size_t b = 0; b < admission_ms_by_size_.size(); ++b) {
    admission_ms_by_size_[b] = &obs::MetricsRegistry::Default().histogram(
        AdmissionSeriesName(obs::names::kServeAdmissionLatencyMs, kApkSizeBuckets[b]));
  }
  batch_size_hint_ = ResolveSchedulerConfig(config).batch_size;
  if (config_.trace_sample_rate > 0.0) {
    sample_every_ = static_cast<size_t>(
        std::max<long long>(1, std::llround(1.0 / config_.trace_sample_rate)));
  }
  WarmStartFromStore();
  if (!config_.start_paused) {
    scheduler_.Start();
  }
}

void VettingService::WarmStartFromStore() {
  if (store_ == nullptr) {
    return;
  }
  const uint32_t version = model_.version();
  size_t warmed = 0;
  size_t stale = 0;
  store_->ForEachLive([&](const store::VerdictRecord& record) {
    // Model-version-stamp invalidation: a verdict from another model version
    // must not be served by this one. (DigestCache::Get would evict it on
    // first touch anyway; filtering here keeps stale records from displacing
    // useful capacity.)
    if (record.model_version != version) {
      ++stale;
      return;
    }
    CachedVerdict verdict;
    verdict.model_version = record.model_version;
    verdict.malicious = record.malicious;
    verdict.score = record.score;
    verdict.warm = true;
    cache_.Put(record.digest, verdict);
    ++warmed;
  });
  if (warmed > 0 || stale > 0) {
    APICHECKER_SLOG(Info, "serve.warm_start")
        .With("cached", static_cast<uint64_t>(warmed))
        .With("stale_skipped", static_cast<uint64_t>(stale))
        .With("model_version", version);
  }
}

VettingService::~VettingService() { Shutdown(); }

void VettingService::Start() { scheduler_.Start(); }

util::Result<std::future<VettingResult>> VettingService::Submit(Submission submission) {
  return SubmitWithCallback(std::move(submission), nullptr);
}

util::Result<std::future<VettingResult>> VettingService::SubmitWithCallback(
    Submission submission, std::function<void(const VettingResult&)> on_result) {
  const Clock::time_point entered_at = Clock::now();
  if (shut_down_.load(std::memory_order_acquire)) {
    ledger_.Refuse({});
    return util::Err("service is shut down");
  }

  // Admission does constant work regardless of APK size: the digest was
  // computed once when the blob was materialized (incrementally, while the
  // bytes streamed in) and travels with the handle. Observed into the
  // size-bucketed admission-latency histograms so the "flat in APK size"
  // property is checkable from the metrics dump.
  obs::Histogram& admission_by_size =
      *admission_ms_by_size_[ApkSizeBucketIndex(submission.blob.size())];
  auto observe_admission = [this, &admission_by_size, entered_at] {
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - entered_at)
            .count();
    admission_ms_.Observe(ms);
    admission_by_size.Observe(ms);
  };

  PendingSubmission pending;
  pending.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  pending.blob = std::move(submission.blob);
  pending.priority = submission.priority;
  pending.admitted_at = entered_at;
  // No explicit deadline → the class SLO default (which may itself be unset).
  std::chrono::milliseconds relative_deadline = submission.deadline;
  if (relative_deadline.count() <= 0) {
    relative_deadline = config_.overload.class_slo[static_cast<size_t>(pending.priority)];
  }
  pending.deadline = relative_deadline.count() > 0
                         ? pending.admitted_at + relative_deadline
                         : Clock::time_point::max();
  pending.on_result = std::move(on_result);
  std::future<VettingResult> future = pending.promise.get_future();

  // Deterministic 1-in-N sampling on the submission id (ids start at 1, so
  // `id % N == 1 % N` picks the first submission and every Nth after it).
  if (sample_every_ > 0 && pending.id % sample_every_ == 1 % sample_every_) {
    pending.trace.trace_id = obs::TraceCollector::Default().StartTrace();
  }

  // Admission fast-path: a digest this model version already judged resolves
  // here, without a queue round-trip — the duplicate-heavy market traffic the
  // paper describes never costs a scheduler wakeup.
  if (auto cached = cache_.Get(pending.digest(), model_.version())) {
    fastpath_hits_total_.Increment();
    ledger_.Accept(pending.priority);
    VettingResult result;
    result.malicious = cached->malicious;
    result.score = cached->score;
    result.from_cache = true;
    result.model_version = cached->model_version;
    Timeline times;
    times.warm = cached->warm;
    ledger_.Resolve(pending, std::move(result), times);
    observe_admission();
    return future;
  }

  // Overload control: re-evaluate the watermark state machine on every
  // admission that missed the cache, and shed sheddable classes while it is
  // in pressure/critical. A shed submission is ACCEPTED and resolved
  // immediately with kShedOverload — the caller gets a visible verdict-class
  // drop (to retry later), never a hang, and the no-lost-submissions
  // invariant extends to cover it. Interactive traffic is never shed; its
  // fate is decided by its own isolated lane (kQueueFull backpressure).
  if (config_.overload.shed) {
    // Depth is the END-TO-END backlog: shard queues plus batches queued or
    // executing in the farm pool (converted back to submissions), plus
    // uploads still arriving over the network. The shard queues alone go
    // shallow whenever the scheduler keeps up, even while the farms drown —
    // overload must be judged where the work actually piles.
    const size_t backlog =
        shards_.ApproxDepth() +
        pool_.ApproxBacklogBatches() * batch_size_hint_ +
        (ingress_backlog_probe_ ? ingress_backlog_probe_() : 0);
    const PressureState pressure = governor_.Evaluate(
        backlog, shards_.class_capacity(), ingest::ApkBlob::PoolBytes());
    if (OverloadGovernor::ShouldShed(pressure, pending.priority)) {
      ledger_.Accept(pending.priority);
      VettingResult result;
      result.status = VetStatus::kShedOverload;
      result.model_version = model_.version();
      result.error = PressureStateName(pressure);
      ledger_.Resolve(pending, std::move(result), {});
      observe_admission();
      return future;
    }
  }

  pending.enqueued_at = Clock::now();
  if (pending.trace.sampled()) {
    pending.submit_depth = shards_.ApproxDepth();
  }
  const obs::TraceContext trace = pending.trace;  // Survives the move below.
  const Priority priority = pending.priority;
  switch (shards_.TryPush(std::move(pending))) {
    case AdmissionOutcome::kAccepted:
      ledger_.Accept(priority);
      queue_depth_.Set(static_cast<double>(shards_.ApproxDepth()));
      observe_admission();
      return future;
    case AdmissionOutcome::kQueueFull:
      ledger_.Refuse(trace);
      return util::Err("admission queue full");
    case AdmissionOutcome::kClosed:
      break;
  }
  ledger_.Refuse(trace);
  return util::Err("service is shut down");
}

std::optional<CachedVerdict> VettingService::PeekCachedVerdict(
    const std::string& digest) {
  return cache_.Get(digest, model_.version());
}

bool VettingService::WouldShed(Priority priority) {
  if (!config_.overload.shed) return false;
  const size_t backlog =
      shards_.ApproxDepth() + pool_.ApproxBacklogBatches() * batch_size_hint_ +
      (ingress_backlog_probe_ ? ingress_backlog_probe_() : 0);
  const PressureState pressure = governor_.Evaluate(
      backlog, shards_.class_capacity(), ingest::ApkBlob::PoolBytes());
  return OverloadGovernor::ShouldShed(pressure, priority);
}

void VettingService::SetIngressBacklogProbe(std::function<size_t()> probe) {
  ingress_backlog_probe_ = std::move(probe);
}

void VettingService::RegisterFrontDoor(std::function<void()> stop) {
  front_door_stop_ = std::move(stop);
}

void VettingService::Shutdown() {
  // call_once doubles as the idempotency latch AND the concurrent-shutdown
  // barrier: a second caller blocks until the first teardown completes, so
  // "Shutdown returned" always means "everything is down".
  std::call_once(shutdown_once_, [this] {
    // Teardown order: gateway → admission → scheduler → pool → store →
    // runtime. The front door quiesces FIRST, while admission is still open,
    // so uploads in flight drain to real verdicts instead of rejections; the
    // runtime stops LAST, while every layer whose strand/timer tasks it may
    // still run is alive.
    if (front_door_stop_) {
      front_door_stop_();
    }
    shut_down_.store(true, std::memory_order_release);
    // Scheduler must be running to drain whatever is queued (covers the
    // start_paused case where Start() was never called). The scheduler hands
    // its last batches to the pool before Join() returns, and only then may
    // the pool close — so every accepted submission resolves.
    scheduler_.Start();
    shards_.Close();
    scheduler_.Join();
    pool_.Close();
    // Only after pool_.Close() have all in-flight completions run, so every
    // verdict this process produced has been handed to the store — flush the
    // group-commit tail now, while the store is still alive. (Flushing before
    // the pool drains would race the last appends and lose them to a crash.)
    if (store_ != nullptr) {
      auto flushed = store_->Flush();
      if (!flushed.ok()) {
        APICHECKER_LOG(Warning) << "verdict store flush at shutdown: "
                                << flushed.error();
      }
    }
    // Every layer is drained; no task can be scheduled anymore. Stopping the
    // runtime now (not in ~VettingService) guarantees stale strand/timer
    // tasks can never touch a destroyed member.
    runtime_->Shutdown();
    const ServiceStats drained = ledger_.stats();
    APICHECKER_SLOG(Info, "serve.drained")
        .With("accepted", drained.accepted)
        .With("resolved", drained.resolved());
  });
}

uint32_t VettingService::SwapModel(core::ApiChecker next) {
  return model_.Swap(std::move(next));
}

util::Result<uint32_t> VettingService::SwapModelFromBlob(std::span<const uint8_t> blob) {
  return model_.SwapFromBlob(universe_, blob);
}

void VettingService::AttachToRegistry(market::ModelRegistry& registry) {
  registry.SetPromotionListener([this](const market::ModelRecord& record) {
    auto swapped = SwapModelFromBlob(record.blob);
    if (!swapped.ok()) {
      APICHECKER_LOG(Error) << "registry promotion not deployed: " << swapped.error();
    }
  });
}

ServiceStats VettingService::stats() const {
  ServiceStats stats = ledger_.stats();
  // Version 1 is the initial model; every swap publishes the next one.
  stats.model_swaps = model_.version() - 1;
  stats.batches = scheduler_.batches();
  const FarmPoolStats pool_stats = pool_.stats();
  stats.farm_faults = pool_stats.faults;
  stats.farm_retries = pool_stats.retries;
  return stats;
}

}  // namespace apichecker::serve
