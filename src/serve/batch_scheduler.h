// Batch scheduler: drains the sharded submission queues into farm-sized
// batches and drives each batch through parse -> emulate -> classify ->
// cache-fill. Flushes on batch-full OR when the oldest queued member has
// lingered past max_linger — the classic throughput/latency coalescing
// trade-off (a full farm batch keeps all emulators busy; the linger cap keeps
// a trickle of submissions from waiting forever).
//
// The scheduler owns NO thread: it is a strand of tasks on the rt::Runtime.
// A shard push schedules a pump task (coalesced — at most one queued at a
// time), so the first submission after an idle stretch starts assembly
// immediately (no poll granularity); the pump assembles the batch
// and arms a linger timer at min(first-member + max_linger, earliest member
// deadline); timer expiry flushes the partial batch. The strand serializes
// pump, timer, and flush, so batch state needs no lock of its own.
//
// Emulation routes through a FarmPool: triage (deadline expiry, digest-cache
// hits, in-batch dedup) runs on the scheduler strand over blob handles only —
// APK parsing happens in the farm's fan-out, where each member is parsed and
// emulated by one runtime task, so neither the submitter nor the scheduler
// ever blocks on ZIP/dex decoding. Parse failures resolve with kParseError
// once the batch's first farm attempt returns; the rest are classified
// asynchronously when their farm finishes — so M farms stay busy while the
// scheduler assembles the next batch. A pool-level failure (all farms down,
// retry budget exhausted) resolves every member with kRejectedUnhealthy
// rather than dropping it.
// Every member leaves through the ResolutionLedger, whichever path it took.
// Acquires one model snapshot per batch, so hot-swaps take effect at the next
// batch boundary and a batch is never classified by two different models.

#ifndef APICHECKER_SERVE_BATCH_SCHEDULER_H_
#define APICHECKER_SERVE_BATCH_SCHEDULER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/metrics.h"
#include "rt/runtime.h"
#include "serve/digest_cache.h"
#include "serve/farm_pool.h"
#include "serve/ledger.h"
#include "serve/serving_model.h"
#include "serve/submission_shards.h"
#include "serve/types.h"
#include "store/verdict_store.h"

namespace apichecker::serve {

struct BatchSchedulerConfig {
  // Target batch size; defaults to one submission per farm emulator.
  size_t batch_size = 16;
  // Max time the oldest batch member may wait before a partial flush.
  std::chrono::milliseconds max_linger{20};
};

class BatchScheduler {
 public:
  // `store` may be null (persistence disabled); when set, every fresh verdict
  // is appended to it right after the cache fill, on the pool dispatch task.
  // `runtime` hosts the pump strand and linger timers; it must outlive the
  // shards/pool (the service shuts it down LAST in the teardown sequence).
  BatchScheduler(BatchSchedulerConfig config, rt::Runtime& runtime,
                 SubmissionShards& shards, DigestCache& cache,
                 ServingModel& model, FarmPool& pool, ResolutionLedger& ledger,
                 store::VerdictStore* store = nullptr);
  ~BatchScheduler();

  BatchScheduler(const BatchScheduler&) = delete;
  BatchScheduler& operator=(const BatchScheduler&) = delete;

  // Idempotent. Registers the shard push listener and pumps any backlog;
  // assembly work then runs as runtime tasks until the shards are closed and
  // drained.
  void Start();

  // Blocks until the shards are closed and drained and the final partial
  // batch has been handed to the pool (or resolved). The pool must be
  // drained separately to resolve in-flight batches (the shards must already
  // be closed, or this blocks until they are). No-op before Start().
  void Join();

  // Batches assembled so far.
  uint64_t batches() const { return batches_.load(std::memory_order_relaxed); }

 private:
  void SchedulePump();
  void Pump();
  void OnLingerTimer(uint64_t generation);
  void ArmLingerTimer();
  void Flush();
  void ExecuteBatch(std::vector<PendingSubmission> batch);
  bool drained() const;

  BatchSchedulerConfig config_;
  rt::Runtime& runtime_;
  SubmissionShards& shards_;
  DigestCache& cache_;
  ServingModel& model_;
  FarmPool& pool_;
  ResolutionLedger& ledger_;
  store::VerdictStore* store_;  // Not owned; null when persistence is off.

  std::atomic<uint64_t> batches_{0};
  obs::Counter& batches_total_;
  obs::Counter& cache_misses_total_;
  obs::Histogram& batch_size_;
  obs::Histogram& queue_wait_ms_;
  obs::Gauge& queue_depth_;

  std::shared_ptr<rt::Strand> strand_;
  std::atomic<bool> started_{false};
  // Coalesces push notifications: at most one pump task queued at a time.
  std::atomic<bool> pump_scheduled_{false};

  // Strand-confined assembly state (only ever touched by strand tasks).
  std::vector<PendingSubmission> batch_;
  Clock::time_point linger_deadline_{};
  rt::CancelToken linger_timer_;
  uint64_t timer_generation_ = 0;
  bool timer_armed_ = false;
  Clock::time_point armed_deadline_{};

  // Join/running signalling.
  mutable std::mutex join_mu_;
  std::condition_variable join_cv_;
  bool drained_ = false;
};

}  // namespace apichecker::serve

#endif  // APICHECKER_SERVE_BATCH_SCHEDULER_H_
