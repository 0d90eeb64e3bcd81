#include "serve/batch_scheduler.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ingest/apk_blob.h"
#include "obs/names.h"
#include "util/logging.h"

namespace apichecker::serve {

namespace {

double MsSince(Clock::time_point start, Clock::time_point now) {
  return std::chrono::duration<double, std::milli>(now - start).count();
}

// One emulation slot per distinct digest: the leader is parsed and emulated,
// followers (byte-identical batch members) resolve off the leader's verdict.
struct EmulationSlot {
  size_t leader;
  std::vector<size_t> followers;
};

// Everything the asynchronous pool completion needs to resolve the batch.
// Owned by a shared_ptr captured in every pool callback.
struct BatchState {
  std::vector<PendingSubmission> batch;
  std::vector<EmulationSlot> slots;
  std::shared_ptr<const ModelSnapshot> snapshot;
  Timeline times;  // Batch-level stamps: assembly, then the pool hand-off.
};

}  // namespace

BatchScheduler::BatchScheduler(BatchSchedulerConfig config, rt::Runtime& runtime,
                               SubmissionShards& shards, DigestCache& cache,
                               ServingModel& model, FarmPool& pool,
                               ResolutionLedger& ledger,
                               store::VerdictStore* store)
    : config_(config), runtime_(runtime), shards_(shards), cache_(cache),
      model_(model), pool_(pool), ledger_(ledger), store_(store),
      batches_total_(obs::MetricsRegistry::Default().counter(
          obs::names::kServeBatchesTotal)),
      cache_misses_total_(obs::MetricsRegistry::Default().counter(
          obs::names::kServeCacheMissesTotal)),
      batch_size_(obs::MetricsRegistry::Default().histogram(
          obs::names::kServeBatchSize)),
      queue_wait_ms_(obs::MetricsRegistry::Default().histogram(
          obs::names::kServeQueueWaitMs)),
      queue_depth_(obs::MetricsRegistry::Default().gauge(
          obs::names::kServeQueueDepth)) {
  if (config_.batch_size == 0) {
    config_.batch_size = 1;
  }
}

BatchScheduler::~BatchScheduler() {
  if (started_.load(std::memory_order_acquire) && !drained()) {
    shards_.Close();
    Join();
  }
}

bool BatchScheduler::drained() const {
  std::lock_guard<std::mutex> lock(join_mu_);
  return drained_;
}

void BatchScheduler::Start() {
  bool expected = false;
  if (!started_.compare_exchange_strong(expected, true)) {
    return;
  }
  strand_ = runtime_.MakeStrand();
  shards_.SetPushListener([this] { SchedulePump(); });
  // Sweep once unconditionally: submissions admitted before Start (the
  // start_paused backlog) and a Close that raced the listener registration
  // both predate the listener.
  SchedulePump();
}

void BatchScheduler::Join() {
  if (!started_.load(std::memory_order_acquire)) {
    return;
  }
  std::unique_lock<std::mutex> lock(join_mu_);
  join_cv_.wait(lock, [this] { return drained_; });
}

void BatchScheduler::SchedulePump() {
  if (!started_.load(std::memory_order_acquire)) {
    return;
  }
  // Coalesce: many pushes, one queued pump. The pump clears the flag BEFORE
  // sweeping, so a push that lands mid-sweep queues a fresh pump instead of
  // being lost.
  if (pump_scheduled_.exchange(true, std::memory_order_acq_rel)) {
    return;
  }
  strand_->Post([this] {
    // exchange (not store): reading the poster's flag write with acquire
    // order makes that poster's shard push visible to the sweep below.
    pump_scheduled_.exchange(false, std::memory_order_acq_rel);
    Pump();
  });
}

void BatchScheduler::Pump() {
  for (;;) {
    // Read the push counter BEFORE sweeping: a push that lands mid-sweep
    // changes the counter, so the drained check below re-sweeps instead of
    // declaring victory early.
    const uint64_t seen = shards_.total_pushes();
    while (batch_.size() < config_.batch_size) {
      auto popped = shards_.TryPopAny();
      if (!popped) {
        break;
      }
      if (batch_.empty()) {
        linger_deadline_ = Clock::now() + config_.max_linger;
      }
      // SLO-aware linger: never linger past a member's deadline. A member
      // whose (class-SLO-derived) deadline is tighter than the configured
      // linger pulls the flush in, so a tight-SLO submission is dispatched —
      // or expired visibly — at its deadline instead of at linger
      // granularity.
      linger_deadline_ = std::min(linger_deadline_, popped->deadline);
      batch_.push_back(std::move(*popped));
    }
    if (batch_.size() >= config_.batch_size) {
      Flush();
      continue;  // The shards may hold another full batch already.
    }
    if (!batch_.empty()) {
      if (shards_.closed() || Clock::now() >= linger_deadline_) {
        // Closed shards never push again — lingering would only add latency.
        Flush();
        continue;
      }
      ArmLingerTimer();
      return;
    }
    if (!shards_.closed()) {
      return;  // Idle: the next push listener schedules the next pump.
    }
    if (shards_.total_pushes() == seen) {
      // Closed, empty sweep, and no push raced it: drained for good (pushes
      // fail after close, so no later pump can find work).
      linger_timer_.Cancel();
      ++timer_generation_;
      {
        std::lock_guard<std::mutex> lock(join_mu_);
        drained_ = true;
      }
      join_cv_.notify_all();
      return;
    }
    // Closed but a push landed mid-sweep: loop and re-sweep.
  }
}

void BatchScheduler::ArmLingerTimer() {
  if (timer_armed_ && armed_deadline_ == linger_deadline_ &&
      !linger_timer_.fired()) {
    return;  // Still pending at the right time; nothing to do.
  }
  linger_timer_.Cancel();
  const uint64_t generation = ++timer_generation_;
  timer_armed_ = true;
  armed_deadline_ = linger_deadline_;
  // The wheel callback runs on a runtime thread; it only bounces onto the
  // strand, where OnLingerTimer may touch batch state. The strand is held
  // alive by the capture; `this` stays valid because the service tears the
  // scheduler down before the runtime (documented teardown sequence).
  auto strand = strand_;
  linger_timer_ = runtime_.PostAt(linger_deadline_, [this, strand, generation] {
    strand->Post([this, generation] { OnLingerTimer(generation); });
  });
}

void BatchScheduler::OnLingerTimer(uint64_t generation) {
  if (generation != timer_generation_) {
    return;  // Stale: the batch it guarded was already flushed or re-armed.
  }
  timer_armed_ = false;
  if (!batch_.empty()) {
    Flush();
  }
  // The flush may have raced new pushes whose pump coalesced into a task that
  // already ran; sweep once more so nothing lingers unarmed.
  Pump();
}

void BatchScheduler::Flush() {
  linger_timer_.Cancel();
  ++timer_generation_;
  timer_armed_ = false;
  std::vector<PendingSubmission> batch = std::move(batch_);
  batch_.clear();
  if (batch.empty()) {
    return;
  }
  // Earliest-deadline-first assembly: triage (and therefore expiry,
  // cache-hit resolution, and slot-leader election) visits the tightest
  // deadlines first. No-deadline members (time_point::max) sort last; ties
  // keep the weighted-fair pop order.
  std::stable_sort(batch.begin(), batch.end(),
                   [](const PendingSubmission& a, const PendingSubmission& b) {
                     return a.deadline < b.deadline;
                   });
  ExecuteBatch(std::move(batch));
}

void BatchScheduler::ExecuteBatch(std::vector<PendingSubmission> batch) {
  batches_.fetch_add(1, std::memory_order_relaxed);
  batches_total_.Increment();
  batch_size_.Observe(static_cast<double>(batch.size()));
  queue_depth_.Set(static_cast<double>(shards_.ApproxDepth()));

  auto state = std::make_shared<BatchState>();
  state->batch = std::move(batch);
  // One snapshot for the whole batch: a concurrent hot-swap becomes visible
  // at the next batch boundary, never inside one.
  state->snapshot = model_.Acquire();
  state->times.assembled_at = Clock::now();
  state->times.batch_size = state->batch.size();

  // Triage on the scheduler strand: expired deadlines and digest-cache hits
  // resolve without touching an emulator; byte-identical members of the same
  // batch emulate once. Parsing is NOT done here — the pool's first worker to
  // pick the batch up runs it (off the scheduler, off the submitter), so the
  // scheduler goes straight back to assembling the next batch.
  std::vector<ingest::ApkBlob> blobs;  // One per slot leader; refcount bumps only.
  std::unordered_map<std::string, size_t> digest_to_slot;

  for (size_t i = 0; i < state->batch.size(); ++i) {
    PendingSubmission& pending = state->batch[i];
    queue_wait_ms_.Observe(MsSince(pending.admitted_at, state->times.assembled_at));

    VettingResult result;
    result.model_version = state->snapshot->version;
    if (state->times.assembled_at >= pending.deadline) {
      result.status = VetStatus::kDeadlineExpired;
      ledger_.Resolve(pending, std::move(result), state->times);
      continue;
    }

    if (auto cached = cache_.Get(pending.digest(), state->snapshot->version)) {
      result.malicious = cached->malicious;
      result.score = cached->score;
      result.from_cache = true;
      Timeline times = state->times;
      times.warm = cached->warm;
      ledger_.Resolve(pending, std::move(result), times);
      continue;
    }
    cache_misses_total_.Increment();

    if (auto it = digest_to_slot.find(pending.digest()); it != digest_to_slot.end()) {
      state->slots[it->second].followers.push_back(i);
      continue;
    }
    digest_to_slot.emplace(pending.digest(), state->slots.size());
    state->slots.push_back({i, {}});
    blobs.push_back(pending.blob);
  }

  if (blobs.empty()) {
    return;
  }

  // Hand the blobs to the pool; the parse stage and classification both
  // happen on the pool worker that picks the batch up. Affinity-hash the
  // first leader's digest so byte-similar traffic prefers the same farm when
  // loads tie. Slot index s == blob index s in the vector handed to the pool.
  const uint64_t affinity =
      std::hash<std::string>{}(state->batch[state->slots.front().leader].digest());
  std::vector<obs::TraceContext> slot_traces;
  slot_traces.reserve(state->slots.size());
  for (const EmulationSlot& slot : state->slots) {
    slot_traces.push_back(state->batch[slot.leader].trace);
  }
  // Stamped before the hand-off: a worker may resolve the batch before
  // Submit() even returns.
  state->times.dispatched_at = Clock::now();

  // Every pool outcome resolves whole slots: the leader with its own stage
  // times, each in-batch follower with a copy of the leader's result. A
  // follower's verdict skipped emulation, so an ok one is a cache hit.
  auto resolve_slot = [this, state](size_t slot_index, const VettingResult& result,
                                    const Timeline& leader_times) {
    const EmulationSlot& slot = state->slots[slot_index];
    ledger_.Resolve(state->batch[slot.leader], result, leader_times);
    for (size_t follower : slot.followers) {
      VettingResult copy = result;
      copy.from_cache = result.status == VetStatus::kOk;
      ledger_.Resolve(state->batch[follower], std::move(copy), state->times);
    }
  };

  auto on_parse_error = [state, resolve_slot](size_t slot_index,
                                              const std::string& error) {
    VettingResult result;
    result.status = VetStatus::kParseError;
    result.error = error;
    result.model_version = state->snapshot->version;
    resolve_slot(slot_index, result, state->times);
  };

  auto on_complete = [this, state, resolve_slot](const emu::BatchResult& farm_result,
                                                 const std::vector<size_t>& emulated) {
    for (size_t j = 0; j < emulated.size(); ++j) {
      const std::string& digest = state->batch[state->slots[emulated[j]].leader].digest();
      Timeline times = state->times;
      times.farm_done = Clock::now();
      const core::ApiChecker::Verdict verdict =
          state->snapshot->checker.Classify(farm_result.reports[j]);
      times.classify_ms = MsSince(times.farm_done, Clock::now());
      cache_.Put(digest, {state->snapshot->version, verdict.malicious, verdict.score});
      if (store_ != nullptr) {
        const Clock::time_point store_start = Clock::now();
        store::VerdictRecord record;
        record.digest = digest;
        record.model_version = state->snapshot->version;
        record.malicious = verdict.malicious;
        record.score = verdict.score;
        record.timestamp_ms = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::system_clock::now().time_since_epoch())
                .count());
        auto appended = store_->Append(std::move(record));
        if (!appended.ok()) {
          // Persistence is best-effort from the serving path: the verdict is
          // already cached and resolving; a dead/faulted store must not take
          // submissions down with it.
          APICHECKER_LOG(Warning)
              << "verdict store append failed: " << appended.error();
        }
        times.store_ms = MsSince(store_start, Clock::now());
      }

      VettingResult result;
      result.malicious = verdict.malicious;
      result.score = verdict.score;
      result.model_version = state->snapshot->version;
      resolve_slot(emulated[j], result, times);
    }
  };

  auto on_reject = [state, resolve_slot](PoolRejectReason reason,
                                         const std::vector<size_t>& affected) {
    VettingResult result;
    result.status = VetStatus::kRejectedUnhealthy;
    result.error = PoolRejectReasonName(reason);
    result.model_version = state->snapshot->version;
    for (size_t slot_index : affected) {
      resolve_slot(slot_index, result, state->times);
    }
  };

  const size_t num_slots = state->slots.size();
  if (!pool_.Submit(std::move(blobs), state->snapshot, affinity, on_complete,
                    on_reject, on_parse_error, std::move(slot_traces))) {
    // Shutdown race: the pool closed before this batch reached it. Resolve
    // everything visibly rather than dropping it (nothing was parsed, so
    // every slot is affected).
    std::vector<size_t> all(num_slots);
    for (size_t s = 0; s < num_slots; ++s) {
      all[s] = s;
    }
    on_reject(PoolRejectReason::kClosed, all);
  }
}

}  // namespace apichecker::serve
