// N sharded, bounded MPMC submission queues with admission control and
// per-priority-class lanes. Producers hash a submission's content digest onto
// a shard (byte-identical resubmits land on the same shard, keeping shard
// load balanced under clone-heavy traffic), then route into the shard's lane
// for the submission's traffic class and TryPush — a full lane rejects the
// submission outright, which is the service's backpressure contract: bounded
// memory, explicit errors, never OOM. Each class has its own capacity, so a
// bulk storm can never occupy the slots interactive traffic needs.
//
// The consumer side is a cross-shard, cross-class non-blocking pop the batch
// scheduler uses to assemble batches. Classes are served by smooth weighted
// round-robin: each class accrues credit equal to its weight per pop, the
// richest class is swept first, and the winner pays the total weight — giving
// interactive its configured share under contention while staying work-
// conserving (an empty preferred class immediately yields to the next).

#ifndef APICHECKER_SERVE_SUBMISSION_SHARDS_H_
#define APICHECKER_SERVE_SUBMISSION_SHARDS_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "serve/types.h"
#include "util/bounded_queue.h"

namespace apichecker::serve {

enum class AdmissionOutcome : uint8_t {
  kAccepted = 0,
  kQueueFull = 1,  // Class lane at capacity — backpressure.
  kClosed = 2,     // Service shutting down.
};

class SubmissionShards {
 public:
  using ClassWeights = std::array<uint32_t, kNumPriorityClasses>;

  // `per_shard_capacity` bounds EACH class lane of a shard (classes are
  // isolated, not pooled). Zero weights are clamped to 1.
  SubmissionShards(size_t num_shards, size_t per_shard_capacity,
                   ClassWeights class_weights = {{8, 3, 1}});

  // Routes by digest hash onto a shard, then by priority into its class lane.
  AdmissionOutcome TryPush(PendingSubmission pending);

  // Pops from any shard (weighted-fair across classes, round-robin sweep from
  // a rotating cursor within a class, so no shard starves). Never blocks:
  // nullopt when everything is empty.
  std::optional<PendingSubmission> TryPopAny();

  // Idempotent: fails further pushes, notifies the listener, lets pops drain.
  void Close();
  bool closed() const;

  // Event-driven consumer hook: `listener` is invoked (outside the internal
  // lock) after every successful push and once by Close(). The batch
  // scheduler registers its pump here so a push schedules assembly work on
  // the runtime instead of waking a dedicated thread. One listener at most;
  // registering replaces the previous one.
  void SetPushListener(std::function<void()> listener);

  // Total queued across shards and classes (approximate under concurrency).
  size_t ApproxDepth() const;
  // Queued in one class's lanes across shards (approximate).
  size_t ApproxDepthByClass(Priority priority) const;

  // Total capacity of ONE class's lanes (num_shards * per_shard_capacity) —
  // the denominator for the overload governor's queue-depth watermarks.
  size_t class_capacity() const { return shards_.size() * per_shard_capacity_; }

  // Lifetime count of successful pushes. Lets tests prove a fast-path
  // admission (digest-cache hit or shed at Submit) never touched a shard.
  uint64_t total_pushes() const;

 private:
  // One shard = one bounded FIFO lane per priority class.
  using Shard =
      std::array<std::unique_ptr<util::BoundedQueue<PendingSubmission>>,
                 kNumPriorityClasses>;

  size_t ShardIndexFor(const PendingSubmission& pending) const;

  std::vector<Shard> shards_;
  const size_t per_shard_capacity_;
  ClassWeights weights_{};
  uint32_t total_weight_ = 0;

  // Pushes bump `pushes_` so a sweeping consumer can tell a push that landed
  // mid-sweep from a drained queue.
  mutable std::mutex signal_mu_;
  uint64_t pushes_ = 0;
  bool closed_ = false;
  std::function<void()> push_listener_;  // Guarded by signal_mu_.
  size_t cursor_ = 0;  // Guarded by signal_mu_; rotates the sweep start.
  // Smooth-WRR credit per class; guarded by signal_mu_.
  std::array<int64_t, kNumPriorityClasses> credit_{};
};

}  // namespace apichecker::serve

#endif  // APICHECKER_SERVE_SUBMISSION_SHARDS_H_
