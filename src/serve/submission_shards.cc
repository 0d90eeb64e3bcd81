#include "serve/submission_shards.h"

#include <algorithm>
#include <functional>
#include <numeric>

namespace apichecker::serve {

SubmissionShards::SubmissionShards(size_t num_shards, size_t per_shard_capacity,
                                   ClassWeights class_weights)
    : per_shard_capacity_(std::max<size_t>(1, per_shard_capacity)) {
  for (size_t c = 0; c < kNumPriorityClasses; ++c) {
    weights_[c] = std::max<uint32_t>(1, class_weights[c]);
    total_weight_ += weights_[c];
  }
  shards_.resize(std::max<size_t>(1, num_shards));
  for (Shard& shard : shards_) {
    for (auto& lane : shard) {
      lane = std::make_unique<util::BoundedQueue<PendingSubmission>>(
          per_shard_capacity_);
    }
  }
}

size_t SubmissionShards::ShardIndexFor(const PendingSubmission& pending) const {
  return std::hash<std::string>{}(pending.digest()) % shards_.size();
}

uint64_t SubmissionShards::total_pushes() const {
  std::lock_guard<std::mutex> lock(signal_mu_);
  return pushes_;
}

AdmissionOutcome SubmissionShards::TryPush(PendingSubmission pending) {
  {
    std::lock_guard<std::mutex> lock(signal_mu_);
    if (closed_) {
      return AdmissionOutcome::kClosed;
    }
  }
  const size_t shard = ShardIndexFor(pending);
  const size_t lane = static_cast<size_t>(pending.priority);
  if (!shards_[shard][lane]->TryPush(std::move(pending))) {
    return shards_[shard][lane]->closed() ? AdmissionOutcome::kClosed
                                          : AdmissionOutcome::kQueueFull;
  }
  std::function<void()> listener;
  {
    std::lock_guard<std::mutex> lock(signal_mu_);
    ++pushes_;
    listener = push_listener_;
  }
  if (listener) listener();
  return AdmissionOutcome::kAccepted;
}

void SubmissionShards::SetPushListener(std::function<void()> listener) {
  std::lock_guard<std::mutex> lock(signal_mu_);
  push_listener_ = std::move(listener);
}

std::optional<PendingSubmission> SubmissionShards::TryPopAny() {
  // Smooth weighted round-robin: every class accrues its weight, the classes
  // are swept richest-first (ties break toward the more urgent class), and
  // the class that yields a submission pays the total weight. An empty sweep
  // refunds the accrual so idle periods don't bank unbounded credit.
  size_t start;
  std::array<size_t, kNumPriorityClasses> order;
  {
    std::lock_guard<std::mutex> lock(signal_mu_);
    start = cursor_;
    cursor_ = (cursor_ + 1) % shards_.size();
    for (size_t c = 0; c < kNumPriorityClasses; ++c) {
      credit_[c] += weights_[c];
      order[c] = c;
    }
    std::stable_sort(order.begin(), order.end(), [this](size_t a, size_t b) {
      return credit_[a] > credit_[b];
    });
  }
  for (size_t lane : order) {
    for (size_t i = 0; i < shards_.size(); ++i) {
      if (auto pending = shards_[(start + i) % shards_.size()][lane]->TryPop()) {
        // Stamp the end of the shard-queue wait for latency attribution.
        pending->popped_at = Clock::now();
        std::lock_guard<std::mutex> lock(signal_mu_);
        credit_[lane] -= static_cast<int64_t>(total_weight_);
        return pending;
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(signal_mu_);
    for (size_t c = 0; c < kNumPriorityClasses; ++c) {
      credit_[c] -= weights_[c];
    }
  }
  return std::nullopt;
}

void SubmissionShards::Close() {
  std::function<void()> listener;
  {
    std::lock_guard<std::mutex> lock(signal_mu_);
    closed_ = true;
    listener = push_listener_;
  }
  for (Shard& shard : shards_) {
    for (auto& lane : shard) {
      lane->Close();
    }
  }
  // After the lanes are closed, so a listener-triggered sweep observes the
  // final state and can flush its partial batch immediately.
  if (listener) listener();
}

bool SubmissionShards::closed() const {
  std::lock_guard<std::mutex> lock(signal_mu_);
  return closed_;
}

size_t SubmissionShards::ApproxDepth() const {
  size_t depth = 0;
  for (const Shard& shard : shards_) {
    for (const auto& lane : shard) {
      depth += lane->size();
    }
  }
  return depth;
}

size_t SubmissionShards::ApproxDepthByClass(Priority priority) const {
  const size_t lane = static_cast<size_t>(priority);
  size_t depth = 0;
  for (const Shard& shard : shards_) {
    depth += shard[lane]->size();
  }
  return depth;
}

}  // namespace apichecker::serve
