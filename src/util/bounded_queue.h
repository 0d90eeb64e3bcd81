// Capacity-bounded, non-blocking FIFO MPMC queue with close semantics: the
// serving layer's admission-control primitive. TryPush gives producers a
// rejection path (backpressure instead of unbounded growth); Close() fails
// further pushes and lets consumers drain what is already queued. Nothing
// blocks on it: the consumer is event-driven (serve::SubmissionShards
// notifies a listener per push). Priority ordering lives above this queue
// (serve::SubmissionShards keeps one strict-FIFO lane per class).

#ifndef APICHECKER_UTIL_BOUNDED_QUEUE_H_
#define APICHECKER_UTIL_BOUNDED_QUEUE_H_

#include <algorithm>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace apichecker::util {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity) : capacity_(std::max<size_t>(1, capacity)) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  // Returns false when the queue is full or closed.
  bool TryPush(T value) {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_ || items_.size() >= capacity_) {
      return false;
    }
    items_.push_back(std::move(value));
    return true;
  }

  // Nullopt when the queue is empty (closed or not).
  std::optional<T> TryPop() {
    std::lock_guard<std::mutex> lock(mu_);
    if (items_.empty()) {
      return std::nullopt;
    }
    std::optional<T> value(std::move(items_.front()));
    items_.pop_front();
    return value;
  }

  // Idempotent. Further pushes fail; pops drain the remaining items.
  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

  size_t capacity() const { return capacity_; }

 private:
  mutable std::mutex mu_;
  std::deque<T> items_;
  const size_t capacity_;
  bool closed_ = false;
};

}  // namespace apichecker::util

#endif  // APICHECKER_UTIL_BOUNDED_QUEUE_H_
