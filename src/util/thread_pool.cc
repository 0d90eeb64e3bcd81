#include "util/thread_pool.h"

#include <algorithm>
#include <cstdio>

#if defined(__linux__)
#include <pthread.h>
#endif

namespace apichecker::util {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this, i] {
#if defined(__linux__)
      // Named like the rt threads (rt-worker-N / rt-timer / rt-poller) so
      // TSan reports, perf profiles, and /proc/<pid>/task are attributable.
      char name[16];
      std::snprintf(name, sizeof(name), "pool-worker-%zu", i);
      (void)pthread_setname_np(pthread_self(), name);
#endif
      WorkerLoop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  task_available_.notify_all();
  for (auto& t : threads_) {
    t.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  task_available_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::ParallelFor(size_t begin, size_t end,
                             const std::function<void(size_t)>& body) {
  if (begin >= end) {
    return;
  }
  const size_t n = end - begin;
  const size_t chunks = std::min(n, threads_.size() * 4);
  const size_t chunk_size = (n + chunks - 1) / chunks;
  for (size_t c = 0; c < chunks; ++c) {
    const size_t lo = begin + c * chunk_size;
    const size_t hi = std::min(end, lo + chunk_size);
    if (lo >= hi) {
      break;
    }
    Submit([lo, hi, &body] {
      for (size_t i = lo; i < hi; ++i) {
        body(i);
      }
    });
  }
  Wait();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_available_.wait(lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // Shutting down and drained.
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--in_flight_ == 0) {
        all_done_.notify_all();
      }
    }
  }
}

}  // namespace apichecker::util
