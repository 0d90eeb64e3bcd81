// Fixed-size thread pool used by the emulator device farm (§5.1 runs 16
// emulators on 16 cores) and by parallelizable ML training loops. Tasks are
// void() closures; ParallelFor partitions an index range into contiguous
// chunks so results can be written to pre-sized output slots without locking.

#ifndef APICHECKER_UTIL_THREAD_POOL_H_
#define APICHECKER_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace apichecker::util {

class ThreadPool {
 public:
  // num_threads == 0 selects hardware_concurrency() (minimum 1).
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues a task for asynchronous execution.
  void Submit(std::function<void()> task);

  // Blocks until every submitted task has finished.
  void Wait();

  // Runs body(i) for i in [begin, end), split across the pool, and blocks
  // until done. body must be safe to call concurrently for distinct i.
  void ParallelFor(size_t begin, size_t end, const std::function<void(size_t)>& body);

  size_t num_threads() const { return threads_.size(); }

 private:
  void WorkerLoop();

  std::vector<std::thread> threads_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable task_available_;
  std::condition_variable all_done_;
  size_t in_flight_ = 0;
  bool shutting_down_ = false;
};

}  // namespace apichecker::util

#endif  // APICHECKER_UTIL_THREAD_POOL_H_
