// The unified async runtime: one executor for timers, I/O readiness, farm
// dispatch and the farm's per-app fan-out. Before this layer existed every
// subsystem owned threads ad-hoc — a scheduler loop, per-farm dispatchers,
// fabric monitor/heartbeat threads, one gateway thread per upload
// connection, a thread pool per device farm — so process thread count grew
// with connections and farms, not cores. rt::Runtime collapses them into:
//
//   - an Executor: N worker threads (~ hardware concurrency, floored so
//     blocking farm dispatch can never starve short tasks) with per-worker
//     work-stealing run queues behind Post() and ParallelFor(),
//   - a TimerWheel: one lazily-started timer thread with coalesced deadlines
//     and shared-state cancellation tokens behind PostAt()/PostAfter(),
//   - an IoPoller: one lazily-started epoll thread watching nonblocking (or
//     readiness-signalled blocking) fabric sockets behind PostFd().
//
// Timer and fd callbacks never run on the timer/poller threads — expiry and
// readiness both post the callback to the executor, so the wheel and the
// poller stay responsive no matter how slow a callback is. Strands layer
// serialized task queues on top of the executor for state machines (one per
// farm queue, one per gateway connection) that need mutual exclusion without
// a dedicated thread.
//
// Instrumented as apichecker_rt_*: task/steal counters, a run-queue depth
// gauge, timer lag, poll wakeups. Every thread is named via
// pthread_setname_np (rt-worker-N / rt-timer / rt-poller) so TSan reports,
// perf profiles, and /proc/<pid>/task are attributable.
//
// Shutdown contract (the teardown sequence ends here: gateway -> scheduler
// -> pool -> fabric -> store -> rt): pending timers and fd watches are
// cancelled (their callbacks never fire), then the workers drain every run
// queue — tasks already posted, including tasks posted by draining tasks,
// still run — and exit. Shutdown() is idempotent; Post() after it is a no-op.

#ifndef APICHECKER_RT_RUNTIME_H_
#define APICHECKER_RT_RUNTIME_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace apichecker::rt {

using Clock = std::chrono::steady_clock;
using Task = std::function<void()>;

// Names the calling thread (pthread_setname_np; truncated to the kernel's
// 15-character limit). Best-effort — naming failures are ignored.
void SetCurrentThreadName(const char* name);

// `Threads:` from /proc/self/status — the process's live thread count as the
// kernel sees it. Returns 0 when unavailable. The gateway samples this at
// accept time into apichecker_rt_process_threads_peak so the CI smoke can
// assert the count stays flat as upload-client count doubles.
size_t ProcessThreadCount();

// Samples ProcessThreadCount() into the peak gauge (monotonic max).
void NoteProcessThreadsPeak();

// Cancellation handle for PostAt/PostAfter/PostFd. Copyable; all copies
// share one fire-or-cancel cell, so Cancel() and expiry race exactly once.
class CancelToken {
 public:
  CancelToken() = default;

  // True when the callback had not fired (and now never will). False when it
  // already fired, is currently running, or the token is empty/cancelled.
  // For fd watches, a successful Cancel() also deregisters the fd from the
  // poller before returning: once Cancel() returns (true OR false), the
  // runtime will never touch the fd again, so the owner may close it.
  bool Cancel();

  // True when the callback has started (or finished) running.
  bool fired() const;

  bool valid() const { return cell_ != nullptr; }

 private:
  friend class Runtime;
  enum : int { kPending = 0, kFired = 1, kCancelled = 2 };
  explicit CancelToken(std::shared_ptr<std::atomic<int>> cell)
      : cell_(std::move(cell)) {}
  CancelToken(std::shared_ptr<std::atomic<int>> cell,
              std::function<void()> on_cancel)
      : cell_(std::move(cell)), on_cancel_(std::move(on_cancel)) {}
  std::shared_ptr<std::atomic<int>> cell_;
  // Runs after a winning Cancel() CAS; fd watches use it to deregister the
  // fd from epoll synchronously. Must not be invoked after the owning
  // Runtime is destroyed — the layering contract (owners cancel before the
  // runtime shuts down) guarantees that, and post-Shutdown the CAS can
  // never win anyway (Shutdown cancels every pending cell).
  std::function<void()> on_cancel_;
};

class Runtime;

// A serialized task queue on the executor: tasks posted to one strand run in
// FIFO order, never concurrently, on whichever worker is free — a state
// machine gets mutual exclusion without owning a thread. Destroying the
// shared_ptr with tasks still queued lets them finish (tasks hold the strand
// alive).
class Strand : public std::enable_shared_from_this<Strand> {
 public:
  void Post(Task task);

 private:
  friend class Runtime;
  explicit Strand(Runtime* rt) : rt_(rt) {}
  void RunSome();

  Runtime* rt_;
  std::mutex mu_;
  std::deque<Task> queue_;
  bool active_ = false;
};

struct RuntimeOptions {
  // Executor worker threads; 0 selects max(2, hardware_concurrency()).
  // Callers whose tasks hold a worker for long stretches (a remote farm's
  // dispatch waits out its RPC; a local farm's works through its batch as
  // a ParallelFor caller) must size this past that count — the service uses
  // max(hardware_concurrency, num_farms * 2 + 4).
  size_t workers = 0;
};

class Runtime {
 public:
  explicit Runtime(RuntimeOptions options = {});
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // Runs `task` on some executor worker. No-op after Shutdown().
  void Post(Task task);

  // Runs body(i) for every i in [0, n), each exactly once, and returns only
  // after all of them have finished. The caller claims indices from the same
  // shared counter as the helper tasks it posts — at most min(n - 1,
  // workers() - 1) from one of this runtime's workers, min(n - 1, workers())
  // from any other thread — so it never waits on a helper that has not
  // started, and the call completes from inside a task, on a one-worker
  // runtime, with every worker inside its own call, and after Shutdown()
  // (Post drops the helpers; the caller runs everything). A helper that
  // starts after the last index was claimed touches only reference-counted
  // state, never the caller's frame. `body` must be safe to call
  // concurrently for distinct i, and must not throw.
  void ParallelFor(size_t n, const std::function<void(size_t)>& body);

  // Runs `task` on the executor at/after `when`. Deadlines that land in the
  // same wheel sweep are coalesced into one wakeup and fire in deadline
  // order. The returned token cancels a not-yet-fired timer.
  CancelToken PostAt(Clock::time_point when, Task task);
  CancelToken PostAfter(std::chrono::milliseconds delay, Task task);

  // One-shot read-readiness watch: when `fd` becomes readable (or hits
  // EOF/error — the callback cannot tell; it must read to find out), `task`
  // runs on the executor. At most one active watch per fd; re-arm by calling
  // PostFd again from the callback. Cancel() prevents an unfired callback.
  CancelToken PostFd(int fd, Task task);

  std::shared_ptr<Strand> MakeStrand();

  // Cancels pending timers and watches, drains the run queues, joins every
  // thread. Idempotent; safe to call with tasks still posting tasks.
  void Shutdown();

  size_t workers() const { return workers_.size(); }

 private:
  friend class Strand;
  struct Worker;
  struct TimerEntry;

  void WorkerLoop(size_t index);
  bool TryRunOne(size_t index);
  void TimerLoop();
  void PollerLoop();
  void EnsureTimerThreadLocked();
  void EnsurePollerThreadLocked();
  void ReapCancelledFdWatch(int fd,
                            const std::shared_ptr<std::atomic<int>>& cell);
  void NotifyWorkers();

  // -- executor --
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> worker_threads_;
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  std::atomic<bool> stopping_{false};
  std::atomic<size_t> next_queue_{0};
  std::atomic<int64_t> pending_{0};

  // -- timer wheel --
  std::mutex timer_mu_;
  std::condition_variable timer_cv_;
  std::thread timer_thread_;
  bool timer_started_ = false;
  uint64_t timer_seq_ = 0;
  std::vector<TimerEntry> timer_heap_;

  // -- io poller --
  std::mutex poll_mu_;
  std::thread poll_thread_;
  bool poll_started_ = false;
  int epoll_fd_ = -1;
  int wake_event_fd_ = -1;
  struct FdWatch {
    Task task;
    std::shared_ptr<std::atomic<int>> cell;
  };
  // fd -> watch; at most one per fd by contract.
  std::vector<std::pair<int, FdWatch>> watches_;

  std::once_flag shutdown_once_;
};

}  // namespace apichecker::rt

#endif  // APICHECKER_RT_RUNTIME_H_
