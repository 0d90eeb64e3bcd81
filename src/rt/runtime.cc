#include "rt/runtime.h"

#include <pthread.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>

#include "obs/metrics.h"
#include "obs/names.h"

namespace apichecker::rt {
namespace {

// Worker threads mark themselves so Post() from inside a task lands on the
// poster's own run queue (locality) instead of the round-robin spray. The
// timer and poller threads set tls_runtime too, which exempts their posts
// from the shutdown drop, but they are no worker: they keep kNoWorker and
// post round-robin like any outside thread.
constexpr size_t kNoWorker = SIZE_MAX;
thread_local Runtime* tls_runtime = nullptr;
thread_local size_t tls_worker = kNoWorker;

bool OnWorkerOf(const Runtime* rt) {
  return tls_runtime == rt && tls_worker != kNoWorker;
}

obs::Counter& TasksTotal() {
  static obs::Counter& c =
      obs::MetricsRegistry::Default().counter(obs::names::kRtTasksTotal);
  return c;
}
obs::Counter& StealsTotal() {
  static obs::Counter& c =
      obs::MetricsRegistry::Default().counter(obs::names::kRtStealsTotal);
  return c;
}
obs::Gauge& QueueDepth() {
  static obs::Gauge& g =
      obs::MetricsRegistry::Default().gauge(obs::names::kRtQueueDepth);
  return g;
}
obs::Counter& TimersScheduled() {
  static obs::Counter& c = obs::MetricsRegistry::Default().counter(
      obs::names::kRtTimersScheduledTotal);
  return c;
}
obs::Counter& TimersCancelled() {
  static obs::Counter& c = obs::MetricsRegistry::Default().counter(
      obs::names::kRtTimersCancelledTotal);
  return c;
}
obs::Histogram& TimerLagMs() {
  static obs::Histogram& h =
      obs::MetricsRegistry::Default().histogram(obs::names::kRtTimerLagMs);
  return h;
}
obs::Counter& PollWakeups() {
  static obs::Counter& c =
      obs::MetricsRegistry::Default().counter(obs::names::kRtPollWakeupsTotal);
  return c;
}
obs::Counter& FdWatches() {
  static obs::Counter& c =
      obs::MetricsRegistry::Default().counter(obs::names::kRtFdWatchesTotal);
  return c;
}

// One ParallelFor call, shared by the caller and its helpers. Helpers hold it
// by shared_ptr: one that starts after the caller returned finds `next` past
// `n` and leaves without touching `body`, which lives in the caller's frame.
struct ParallelForState {
  ParallelForState(size_t n, const std::function<void(size_t)>& body)
      : n(n), body(&body) {}

  const size_t n;
  const std::function<void(size_t)>* const body;
  std::atomic<size_t> next{0};
  std::mutex mu;
  size_t done = 0;  // Guarded by mu.
  std::condition_variable all_done;
};

// Claims and runs indices until none are left. noexcept: a body exception
// unwinding the caller would leave helpers running against its dead frame.
void RunClaimedIndices(ParallelForState& state) noexcept {
  size_t ran = 0;
  for (size_t i = state.next.fetch_add(1); i < state.n;
       i = state.next.fetch_add(1)) {
    (*state.body)(i);
    ++ran;
  }
  if (ran == 0) return;
  std::lock_guard<std::mutex> lock(state.mu);
  state.done += ran;
  if (state.done == state.n) state.all_done.notify_all();
}

}  // namespace

void SetCurrentThreadName(const char* name) {
  char truncated[16];
  std::snprintf(truncated, sizeof(truncated), "%s", name);
  (void)pthread_setname_np(pthread_self(), truncated);
}

size_t ProcessThreadCount() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  size_t threads = 0;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "Threads:", 8) == 0) {
      threads = static_cast<size_t>(std::strtoul(line + 8, nullptr, 10));
      break;
    }
  }
  std::fclose(f);
  return threads;
}

void NoteProcessThreadsPeak() {
  const size_t count = ProcessThreadCount();
  if (count == 0) return;
  obs::Gauge& peak = obs::MetricsRegistry::Default().gauge(
      obs::names::kRtProcessThreadsPeak);
  // Racy max is fine: the gauge is a monotonic high-water mark and samples
  // only ever push it up.
  if (static_cast<double>(count) > peak.value()) {
    peak.Set(static_cast<double>(count));
  }
}

bool CancelToken::Cancel() {
  if (cell_ == nullptr) return false;
  int expected = kPending;
  if (cell_->compare_exchange_strong(expected, kCancelled)) {
    TimersCancelled().Increment();
    if (on_cancel_) on_cancel_();
    return true;
  }
  return false;
}

bool CancelToken::fired() const {
  return cell_ != nullptr && cell_->load() == kFired;
}

// ---------------------------------------------------------------------------
// Strand

void Strand::Post(Task task) {
  bool schedule = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    if (!active_) {
      active_ = true;
      schedule = true;
    }
  }
  if (schedule) {
    auto self = shared_from_this();
    rt_->Post([self] { self->RunSome(); });
  }
}

void Strand::RunSome() {
  // Run a bounded burst, then yield the worker: one chatty strand must not
  // monopolize the executor.
  constexpr int kBurst = 16;
  for (int i = 0; i < kBurst; ++i) {
    Task task;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (queue_.empty()) {
        active_ = false;
        return;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.empty()) {
      active_ = false;
      return;
    }
  }
  auto self = shared_from_this();
  rt_->Post([self] { self->RunSome(); });
}

// ---------------------------------------------------------------------------
// Executor

struct Runtime::Worker {
  std::mutex mu;
  std::deque<Task> queue;
};

struct Runtime::TimerEntry {
  Clock::time_point when;
  uint64_t seq = 0;
  std::shared_ptr<std::atomic<int>> cell;
  std::shared_ptr<Task> task;

  // Min-heap on (when, seq): std::*_heap build max-heaps, so compare greater.
  bool operator<(const TimerEntry& other) const {
    if (when != other.when) return when > other.when;
    return seq > other.seq;
  }
};

Runtime::Runtime(RuntimeOptions options) {
  size_t workers = options.workers;
  if (workers == 0) {
    workers = std::max<size_t>(2, std::thread::hardware_concurrency());
  }
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  worker_threads_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    worker_threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

Runtime::~Runtime() { Shutdown(); }

void Runtime::Post(Task task) {
  if (task == nullptr) return;
  if (stopping_.load(std::memory_order_acquire) &&
      tls_runtime != this) {
    // After Shutdown() began, only draining tasks (which run on our own
    // workers) may still enqueue; outside posts are dropped.
    return;
  }
  size_t target;
  if (OnWorkerOf(this)) {
    target = tls_worker;
  } else {
    target = next_queue_.fetch_add(1, std::memory_order_relaxed) %
             workers_.size();
  }
  pending_.fetch_add(1, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(workers_[target]->mu);
    workers_[target]->queue.push_back(std::move(task));
  }
  QueueDepth().Set(static_cast<double>(pending_.load(std::memory_order_relaxed)));
  wake_cv_.notify_one();
}

void Runtime::ParallelFor(size_t n, const std::function<void(size_t)>& body) {
  // From one of our workers the caller is itself a worker, so one fewer
  // helper keeps the call at one participant per worker.
  const size_t spare = workers_.size() - (OnWorkerOf(this) ? 1 : 0);
  const size_t helpers = std::min(n == 0 ? 0 : n - 1, spare);
  auto state = std::make_shared<ParallelForState>(n, body);
  for (size_t h = 0; h < helpers; ++h) {
    Post([state] { RunClaimedIndices(*state); });
  }
  RunClaimedIndices(*state);
  std::unique_lock<std::mutex> lock(state->mu);
  state->all_done.wait(lock, [&state] { return state->done == state->n; });
}

bool Runtime::TryRunOne(size_t index) {
  Task task;
  {
    std::lock_guard<std::mutex> lock(workers_[index]->mu);
    if (!workers_[index]->queue.empty()) {
      task = std::move(workers_[index]->queue.front());
      workers_[index]->queue.pop_front();
    }
  }
  if (task == nullptr) {
    // Steal from the back of a victim's queue (the coldest task) so the
    // owner keeps cache-warm work at the front.
    for (size_t step = 1; step < workers_.size() && task == nullptr; ++step) {
      const size_t victim = (index + step) % workers_.size();
      std::lock_guard<std::mutex> lock(workers_[victim]->mu);
      if (!workers_[victim]->queue.empty()) {
        task = std::move(workers_[victim]->queue.back());
        workers_[victim]->queue.pop_back();
        StealsTotal().Increment();
      }
    }
    if (task == nullptr) return false;
  }
  pending_.fetch_sub(1, std::memory_order_relaxed);
  QueueDepth().Set(static_cast<double>(pending_.load(std::memory_order_relaxed)));
  TasksTotal().Increment();
  task();
  return true;
}

void Runtime::WorkerLoop(size_t index) {
  char name[16];
  std::snprintf(name, sizeof(name), "rt-worker-%zu", index);
  SetCurrentThreadName(name);
  tls_runtime = this;
  tls_worker = index;
  for (;;) {
    if (TryRunOne(index)) continue;
    std::unique_lock<std::mutex> lock(wake_mu_);
    if (stopping_.load(std::memory_order_acquire) &&
        pending_.load(std::memory_order_acquire) == 0) {
      break;
    }
    // Bounded wait: a task can land between the failed TryRunOne and this
    // wait, and its notify may race past us — the timeout bounds the miss.
    wake_cv_.wait_for(lock, std::chrono::milliseconds(50), [this] {
      return stopping_.load(std::memory_order_acquire) ||
             pending_.load(std::memory_order_acquire) > 0;
    });
  }
  tls_runtime = nullptr;
  tls_worker = kNoWorker;
}

void Runtime::NotifyWorkers() { wake_cv_.notify_all(); }

// ---------------------------------------------------------------------------
// Timer wheel

CancelToken Runtime::PostAt(Clock::time_point when, Task task) {
  if (task == nullptr || stopping_.load(std::memory_order_acquire)) {
    return CancelToken();
  }
  auto cell = std::make_shared<std::atomic<int>>(CancelToken::kPending);
  {
    std::lock_guard<std::mutex> lock(timer_mu_);
    EnsureTimerThreadLocked();
    TimerEntry entry;
    entry.when = when;
    entry.seq = ++timer_seq_;
    entry.cell = cell;
    entry.task = std::make_shared<Task>(std::move(task));
    timer_heap_.push_back(std::move(entry));
    std::push_heap(timer_heap_.begin(), timer_heap_.end());
  }
  TimersScheduled().Increment();
  timer_cv_.notify_one();
  return CancelToken(std::move(cell));
}

CancelToken Runtime::PostAfter(std::chrono::milliseconds delay, Task task) {
  return PostAt(Clock::now() + delay, std::move(task));
}

void Runtime::EnsureTimerThreadLocked() {
  if (timer_started_) return;
  timer_started_ = true;
  timer_thread_ = std::thread([this] { TimerLoop(); });
}

void Runtime::TimerLoop() {
  SetCurrentThreadName("rt-timer");
  // Mark as internal: dispatches from the wheel may Post during a shutdown
  // drain (the wheel is joined before the workers, so the task still runs).
  tls_runtime = this;
  std::unique_lock<std::mutex> lock(timer_mu_);
  while (!stopping_.load(std::memory_order_acquire)) {
    if (timer_heap_.empty()) {
      timer_cv_.wait(lock);
      continue;
    }
    const Clock::time_point next = timer_heap_.front().when;
    const Clock::time_point now = Clock::now();
    if (now < next) {
      timer_cv_.wait_until(lock, next);
      continue;
    }
    // Coalesced sweep: every deadline at or before `now` fires in this one
    // wakeup, popped in (deadline, post-order) order.
    std::vector<TimerEntry> due;
    while (!timer_heap_.empty() && timer_heap_.front().when <= now) {
      std::pop_heap(timer_heap_.begin(), timer_heap_.end());
      due.push_back(std::move(timer_heap_.back()));
      timer_heap_.pop_back();
    }
    lock.unlock();
    for (TimerEntry& entry : due) {
      int expected = CancelToken::kPending;
      if (!entry.cell->compare_exchange_strong(expected, CancelToken::kFired)) {
        continue;  // Cancelled while queued.
      }
      TimerLagMs().Observe(
          std::chrono::duration<double, std::milli>(now - entry.when).count());
      Post(std::move(*entry.task));
    }
    lock.lock();
  }
}

// ---------------------------------------------------------------------------
// Io poller

CancelToken Runtime::PostFd(int fd, Task task) {
  if (task == nullptr || fd < 0 || stopping_.load(std::memory_order_acquire)) {
    return CancelToken();
  }
  auto cell = std::make_shared<std::atomic<int>>(CancelToken::kPending);
  {
    std::lock_guard<std::mutex> lock(poll_mu_);
    EnsurePollerThreadLocked();
    if (epoll_fd_ < 0) return CancelToken();
    struct epoll_event event;
    std::memset(&event, 0, sizeof(event));
    event.events = EPOLLIN | EPOLLRDHUP | EPOLLONESHOT;
    event.data.fd = fd;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event) != 0) {
      if (errno == EEXIST) {
        // Contract violation: one active watch per fd.
        return CancelToken();
      }
      // Not pollable (regular file, etc.): it is always "ready" — run now.
      cell->store(CancelToken::kFired);
      Post(std::move(task));
      return CancelToken(std::move(cell));
    }
    FdWatch watch;
    watch.task = std::move(task);
    watch.cell = cell;
    watches_.emplace_back(fd, std::move(watch));
  }
  FdWatches().Increment();
  // The on-cancel hook deregisters the fd synchronously, so a successful
  // Cancel() lets the owner close the fd without racing the poller (and
  // without a stale EPOLL_CTL_DEL landing on a reused fd number later).
  return CancelToken(cell,
                     [this, fd, cell] { ReapCancelledFdWatch(fd, cell); });
}

void Runtime::ReapCancelledFdWatch(
    int fd, const std::shared_ptr<std::atomic<int>>& cell) {
  std::lock_guard<std::mutex> lock(poll_mu_);
  for (auto it = watches_.begin(); it != watches_.end(); ++it) {
    if (it->first == fd && it->second.cell == cell) {
      watches_.erase(it);
      if (epoll_fd_ >= 0) {
        epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
      }
      return;
    }
  }
  // Not found: the poller already took (and deregistered) this watch inside
  // its own poll_mu_ critical section, which completed before we acquired
  // the lock — the fd is guaranteed out of the epoll set either way.
}

void Runtime::EnsurePollerThreadLocked() {
  if (poll_started_) return;
  poll_started_ = true;
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  wake_event_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (epoll_fd_ >= 0 && wake_event_fd_ >= 0) {
    struct epoll_event event;
    std::memset(&event, 0, sizeof(event));
    event.events = EPOLLIN;
    event.data.fd = wake_event_fd_;
    epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_event_fd_, &event);
  }
  poll_thread_ = std::thread([this] { PollerLoop(); });
}

void Runtime::PollerLoop() {
  SetCurrentThreadName("rt-poller");
  tls_runtime = this;  // Same drain guarantee as the timer thread.
  if (epoll_fd_ < 0) return;
  constexpr int kMaxEvents = 64;
  struct epoll_event events[kMaxEvents];
  while (!stopping_.load(std::memory_order_acquire)) {
    const int n = epoll_wait(epoll_fd_, events, kMaxEvents, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    PollWakeups().Increment();
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_event_fd_) {
        uint64_t drained = 0;
        while (read(wake_event_fd_, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      FdWatch watch;
      bool found = false;
      {
        std::lock_guard<std::mutex> lock(poll_mu_);
        for (auto it = watches_.begin(); it != watches_.end(); ++it) {
          if (it->first == fd) {
            watch = std::move(it->second);
            watches_.erase(it);
            found = true;
            break;
          }
        }
        // DEL only when this loop owned the removal: an absent entry means a
        // racing Cancel() already deregistered the fd, and a blind DEL here
        // could hit a reused fd number carrying a fresh watch.
        if (found) {
          epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
        }
      }
      if (!found) continue;
      int expected = CancelToken::kPending;
      if (watch.cell->compare_exchange_strong(expected, CancelToken::kFired)) {
        Post(std::move(watch.task));
      }
    }
  }
}

std::shared_ptr<Strand> Runtime::MakeStrand() {
  return std::shared_ptr<Strand>(new Strand(this));
}

// ---------------------------------------------------------------------------
// Shutdown: timers and watches die first (their callbacks must not land on a
// drained executor), then the workers drain every run queue and exit.

void Runtime::Shutdown() {
  std::call_once(shutdown_once_, [this] {
    stopping_.store(true, std::memory_order_release);

    // Timer wheel: cancel everything pending, wake, join.
    {
      std::lock_guard<std::mutex> lock(timer_mu_);
      for (TimerEntry& entry : timer_heap_) {
        int expected = CancelToken::kPending;
        entry.cell->compare_exchange_strong(expected, CancelToken::kCancelled);
      }
      timer_heap_.clear();
    }
    timer_cv_.notify_all();
    if (timer_thread_.joinable()) timer_thread_.join();

    // Poller: cancel watches, wake via the eventfd, join, close.
    {
      std::lock_guard<std::mutex> lock(poll_mu_);
      for (auto& [fd, watch] : watches_) {
        int expected = CancelToken::kPending;
        watch.cell->compare_exchange_strong(expected, CancelToken::kCancelled);
      }
      watches_.clear();
      if (wake_event_fd_ >= 0) {
        const uint64_t one = 1;
        (void)!write(wake_event_fd_, &one, sizeof(one));
      }
    }
    if (poll_thread_.joinable()) poll_thread_.join();
    {
      std::lock_guard<std::mutex> lock(poll_mu_);
      if (epoll_fd_ >= 0) close(epoll_fd_);
      if (wake_event_fd_ >= 0) close(wake_event_fd_);
      epoll_fd_ = -1;
      wake_event_fd_ = -1;
    }

    // Executor: workers exit once every queue is drained; tasks posted by
    // draining tasks still run.
    NotifyWorkers();
    for (std::thread& thread : worker_threads_) {
      if (thread.joinable()) thread.join();
    }
  });
}

}  // namespace apichecker::rt
