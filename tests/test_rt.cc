// Tests for src/rt: the unified async runtime. The timer edge cases here are
// the contract the migrated layers lean on — zero-delay posts (the scheduler
// pump), cancel-after-fire races (gateway deadline timers vs completed
// uploads), coalesced deadlines firing in order (EDF linger flushes), timers
// posted from within timer callbacks (heartbeat ticks rescheduling
// themselves), and executor drain with timers still pending (service
// teardown). The ParallelFor tests pin its contract: each index once, the
// call returns after all of them, the caller works alongside its helpers so
// it completes when none ever start, and a late helper touches nothing of
// its caller's. Timer- and fd-fired tasks spread over every worker's run
// queue. RtSoak carries the stress label for the TSan tier.

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <unistd.h>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/names.h"
#include "rt/runtime.h"

namespace apichecker::rt {
namespace {

using std::chrono::milliseconds;

bool WaitFor(const std::function<bool()>& predicate,
             milliseconds timeout = milliseconds(5'000)) {
  const Clock::time_point give_up = Clock::now() + timeout;
  while (Clock::now() < give_up) {
    if (predicate()) return true;
    std::this_thread::sleep_for(milliseconds(1));
  }
  return predicate();
}

TEST(Runtime, PostRunsTasksOnWorkers) {
  Runtime rt(RuntimeOptions{.workers = 4});
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    rt.Post([&ran] { ran.fetch_add(1); });
  }
  EXPECT_TRUE(WaitFor([&] { return ran.load() == 100; }));
}

TEST(Runtime, ZeroDelayTimerFiresPromptly) {
  Runtime rt(RuntimeOptions{.workers = 2});
  std::promise<void> fired;
  auto done = fired.get_future();
  const Clock::time_point posted = Clock::now();
  rt.PostAfter(milliseconds(0), [&fired] { fired.set_value(); });
  ASSERT_EQ(done.wait_for(std::chrono::seconds(5)), std::future_status::ready);
  // "Promptly" for a zero-delay post: well under the coarsest linger the
  // scheduler ever configures.
  EXPECT_LT(Clock::now() - posted, std::chrono::seconds(2));
}

TEST(Runtime, CancelBeforeFireSuppressesTheCallback) {
  Runtime rt(RuntimeOptions{.workers = 2});
  std::atomic<bool> ran{false};
  CancelToken token =
      rt.PostAfter(milliseconds(200), [&ran] { ran.store(true); });
  EXPECT_TRUE(token.Cancel());
  std::this_thread::sleep_for(milliseconds(350));
  EXPECT_FALSE(ran.load());
  EXPECT_FALSE(token.fired());
}

TEST(Runtime, CancelAfterFireRaceLosesExactlyOnce) {
  // A timer and its cancellation race: whichever CAS wins, the outcome is
  // coherent — Cancel() true means the callback never runs, Cancel() false
  // after the deadline means it ran (or is running).
  Runtime rt(RuntimeOptions{.workers = 2});
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> ran{0};
    CancelToken token =
        rt.PostAfter(milliseconds(1), [&ran] { ran.fetch_add(1); });
    std::this_thread::sleep_for(milliseconds(round % 3));
    const bool cancelled = token.Cancel();
    // Let any in-flight fire land before asserting.
    ASSERT_TRUE(WaitFor([&] { return cancelled || ran.load() == 1; }));
    EXPECT_EQ(ran.load(), cancelled ? 0 : 1);
    EXPECT_NE(cancelled, token.fired());
  }
}

TEST(Runtime, CoalescedDeadlinesFireInDeadlineOrder) {
  Runtime rt(RuntimeOptions{.workers = 1});
  std::mutex mu;
  std::vector<int> order;
  std::atomic<int> fired{0};
  // All five deadlines land inside one sweep window; post them shuffled.
  const Clock::time_point base = Clock::now() + milliseconds(50);
  const int shuffled[] = {3, 0, 4, 1, 2};
  for (int i : shuffled) {
    rt.PostAt(base + milliseconds(i), [&, i] {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(i);
      fired.fetch_add(1);
    });
  }
  ASSERT_TRUE(WaitFor([&] { return fired.load() == 5; }));
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Runtime, TimerPostedFromWithinATimerCallback) {
  // The heartbeat-tick shape: a timer callback arms the next tick.
  Runtime rt(RuntimeOptions{.workers = 2});
  std::atomic<int> ticks{0};
  std::function<void()> tick = [&] {
    if (ticks.fetch_add(1) + 1 < 5) {
      rt.PostAfter(milliseconds(5), tick);
    }
  };
  rt.PostAfter(milliseconds(5), tick);
  EXPECT_TRUE(WaitFor([&] { return ticks.load() == 5; }));
}

TEST(Runtime, ShutdownDrainsPostedTasksAndCancelsPendingTimers) {
  std::atomic<int> ran{0};
  std::atomic<bool> late_timer_ran{false};
  {
    Runtime rt(RuntimeOptions{.workers = 2});
    for (int i = 0; i < 64; ++i) {
      // Draining tasks may themselves post: both halves must run.
      rt.Post([&ran, &rt] {
        rt.Post([&ran] { ran.fetch_add(1); });
        ran.fetch_add(1);
      });
    }
    rt.PostAfter(std::chrono::hours(1),
                 [&late_timer_ran] { late_timer_ran.store(true); });
    rt.Shutdown();
    // Idempotent: a second (and third) shutdown is a no-op.
    rt.Shutdown();
    rt.Shutdown();
  }
  EXPECT_EQ(ran.load(), 128);
  EXPECT_FALSE(late_timer_ran.load());
}

TEST(Runtime, PostAfterShutdownIsDropped) {
  Runtime rt(RuntimeOptions{.workers = 2});
  rt.Shutdown();
  std::atomic<bool> ran{false};
  rt.Post([&ran] { ran.store(true); });
  CancelToken token = rt.PostAfter(milliseconds(1), [&ran] { ran.store(true); });
  EXPECT_FALSE(token.valid());
  std::this_thread::sleep_for(milliseconds(50));
  EXPECT_FALSE(ran.load());
}

TEST(Runtime, StrandSerializesButInterleavesAcrossStrands) {
  Runtime rt(RuntimeOptions{.workers = 4});
  auto a = rt.MakeStrand();
  auto b = rt.MakeStrand();
  std::atomic<int> in_a{0};
  std::atomic<int> max_in_a{0};
  std::atomic<int> total{0};
  for (int i = 0; i < 200; ++i) {
    a->Post([&] {
      const int now = in_a.fetch_add(1) + 1;
      int seen = max_in_a.load();
      while (now > seen && !max_in_a.compare_exchange_weak(seen, now)) {
      }
      std::this_thread::yield();
      in_a.fetch_sub(1);
      total.fetch_add(1);
    });
    b->Post([&] { total.fetch_add(1); });
  }
  EXPECT_TRUE(WaitFor([&] { return total.load() == 400; }));
  EXPECT_EQ(max_in_a.load(), 1);  // Never two tasks of one strand at once.
}

TEST(Runtime, StrandPreservesFifoOrder) {
  Runtime rt(RuntimeOptions{.workers = 4});
  auto strand = rt.MakeStrand();
  std::vector<int> order;
  std::atomic<int> done{0};
  for (int i = 0; i < 500; ++i) {
    strand->Post([&, i] {
      order.push_back(i);  // Serialized by the strand: no lock needed.
      done.fetch_add(1);
    });
  }
  ASSERT_TRUE(WaitFor([&] { return done.load() == 500; }));
  for (int i = 0; i < 500; ++i) EXPECT_EQ(order[i], i);
}

TEST(Runtime, PostFdFiresOnReadableAndSupportsRearm) {
  Runtime rt(RuntimeOptions{.workers = 2});
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  std::atomic<int> readable_events{0};
  std::function<void()> on_readable = [&] {
    char buffer[16];
    (void)!read(fds[0], buffer, sizeof(buffer));
    if (readable_events.fetch_add(1) + 1 < 3) {
      rt.PostFd(fds[0], on_readable);  // Re-arm from the callback.
    }
  };
  rt.PostFd(fds[0], on_readable);
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(write(fds[1], "x", 1), 1);
    ASSERT_TRUE(WaitFor([&] { return readable_events.load() == i + 1; }));
  }
  close(fds[0]);
  close(fds[1]);
}

TEST(Runtime, CancelledFdWatchNeverFires) {
  Runtime rt(RuntimeOptions{.workers = 2});
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  std::atomic<bool> fired{false};
  CancelToken token = rt.PostFd(fds[0], [&fired] { fired.store(true); });
  EXPECT_TRUE(token.Cancel());
  ASSERT_EQ(write(fds[1], "x", 1), 1);
  std::this_thread::sleep_for(milliseconds(100));
  EXPECT_FALSE(fired.load());
  close(fds[0]);
  close(fds[1]);
}

TEST(Runtime, WorkStealingKeepsAllWorkersBusy) {
  // Post a burst from one external thread (all tasks land round-robin, but
  // long tasks pile on some queues): stealing must still run everything.
  Runtime rt(RuntimeOptions{.workers = 4});
  std::atomic<int> ran{0};
  for (int i = 0; i < 64; ++i) {
    rt.Post([&ran, i] {
      if (i % 8 == 0) std::this_thread::sleep_for(milliseconds(20));
      ran.fetch_add(1);
    });
  }
  EXPECT_TRUE(WaitFor([&] { return ran.load() == 64; }));
}

// Waits for `done`. On a timeout the runtime is leaked instead of joined, so
// a deadlocked ParallelFor fails the test rather than hanging it.
bool Completes(std::future<void>& done, std::unique_ptr<Runtime>& rt) {
  if (done.wait_for(std::chrono::seconds(10)) == std::future_status::ready) {
    return true;
  }
  (void)rt.release();
  return false;
}

TEST(Runtime, ParallelForRunsEachIndexOnce) {
  Runtime rt(RuntimeOptions{.workers = 4});
  std::vector<std::atomic<int>> hits(1000);
  std::atomic<size_t> finished{0};
  rt.ParallelFor(hits.size(), [&](size_t i) {
    // A few slow indices: the call must still wait for every one of them.
    if (i % 250 == 0) std::this_thread::sleep_for(milliseconds(20));
    hits[i].fetch_add(1);
    finished.fetch_add(1);
  });
  EXPECT_EQ(finished.load(), hits.size());
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
  rt.ParallelFor(0, [](size_t) { ADD_FAILURE() << "n == 0 runs no body"; });
}

TEST(Runtime, ParallelForPostsNoMoreHelpersThanIndicesOrSpareWorkers) {
  obs::Counter& tasks =
      obs::MetricsRegistry::Default().counter(obs::names::kRtTasksTotal);
  // Tasks a call leaves behind on a fresh runtime; Shutdown() drains any
  // helper still queued, so each posted task is counted exactly once.
  auto tasks_run = [&tasks](size_t workers,
                            const std::function<void(Runtime&)>& call) {
    Runtime rt(RuntimeOptions{.workers = workers});
    const uint64_t before = tasks.value();
    call(rt);
    rt.Shutdown();
    return tasks.value() - before;
  };
  const auto noop = [](size_t) {};
  // From outside the runtime: min(n - 1, workers) helpers.
  EXPECT_EQ(tasks_run(8, [&](Runtime& rt) { rt.ParallelFor(3, noop); }), 2u);
  EXPECT_EQ(tasks_run(2, [&](Runtime& rt) { rt.ParallelFor(100, noop); }), 2u);
  EXPECT_EQ(tasks_run(8, [&](Runtime& rt) { rt.ParallelFor(1, noop); }), 0u);
  // From a worker: the posting task plus min(n - 1, workers - 1) helpers.
  EXPECT_EQ(tasks_run(4, [&](Runtime& rt) {
              std::promise<void> finished;
              std::future<void> done = finished.get_future();
              rt.Post([&] {
                rt.ParallelFor(100, noop);
                finished.set_value();
              });
              done.wait();
            }),
            1u + 3u);
}

TEST(Runtime, ParallelForCompletesNestedOnAOneWorkerRuntime) {
  auto rt = std::make_unique<Runtime>(RuntimeOptions{.workers = 1});
  std::vector<std::atomic<int>> hits(2 * 8 * 8);
  auto nested = [&](size_t base) {
    rt->ParallelFor(8, [&, base](size_t outer) {
      rt->ParallelFor(8, [&, base, outer](size_t inner) {
        hits[base + outer * 8 + inner].fetch_add(1);
      });
    });
  };
  // From inside a task (the one worker posts no helper), then from the test
  // thread (its helpers land on the worker, which is busy in the outer call).
  std::promise<void> finished;
  std::future<void> done = finished.get_future();
  rt->Post([&] {
    nested(0);
    finished.set_value();
  });
  ASSERT_TRUE(Completes(done, rt));
  nested(64);
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(Runtime, ParallelForCompletesWithEveryWorkerInsideItsOwnCall) {
  auto rt = std::make_unique<Runtime>(RuntimeOptions{.workers = 2});
  std::atomic<int> inside{0};
  std::atomic<int> ran{0};
  std::promise<void> finished[2];
  for (std::promise<void>& promise : finished) {
    rt->Post([&] {
      // Neither task calls until both workers hold one, so neither call can
      // count on the other worker to run its helper.
      inside.fetch_add(1);
      while (inside.load() < 2) std::this_thread::yield();
      rt->ParallelFor(64, [&](size_t) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        ran.fetch_add(1);
      });
      promise.set_value();
    });
  }
  for (std::promise<void>& promise : finished) {
    std::future<void> done = promise.get_future();
    ASSERT_TRUE(Completes(done, rt));
  }
  EXPECT_EQ(ran.load(), 128);
}

TEST(Runtime, ParallelForAfterShutdownRunsEveryIndexOnTheCaller) {
  Runtime rt(RuntimeOptions{.workers = 4});
  rt.Shutdown();
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> hits(100, 0);  // Plain ints: only the caller may touch them.
  rt.ParallelFor(hits.size(), [&](size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++hits[i];
  });
  for (int h : hits) {
    EXPECT_EQ(h, 1);
  }
}

TEST(Runtime, ParallelForHelperStartingAfterItsCallerReturnedTouchesNothingOfIt) {
  Runtime rt(RuntimeOptions{.workers = 1});
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::atomic<bool> blocked{false};
  rt.Post([gate, &blocked] {
    blocked.store(true);
    gate.wait();
  });
  ASSERT_TRUE(WaitFor([&] { return blocked.load(); }));
  {
    // The call's one helper queues behind the blocked worker, so the caller
    // runs both indices and returns; the body and what it captures are freed
    // (heap, so ASan sees any later touch) before the helper starts.
    auto hits = std::make_unique<std::vector<int>>(2, 0);
    auto body = std::make_unique<std::function<void(size_t)>>(
        [&hits](size_t i) { ++(*hits)[i]; });
    rt.ParallelFor(hits->size(), *body);
    EXPECT_EQ(*hits, (std::vector<int>{1, 1}));
  }
  release.set_value();
  // One worker, one FIFO queue: this runs after the late helper did.
  std::promise<void> after;
  std::future<void> after_done = after.get_future();
  rt.Post([&after] { after.set_value(); });
  EXPECT_EQ(after_done.wait_for(std::chrono::seconds(10)), std::future_status::ready);
}

// Posts `k` callbacks through `post_all` on a 2-worker runtime whose workers
// are both parked in a task, waits until every returned token has fired, then
// releases one worker and lets it run all `k` while the other stays parked.
// Returns the tasks it stole meanwhile: exactly those that were queued on the
// parked worker.
uint64_t StealsWithOneWorkerReleased(
    size_t k,
    const std::function<std::vector<CancelToken>(Runtime&, std::atomic<size_t>&)>&
        post_all) {
  obs::Counter& steals =
      obs::MetricsRegistry::Default().counter(obs::names::kRtStealsTotal);
  Runtime rt(RuntimeOptions{.workers = 2});
  std::promise<void> release[2];
  std::atomic<int> parked{0};
  for (std::promise<void>& gate : release) {
    rt.Post([wait = gate.get_future().share(), &parked] {
      parked.fetch_add(1);
      wait.wait();
    });
  }
  EXPECT_TRUE(WaitFor([&] { return parked.load() == 2; }));
  std::atomic<size_t> ran{0};
  const std::vector<CancelToken> tokens = post_all(rt, ran);
  EXPECT_TRUE(WaitFor([&] {
    for (const CancelToken& token : tokens) {
      if (!token.fired()) return false;
    }
    return true;
  }));
  const uint64_t before = steals.value();
  release[0].set_value();
  EXPECT_TRUE(WaitFor([&] { return ran.load() == k; }));
  const uint64_t stolen = steals.value() - before;
  release[1].set_value();
  return stolen;
}

TEST(Runtime, TimerAndFdCallbacksQueueRoundRobinAcrossWorkers) {
  // The timer and poller threads are no worker: what they post spreads over
  // the run queues like an outside thread's posts, so half of it waits on
  // the parked worker's queue and the released worker steals exactly half.
  constexpr size_t kTimers = 64;
  EXPECT_EQ(StealsWithOneWorkerReleased(
                kTimers,
                [](Runtime& rt, std::atomic<size_t>& ran) {
                  std::vector<CancelToken> tokens;
                  for (size_t i = 0; i < kTimers; ++i) {
                    tokens.push_back(
                        rt.PostAfter(milliseconds(0), [&ran] { ran.fetch_add(1); }));
                  }
                  return tokens;
                }),
            kTimers / 2);

  constexpr size_t kPipes = 32;
  int fds[kPipes][2];
  for (auto& pipe_fds : fds) {
    ASSERT_EQ(pipe(pipe_fds), 0);
    ASSERT_EQ(write(pipe_fds[1], "x", 1), 1);
  }
  EXPECT_EQ(StealsWithOneWorkerReleased(
                kPipes,
                [&fds](Runtime& rt, std::atomic<size_t>& ran) {
                  std::vector<CancelToken> tokens;
                  for (auto& pipe_fds : fds) {
                    tokens.push_back(rt.PostFd(pipe_fds[0], [&ran] { ran.fetch_add(1); }));
                  }
                  return tokens;
                }),
            kPipes / 2);
  for (auto& pipe_fds : fds) {
    close(pipe_fds[0]);
    close(pipe_fds[1]);
  }
}

// Stress shape for the TSan tier: timers, strands, fd readiness, and plain
// posts all churning against a mid-flight Shutdown.
TEST(RtSoak, ConcurrentPostCancelShutdownIsRaceFree) {
  for (int round = 0; round < 5; ++round) {
    Runtime rt(RuntimeOptions{.workers = 4});
    auto strand = rt.MakeStrand();
    std::atomic<int> ran{0};
    std::vector<std::thread> posters;
    for (int t = 0; t < 4; ++t) {
      posters.emplace_back([&, t] {
        std::vector<CancelToken> tokens;
        for (int i = 0; i < 200; ++i) {
          rt.Post([&ran] { ran.fetch_add(1); });
          strand->Post([&ran] { ran.fetch_add(1); });
          tokens.push_back(
              rt.PostAfter(milliseconds(i % 7), [&ran] { ran.fetch_add(1); }));
          if (i % 3 == t % 3) tokens.back().Cancel();
        }
      });
    }
    for (std::thread& thread : posters) thread.join();
    rt.Shutdown();
    EXPECT_GT(ran.load(), 0);
  }
}

}  // namespace
}  // namespace apichecker::rt
