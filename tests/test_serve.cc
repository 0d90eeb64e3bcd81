// Unit tests for src/serve: digest cache, serving-model hot swap, admission
// control / backpressure, deadline expiry, cache-hit emulation skipping, the
// no-lost-submissions invariant, and hot-swap-under-load consistency. The
// concurrency-heavy tests double as the ASan/TSan targets in tools/ci.sh.

#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "apk/apk.h"
#include "core/model_store.h"
#include "core/study.h"
#include "ingest/apk_blob.h"
#include "market/model_registry.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/trace_collector.h"
#include "serve/digest_cache.h"
#include "serve/overload.h"
#include "serve/service.h"
#include "serve/serving_model.h"
#include "serve/submission_shards.h"
#include "synth/corpus.h"
#include "util/rng.h"

namespace apichecker::serve {
namespace {

const android::ApiUniverse& TestUniverse() {
  static const android::ApiUniverse universe = [] {
    android::UniverseConfig config;
    config.num_apis = 6'000;
    return android::ApiUniverse::Generate(config);
  }();
  return universe;
}

// One small model trained once and round-tripped through the model store, so
// every test gets an identical, independently owned checker.
const std::vector<uint8_t>& TrainedBlob() {
  static const std::vector<uint8_t> blob = [] {
    synth::CorpusConfig corpus_config;
    synth::CorpusGenerator generator(TestUniverse(), corpus_config);
    core::StudyConfig study_config;
    study_config.num_apps = 1'200;
    const core::StudyDataset study =
        core::RunStudy(TestUniverse(), generator, study_config);
    core::ApiChecker checker(TestUniverse(), {});
    checker.TrainFromStudy(study);
    return core::SerializeChecker(checker);
  }();
  return blob;
}

core::ApiChecker TrainedChecker() {
  auto checker = core::DeserializeChecker(TestUniverse(), TrainedBlob());
  EXPECT_TRUE(checker.ok());
  return std::move(*checker);
}

std::vector<uint8_t> MakeApkBytes(uint64_t seed) {
  synth::CorpusConfig config;
  config.seed = seed;
  config.update_fraction = 0.0;  // Fresh packages only: distinct bytes.
  synth::CorpusGenerator generator(TestUniverse(), config);
  return synth::BuildApkBytes(generator.Next(), TestUniverse());
}

Submission MakeSubmission(ingest::ApkBlob blob,
                          Priority priority = Priority::kBulk,
                          std::chrono::milliseconds deadline = {}) {
  Submission submission;
  submission.blob = std::move(blob);
  submission.priority = priority;
  submission.deadline = deadline;
  return submission;
}

Submission MakeSubmission(std::vector<uint8_t> bytes,
                          Priority priority = Priority::kBulk,
                          std::chrono::milliseconds deadline = {}) {
  return MakeSubmission(ingest::ApkBlob::FromBytes(std::move(bytes)), priority,
                        deadline);
}

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Default().counter(name).value();
}

uint64_t HistogramCount(const char* name) {
  return obs::MetricsRegistry::Default().histogram(name).count();
}

ServiceConfig SmallConfig() {
  ServiceConfig config;
  config.num_shards = 2;
  config.shard_capacity = 64;
  config.farm.num_emulators = 4;
  config.scheduler.batch_size = 4;
  config.scheduler.max_linger = std::chrono::milliseconds(5);
  return config;
}

TEST(DigestCache, LruEvictsOldestWithinShard) {
  DigestCache cache(4, /*num_shards=*/1);
  for (int i = 0; i < 4; ++i) {
    cache.Put("digest" + std::to_string(i), {1, false, 0.1});
  }
  EXPECT_EQ(cache.size(), 4u);
  ASSERT_TRUE(cache.Get("digest0", 1).has_value());  // Refresh digest0.
  cache.Put("digest4", {1, true, 0.9});              // Evicts digest1 (LRU).
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_TRUE(cache.Get("digest0", 1).has_value());
  EXPECT_FALSE(cache.Get("digest1", 1).has_value());
  EXPECT_TRUE(cache.Get("digest4", 1)->malicious);
}

TEST(DigestCache, StaleModelVersionIsAMissAndEvicted) {
  DigestCache cache(8);
  cache.Put("d", {1, true, 0.8});
  EXPECT_TRUE(cache.Get("d", 1).has_value());
  EXPECT_FALSE(cache.Get("d", 2).has_value());  // Hot swap happened.
  EXPECT_EQ(cache.size(), 0u);                  // Stale entry dropped.
}

TEST(DigestCache, WarmFlagSurvivesLookupAndIsClearedByOverwrite) {
  DigestCache cache(8);
  CachedVerdict warmed{1, true, 0.9, /*warm=*/true};
  cache.Put("d", warmed);
  auto hit = cache.Get("d", 1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->warm);  // Warm-start hits are countable at Get time.
  cache.Put("d", {1, true, 0.9});  // Re-vetted this process: no longer warm.
  EXPECT_FALSE(cache.Get("d", 1)->warm);
}

TEST(ServingModel, SwapPublishesNewVersionWhileReadersKeepTheirSnapshot) {
  ServingModel model(TrainedChecker());
  EXPECT_EQ(model.version(), 1u);
  auto pinned = model.Acquire();
  EXPECT_EQ(pinned->version, 1u);
  EXPECT_EQ(model.Swap(TrainedChecker()), 2u);
  EXPECT_EQ(model.version(), 2u);
  // The pinned snapshot is unaffected by the swap.
  EXPECT_EQ(pinned->version, 1u);
  EXPECT_TRUE(pinned->checker.trained());
  EXPECT_EQ(model.Acquire()->version, 2u);
}

TEST(ServingModel, SwapFromBlobRejectsGarbage) {
  ServingModel model(TrainedChecker());
  const std::vector<uint8_t> garbage = {1, 2, 3, 4};
  auto swapped = model.SwapFromBlob(TestUniverse(), garbage);
  EXPECT_FALSE(swapped.ok());
  EXPECT_EQ(model.version(), 1u);  // Bad blob never goes live.
}

TEST(VettingService, AdmissionRejectsWhenQueuesFull) {
  ServiceConfig config = SmallConfig();
  config.num_shards = 1;
  config.shard_capacity = 2;
  config.start_paused = true;  // Queues fill; nothing drains yet.
  VettingService service(TestUniverse(), config, TrainedChecker());

  std::vector<std::future<VettingResult>> futures;
  // Distinct seeds -> distinct digests, all landing on the single shard.
  for (uint64_t seed = 1; seed <= 2; ++seed) {
    auto accepted = service.Submit(MakeSubmission(MakeApkBytes(seed)));
    ASSERT_TRUE(accepted.ok());
    futures.push_back(std::move(*accepted));
  }
  auto rejected = service.Submit(MakeSubmission(MakeApkBytes(3)));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.error(), "admission queue full");

  service.Start();
  for (auto& future : futures) {
    EXPECT_EQ(future.get().status, VetStatus::kOk);
  }
  service.Shutdown();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.accepted, stats.resolved());
}

TEST(VettingService, DeadlineExpiryReturnsTimeoutOutcome) {
  ServiceConfig config = SmallConfig();
  // Batch never fills, so the submission waits out the full linger — far past
  // its own deadline — before the scheduler executes it.
  config.scheduler.batch_size = 8;
  config.scheduler.max_linger = std::chrono::milliseconds(200);
  VettingService service(TestUniverse(), config, TrainedChecker());

  auto accepted = service.Submit(MakeSubmission(
      MakeApkBytes(11), Priority::kBulk, std::chrono::milliseconds(1)));
  ASSERT_TRUE(accepted.ok());
  const VettingResult result = accepted->get();
  EXPECT_EQ(result.status, VetStatus::kDeadlineExpired);
  service.Shutdown();
  EXPECT_EQ(service.stats().deadline_expired, 1u);
  EXPECT_EQ(service.stats().accepted, service.stats().resolved());
}

TEST(VettingService, DigestCacheHitSkipsEmulation) {
  VettingService service(TestUniverse(), SmallConfig(), TrainedChecker());
  const std::vector<uint8_t> bytes = MakeApkBytes(21);

  auto first = service.Submit(MakeSubmission(bytes));
  ASSERT_TRUE(first.ok());
  const VettingResult fresh = first->get();
  EXPECT_EQ(fresh.status, VetStatus::kOk);
  EXPECT_FALSE(fresh.from_cache);

  const uint64_t emu_apps_before = CounterValue(obs::names::kEmuAppsTotal);
  const uint64_t cache_hits_before = CounterValue(obs::names::kServeCacheHitsTotal);
  auto second = service.Submit(MakeSubmission(bytes));
  ASSERT_TRUE(second.ok());
  const VettingResult cached = second->get();
  EXPECT_EQ(cached.status, VetStatus::kOk);
  EXPECT_TRUE(cached.from_cache);
  EXPECT_EQ(cached.malicious, fresh.malicious);
  EXPECT_DOUBLE_EQ(cached.score, fresh.score);
  // The resubmission reached a verdict without a single emulator run.
  EXPECT_EQ(CounterValue(obs::names::kEmuAppsTotal), emu_apps_before);
  EXPECT_EQ(CounterValue(obs::names::kServeCacheHitsTotal), cache_hits_before + 1);
  service.Shutdown();
  EXPECT_EQ(service.stats().cache_hits, 1u);
}

TEST(VettingService, InBatchDedupEmulatesIdenticalBytesOnce) {
  ServiceConfig config = SmallConfig();
  config.start_paused = true;  // Both copies land in the same batch.
  VettingService service(TestUniverse(), config, TrainedChecker());
  const std::vector<uint8_t> bytes = MakeApkBytes(22);

  auto a = service.Submit(MakeSubmission(bytes));
  auto b = service.Submit(MakeSubmission(bytes));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const uint64_t emu_apps_before = CounterValue(obs::names::kEmuAppsTotal);
  service.Start();
  const VettingResult ra = a->get();
  const VettingResult rb = b->get();
  EXPECT_EQ(CounterValue(obs::names::kEmuAppsTotal), emu_apps_before + 1);
  EXPECT_EQ(ra.malicious, rb.malicious);
  EXPECT_DOUBLE_EQ(ra.score, rb.score);
  EXPECT_TRUE(ra.from_cache || rb.from_cache);  // The follower skipped emulation.
}

TEST(VettingService, ParseErrorResolvesInsteadOfDropping) {
  VettingService service(TestUniverse(), SmallConfig(), TrainedChecker());
  auto accepted = service.Submit(MakeSubmission({'n', 'o', 't', 'a', 'p', 'k'}));
  ASSERT_TRUE(accepted.ok());
  const VettingResult result = accepted->get();
  EXPECT_EQ(result.status, VetStatus::kParseError);
  EXPECT_FALSE(result.error.empty());
  service.Shutdown();
  EXPECT_EQ(service.stats().parse_errors, 1u);
  EXPECT_EQ(service.stats().accepted, service.stats().resolved());
}

TEST(VettingService, HotSwapInvalidatesCachedVerdicts) {
  VettingService service(TestUniverse(), SmallConfig(), TrainedChecker());
  const std::vector<uint8_t> bytes = MakeApkBytes(23);

  auto first = service.Submit(MakeSubmission(bytes));
  ASSERT_TRUE(first.ok());
  const VettingResult before = first->get();
  EXPECT_EQ(before.model_version, 1u);

  EXPECT_EQ(service.SwapModel(TrainedChecker()), 2u);

  auto second = service.Submit(MakeSubmission(bytes));
  ASSERT_TRUE(second.ok());
  const VettingResult after = second->get();
  EXPECT_EQ(after.model_version, 2u);
  EXPECT_FALSE(after.from_cache);  // v1 cache entry is stale for v2.
  // Same weights round-tripped: the verdict itself must not change.
  EXPECT_EQ(after.malicious, before.malicious);
  EXPECT_DOUBLE_EQ(after.score, before.score);
  service.Shutdown();
}

TEST(VettingService, RegistryPromotionHotSwapsTheServingModel) {
  VettingService service(TestUniverse(), SmallConfig(), TrainedChecker());
  market::ModelRegistry registry;
  service.AttachToRegistry(registry);
  EXPECT_EQ(service.model_version(), 1u);

  market::ModelRecord candidate;
  candidate.month = 1;
  candidate.blob = TrainedBlob();
  candidate.validation_f1 = 0.95;
  EXPECT_TRUE(registry.Consider(std::move(candidate)));
  EXPECT_EQ(service.model_version(), 2u);  // Promotion went live immediately.

  // A guard-rejected candidate must NOT touch the serving model.
  market::ModelRecord regression;
  regression.month = 2;
  regression.blob = TrainedBlob();
  regression.validation_f1 = 0.10;
  EXPECT_FALSE(registry.Consider(std::move(regression)));
  EXPECT_EQ(service.model_version(), 2u);
  registry.SetPromotionListener(nullptr);  // Detach before the service dies.
  service.Shutdown();
}

// Hot-swap under load: writers republish the model while submitters hammer a
// small APK set. Every identical digest must produce an identical verdict no
// matter which snapshot classified it (all snapshots carry the same
// round-tripped weights), and nothing may be lost or torn. Run under
// ASan/TSan by tools/ci.sh.
TEST(VettingService, HotSwapUnderLoadKeepsVerdictsConsistent) {
  ServiceConfig config = SmallConfig();
  config.num_shards = 4;
  config.shard_capacity = 512;
  VettingService service(TestUniverse(), config, TrainedChecker());

  constexpr size_t kDistinctApks = 6;
  constexpr size_t kSubmitsPerThread = 48;
  constexpr size_t kSubmitters = 3;
  constexpr size_t kSwaps = 12;
  std::vector<std::vector<uint8_t>> apks;
  for (size_t i = 0; i < kDistinctApks; ++i) {
    apks.push_back(MakeApkBytes(100 + i));
  }

  std::atomic<bool> stop_swapping{false};
  std::thread swapper([&] {
    for (size_t i = 0; i < kSwaps && !stop_swapping.load(); ++i) {
      auto swapped = service.SwapModelFromBlob(TrainedBlob());
      EXPECT_TRUE(swapped.ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  std::vector<std::thread> submitters;
  std::vector<std::vector<std::future<VettingResult>>> futures(kSubmitters);
  for (size_t t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      for (size_t i = 0; i < kSubmitsPerThread; ++i) {
        auto accepted =
            service.Submit(MakeSubmission(apks[(t + i) % kDistinctApks],
                                          i % 8 == 0 ? Priority::kInteractive
                                                     : Priority::kBulk));
        if (accepted.ok()) {
          futures[t].push_back(std::move(*accepted));
        }
      }
    });
  }
  for (auto& thread : submitters) {
    thread.join();
  }
  stop_swapping.store(true);
  swapper.join();

  // Per-digest verdict agreement across every model snapshot that served.
  struct Agreed {
    bool seen = false;
    bool malicious = false;
    double score = 0.0;
  };
  std::vector<Agreed> agreed(kDistinctApks);
  size_t resolved = 0;
  for (size_t t = 0; t < kSubmitters; ++t) {
    for (size_t i = 0; i < futures[t].size(); ++i) {
      const VettingResult result = futures[t][i].get();
      ASSERT_EQ(result.status, VetStatus::kOk);
      EXPECT_GE(result.model_version, 1u);
      Agreed& expect = agreed[(t + i) % kDistinctApks];
      if (!expect.seen) {
        expect = {true, result.malicious, result.score};
      } else {
        EXPECT_EQ(result.malicious, expect.malicious);
        EXPECT_DOUBLE_EQ(result.score, expect.score);
      }
      ++resolved;
    }
  }
  service.Shutdown();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.accepted, stats.resolved());  // Zero lost submissions.
  EXPECT_EQ(stats.accepted, resolved);
  EXPECT_GT(stats.cache_hits, 0u);  // Identical resubmits hit the cache.
  EXPECT_GE(stats.model_swaps, 1u);
}

// The scheduler parks on the shards' condition variable when idle; the next
// push must wake it immediately, so a lone submission resolves in roughly
// max_linger + one emulation — not at some polling granularity.
TEST(VettingService, IdleSchedulerWakesOnPushWithinLingerBound) {
  ServiceConfig config = SmallConfig();
  config.scheduler.batch_size = 8;  // One submission never fills the batch.
  config.scheduler.max_linger = std::chrono::milliseconds(25);
  VettingService service(TestUniverse(), config, TrainedChecker());
  // Let the scheduler reach its idle park before the probe submission.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  const auto start = Clock::now();
  auto accepted = service.Submit(MakeSubmission(MakeApkBytes(41)));
  ASSERT_TRUE(accepted.ok());
  EXPECT_EQ(accepted->get().status, VetStatus::kOk);
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  // Linger (25ms) + one-apk emulation + slack. Generous for CI noise but far
  // below anything a sleep-poll idle loop would allow.
  EXPECT_LT(elapsed_ms, 750.0);
  service.Shutdown();
}

// Soak test (ctest label: stress; tools/ci.sh runs it under TSan): several
// producers churn duplicate-digest submissions through a 3-farm pool while
// the model hot-swaps and one farm flaps through scripted outage windows.
// After the drain, nothing may be lost, torn, or disagreeing.
TEST(VettingServiceSoak, ChurnWithFlappingFarmHotSwapsAndDupDigests) {
  ServiceConfig config;
  config.num_shards = 4;
  config.shard_capacity = 512;
  config.cache_capacity = 4096;
  config.farm.num_emulators = 4;
  config.scheduler.batch_size = 4;
  config.scheduler.max_linger = std::chrono::milliseconds(2);
  config.pool.num_farms = 3;
  config.pool.max_attempts = 3;
  config.pool.breaker_failure_streak = 2;
  config.pool.breaker_cooldown = std::chrono::milliseconds(30);
  // Farm 0 flaps: repeated short outages with recovery in between, so the
  // breaker opens, cools down, re-probes, and closes — repeatedly — while
  // farms 1 and 2 absorb the failovers.
  for (uint64_t from = 1; from <= 19; from += 6) {
    emu::FaultWindow window;
    window.farm_id = 0;
    window.from_batch = from;
    window.to_batch = from + 2;
    config.pool.fault_plan.windows.push_back(window);
  }
  VettingService service(TestUniverse(), config, TrainedChecker());

  constexpr size_t kDistinctApks = 8;
  constexpr size_t kSubmitsPerThread = 50;
  constexpr size_t kProducers = 4;
  std::vector<std::vector<uint8_t>> apks;
  for (size_t i = 0; i < kDistinctApks; ++i) {
    apks.push_back(MakeApkBytes(500 + i));
  }

  std::atomic<bool> stop_swapping{false};
  std::thread swapper([&] {
    for (int i = 0; i < 10 && !stop_swapping.load(); ++i) {
      EXPECT_TRUE(service.SwapModelFromBlob(TrainedBlob()).ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    }
  });

  std::vector<std::thread> producers;
  std::vector<std::vector<std::future<VettingResult>>> futures(kProducers);
  std::vector<std::vector<size_t>> apk_index(kProducers);
  std::atomic<size_t> admission_rejected{0};
  for (size_t t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      for (size_t i = 0; i < kSubmitsPerThread; ++i) {
        // Heavy digest reuse: every producer cycles the same small APK set
        // (the market's resubmission pattern), some expedited.
        const size_t which = (t * 3 + i) % kDistinctApks;
        auto accepted = service.Submit(
            MakeSubmission(apks[which], i % 16 == 0 ? Priority::kInteractive
                                                    : Priority::kBulk));
        if (accepted.ok()) {
          futures[t].push_back(std::move(*accepted));
          apk_index[t].push_back(which);
        } else {
          admission_rejected.fetch_add(1);
        }
      }
    });
  }
  for (auto& producer : producers) {
    producer.join();
  }
  stop_swapping.store(true);
  swapper.join();

  // Every accepted submission resolves kOk — farm flaps are absorbed by
  // failover, never surfaced to a client — and byte-identical submissions
  // agree on the verdict no matter which farm/snapshot served them.
  struct Agreed {
    bool seen = false;
    bool malicious = false;
    double score = 0.0;
  };
  std::vector<Agreed> agreed(kDistinctApks);
  size_t resolved = 0;
  for (size_t t = 0; t < kProducers; ++t) {
    for (size_t i = 0; i < futures[t].size(); ++i) {
      ASSERT_EQ(futures[t][i].wait_for(std::chrono::seconds(60)),
                std::future_status::ready)
          << "submission hung";
      const VettingResult result = futures[t][i].get();
      ASSERT_EQ(result.status, VetStatus::kOk);
      Agreed& expect = agreed[apk_index[t][i]];
      if (!expect.seen) {
        expect = {true, result.malicious, result.score};
      } else {
        EXPECT_EQ(result.malicious, expect.malicious);
        EXPECT_DOUBLE_EQ(result.score, expect.score);
      }
      ++resolved;
    }
  }
  service.Shutdown();

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.accepted, stats.resolved());  // Zero lost, even under faults.
  EXPECT_EQ(stats.accepted, resolved);
  EXPECT_EQ(stats.accepted + admission_rejected.load(),
            kProducers * kSubmitsPerThread);
  EXPECT_EQ(stats.rejected_unhealthy, 0u);  // Two farms always stayed up.
  EXPECT_GT(stats.farm_faults, 0u);         // The flap windows actually fired...
  EXPECT_GT(stats.farm_retries, 0u);        // ...and every fault failed over.
  EXPECT_GT(stats.cache_hits, 0u);
  EXPECT_GE(stats.model_swaps, 1u);

  const FarmPoolStats pool_stats = service.farm_pool_stats();
  EXPECT_EQ(pool_stats.rejected_batches, 0u);
  uint64_t completed_across_farms = 0;
  for (const FarmStats& farm : pool_stats.farms) {
    completed_across_farms += farm.batches_completed;
  }
  EXPECT_EQ(completed_across_farms + pool_stats.retries,
            pool_stats.batches_routed);
  EXPECT_GE(pool_stats.farms[0].breaker_opens, 1u);
}

// Tentpole invariant: one allocation per APK, zero copies after Submit().
// The blob handle threads through shard -> scheduler -> pool -> verdict with
// reference bumps only; SHA-1 runs exactly once, at blob creation.
TEST(VettingService, BlobFlowsThroughThePipelineWithoutCopiesOrRehashing) {
  VettingService service(TestUniverse(), SmallConfig(), TrainedChecker());

  const uint64_t blobs_before = CounterValue(obs::names::kIngestBlobsTotal);
  const uint64_t hashes_before = CounterValue(obs::names::kServeHashOpsTotal);
  ingest::ApkBlob blob = ingest::ApkBlob::FromBytes(MakeApkBytes(61));
  EXPECT_EQ(CounterValue(obs::names::kIngestBlobsTotal), blobs_before + 1);
  EXPECT_EQ(CounterValue(obs::names::kServeHashOpsTotal), hashes_before + 1);
  EXPECT_EQ(blob.use_count(), 1u);
  const uint64_t pool_bytes_at_creation = ingest::ApkBlob::PoolBytes();

  auto accepted = service.Submit(MakeSubmission(blob));  // Handle copy, not bytes.
  ASSERT_TRUE(accepted.ok());
  EXPECT_EQ(accepted->get().status, VetStatus::kOk);
  service.Shutdown();

  // The whole trip — admission, shard queue, batch build, the farm's parse,
  // emulation, verdict — minted no new blob and ran no second hash.
  EXPECT_EQ(CounterValue(obs::names::kIngestBlobsTotal), blobs_before + 1);
  EXPECT_EQ(CounterValue(obs::names::kServeHashOpsTotal), hashes_before + 1);
  // Every pipeline reference was released; ours is the last one, and the pool
  // gauge accounts exactly this blob's bytes relative to creation time.
  EXPECT_EQ(blob.use_count(), 1u);
  EXPECT_EQ(ingest::ApkBlob::PoolBytes(), pool_bytes_at_creation);
  EXPECT_GE(ingest::ApkBlob::PoolPeakBytes(), pool_bytes_at_creation);
}

// Satellite: a digest the cache already holds resolves at Submit() itself —
// the fast-path never touches a shard queue, counted by its own metric.
TEST(VettingService, CachedDigestFastPathSkipsTheShardQueues) {
  VettingService service(TestUniverse(), SmallConfig(), TrainedChecker());
  const std::vector<uint8_t> bytes = MakeApkBytes(62);

  auto first = service.Submit(MakeSubmission(bytes));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->get().status, VetStatus::kOk);

  const uint64_t pushes_before = service.shard_pushes();
  const uint64_t fastpath_before =
      CounterValue(obs::names::kServeCacheFastpathHitsTotal);
  auto second = service.Submit(MakeSubmission(bytes));
  ASSERT_TRUE(second.ok());
  // Already resolved: the promise was satisfied inside Submit().
  ASSERT_EQ(second->wait_for(std::chrono::milliseconds(0)),
            std::future_status::ready);
  const VettingResult cached = second->get();
  EXPECT_EQ(cached.status, VetStatus::kOk);
  EXPECT_TRUE(cached.from_cache);
  // Not one shard push happened for the duplicate.
  EXPECT_EQ(service.shard_pushes(), pushes_before);
  EXPECT_EQ(CounterValue(obs::names::kServeCacheFastpathHitsTotal),
            fastpath_before + 1);
  service.Shutdown();
  EXPECT_EQ(service.stats().accepted, service.stats().resolved());
}

// Tentpole: Submit() returns before ParseApk runs. With the scheduler paused
// nothing downstream can parse; the accepted future exists while the parse-
// stage histogram is still unmoved, and only Start() makes it tick.
TEST(VettingService, SubmitReturnsBeforeParseExecutes) {
  ServiceConfig config = SmallConfig();
  config.start_paused = true;
  VettingService service(TestUniverse(), config, TrainedChecker());

  const uint64_t parses_before = HistogramCount(obs::names::kIngestParseStageMs);
  auto accepted = service.Submit(MakeSubmission(MakeApkBytes(63)));
  ASSERT_TRUE(accepted.ok());  // Admission done — and nothing parsed yet.
  EXPECT_EQ(HistogramCount(obs::names::kIngestParseStageMs), parses_before);

  service.Start();
  EXPECT_EQ(accepted->get().status, VetStatus::kOk);
  EXPECT_GT(HistogramCount(obs::names::kIngestParseStageMs), parses_before);
  service.Shutdown();
}

TEST(VettingService, SubmitAfterShutdownIsRejected) {
  VettingService service(TestUniverse(), SmallConfig(), TrainedChecker());
  service.Shutdown();
  auto rejected = service.Submit(MakeSubmission(MakeApkBytes(31)));
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.error(), "service is shut down");
}

TEST(VettingService, ShutdownIsIdempotentSequentiallyAndConcurrently) {
  // Teardown runs in dependency order (front door -> admission -> scheduler
  // -> pool -> store -> runtime) exactly once; every later or concurrent
  // caller must block until that teardown completes and then return — never
  // re-tear layers, never race the runtime join. The in-flight submission
  // still resolves (drain, not drop).
  VettingService service(TestUniverse(), SmallConfig(), TrainedChecker());
  auto accepted = service.Submit(MakeSubmission(MakeApkBytes(47)));
  ASSERT_TRUE(accepted.ok());

  std::vector<std::thread> callers;
  for (int i = 0; i < 4; ++i) {
    callers.emplace_back([&service] { service.Shutdown(); });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(accepted->get().status, VetStatus::kOk);

  // Sequential re-calls after completion are no-ops, including via the
  // destructor (which calls Shutdown again when the test ends).
  service.Shutdown();
  service.Shutdown();
  EXPECT_FALSE(service.Submit(MakeSubmission(MakeApkBytes(53))).ok());
}

TEST(VettingService, TracesCoverTheFullPipelineAndFailoverSiblings) {
  // Deterministic end-to-end trace shapes, three submissions:
  //   A: both farms scripted to fault their first batch -> the pool fails over
  //      and rejects; A's trace carries one `farm` sibling span PER ATTEMPT,
  //      both marked fault, on two distinct farms.
  //   B: fault windows have passed -> classified ok; its trace must contain
  //      every pipeline stage (submit, shard, batch, farm, classify, store,
  //      resolve) and its breakdown must sum to the end-to-end latency.
  //   C: byte-identical to B -> digest-cache fast-path; a from_cache trace
  //      whose breakdown is submit + resolve only.
  obs::TraceCollector& collector = obs::TraceCollector::Default();
  collector.Clear();
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Default();
  const char* kStageNames[] = {
      obs::stages::kSubmit,   obs::stages::kShard, obs::stages::kBatch,
      obs::stages::kClassify, obs::stages::kFarm,  obs::stages::kStore,
      obs::stages::kResolve};
  double stage_sum_before = 0.0;
  for (const char* stage : kStageNames) {
    stage_sum_before += metrics.histogram(obs::StageHistogramName(stage)).sum();
  }
  const double traced_sum_before =
      metrics.histogram(obs::names::kServeTracedE2eMs).sum();

  ServiceConfig config = SmallConfig();
  config.scheduler.batch_size = 1;
  config.scheduler.max_linger = std::chrono::milliseconds(1);
  config.pool.num_farms = 2;
  config.pool.max_attempts = 3;
  config.pool.breaker_failure_streak = 10;  // Breakers never open here.
  for (uint32_t farm = 0; farm < 2; ++farm) {
    emu::FaultWindow window;
    window.farm_id = farm;
    window.from_batch = 1;
    window.to_batch = 1;
    config.pool.fault_plan.windows.push_back(window);
  }
  config.trace_sample_rate = 1.0;
  const auto store_dir =
      std::filesystem::temp_directory_path() / "apichecker_trace_test_store";
  std::filesystem::remove_all(store_dir);
  config.store.dir = store_dir.string();
  VettingService service(TestUniverse(), config, TrainedChecker());

  auto submission_a = service.Submit(MakeSubmission(MakeApkBytes(910)));
  ASSERT_TRUE(submission_a.ok());
  EXPECT_EQ(submission_a->get().status, VetStatus::kRejectedUnhealthy);

  const std::vector<uint8_t> apk_b = MakeApkBytes(911);
  auto submission_b = service.Submit(MakeSubmission(apk_b));
  ASSERT_TRUE(submission_b.ok());
  EXPECT_EQ(submission_b->get().status, VetStatus::kOk);

  auto submission_c = service.Submit(MakeSubmission(apk_b));
  ASSERT_TRUE(submission_c.ok());
  const VettingResult result_c = submission_c->get();
  EXPECT_EQ(result_c.status, VetStatus::kOk);
  EXPECT_TRUE(result_c.from_cache);
  service.Shutdown();

  const std::vector<obs::Trace> traces = collector.Completed();
  ASSERT_EQ(traces.size(), 3u);  // Completed() is ordered by start time.
  const obs::Trace& rejected = traces[0];
  const obs::Trace& classified = traces[1];
  const obs::Trace& cached = traces[2];

  // A: one farm span per failover attempt, faulted, on two distinct farms.
  EXPECT_EQ(rejected.status, "rejected_unhealthy");
  std::vector<std::string> attempt_labels;
  for (const obs::StageSpan& span : rejected.spans) {
    if (span.stage != obs::stages::kFarm) {
      continue;
    }
    EXPECT_TRUE(span.fault) << span.label;
    attempt_labels.push_back(span.label);
  }
  ASSERT_EQ(attempt_labels.size(), 2u);
  EXPECT_NE(attempt_labels[0], attempt_labels[1]);
  EXPECT_NEAR(rejected.BreakdownSumMs(), rejected.total_ms,
              0.01 * rejected.total_ms + 0.05);

  // B: every pipeline stage present, breakdown sums to the traced total.
  EXPECT_EQ(classified.status, "ok");
  EXPECT_FALSE(classified.from_cache);
  for (const char* stage : kStageNames) {
    EXPECT_TRUE(classified.HasStage(stage)) << stage;
  }
  EXPECT_NEAR(classified.BreakdownSumMs(), classified.total_ms,
              0.01 * classified.total_ms + 0.05);

  // C: cache fast-path — no queue/farm stages, just submit + resolve.
  EXPECT_EQ(cached.status, "ok");
  EXPECT_TRUE(cached.from_cache);
  EXPECT_TRUE(cached.HasStage(obs::stages::kSubmit));
  EXPECT_FALSE(cached.HasStage(obs::stages::kFarm));
  EXPECT_NEAR(cached.BreakdownSumMs(), cached.total_ms,
              0.01 * cached.total_ms + 0.05);

  // The tail sampler retained the slowest of the three.
  const std::vector<obs::Trace> slowest = collector.Slowest();
  ASSERT_FALSE(slowest.empty());
  EXPECT_GE(slowest.front().total_ms, slowest.back().total_ms);

  // Registry-level invariant: per-stage histogram mass added by this test
  // equals the traced end-to-end mass (the breakdown is a partition).
  double stage_sum_after = 0.0;
  for (const char* stage : kStageNames) {
    stage_sum_after += metrics.histogram(obs::StageHistogramName(stage)).sum();
  }
  const double traced_sum_after =
      metrics.histogram(obs::names::kServeTracedE2eMs).sum();
  const double stage_delta = stage_sum_after - stage_sum_before;
  const double traced_delta = traced_sum_after - traced_sum_before;
  EXPECT_GT(traced_delta, 0.0);
  EXPECT_NEAR(stage_delta, traced_delta, 0.01 * traced_delta + 0.1);

  std::filesystem::remove_all(store_dir);
}

// ---------------------------------------------------------------------------
// Overload control & QoS: per-class lanes, weighted-fair pop, watermark
// shedding, class SLO deadlines, and the storm-tier invariant tests.
// ---------------------------------------------------------------------------

PendingSubmission MakePending(Priority priority, uint64_t tag) {
  PendingSubmission pending;
  pending.blob = ingest::ApkBlob::FromBytes(
      {static_cast<uint8_t>(tag), static_cast<uint8_t>(tag >> 8),
       static_cast<uint8_t>(tag >> 16), 0x7e});
  pending.priority = priority;
  pending.admitted_at = Clock::now();
  pending.deadline = Clock::time_point::max();
  return pending;
}

// Smooth WRR with weights {4,2,1} serves classes in the exact cycle
// I R I B I R I (interactive 4, rescan 2, bulk 1 per 7 pops).
TEST(SubmissionShards, WeightedFairPopHonorsClassShares) {
  SubmissionShards shards(/*num_shards=*/1, /*per_shard_capacity=*/32,
                          {{4, 2, 1}});
  uint64_t tag = 0;
  for (size_t i = 0; i < 8; ++i) {
    for (size_t c = 0; c < kNumPriorityClasses; ++c) {
      ASSERT_EQ(shards.TryPush(MakePending(static_cast<Priority>(c), ++tag)),
                AdmissionOutcome::kAccepted);
    }
  }
  std::array<size_t, kNumPriorityClasses> popped{};
  for (size_t i = 0; i < 14; ++i) {
    auto pending = shards.TryPopAny();
    ASSERT_TRUE(pending.has_value());
    ++popped[static_cast<size_t>(pending->priority)];
  }
  EXPECT_EQ(popped[static_cast<size_t>(Priority::kInteractive)], 8u);
  EXPECT_EQ(popped[static_cast<size_t>(Priority::kRescan)], 4u);
  EXPECT_EQ(popped[static_cast<size_t>(Priority::kBulk)], 2u);
  shards.Close();
}

// Migrated from the PR-2 priority push-front semantics: an interactive
// submission pushed after a bulk backlog is still served first — now because
// its class lane outweighs bulk, not because it jumped a shared queue.
TEST(SubmissionShards, InteractivePopsAheadOfEarlierBulkBacklog) {
  SubmissionShards shards(/*num_shards=*/2, /*per_shard_capacity=*/8);
  for (uint64_t i = 0; i < 5; ++i) {
    ASSERT_EQ(shards.TryPush(MakePending(Priority::kBulk, 100 + i)),
              AdmissionOutcome::kAccepted);
  }
  ASSERT_EQ(shards.TryPush(MakePending(Priority::kInteractive, 999)),
            AdmissionOutcome::kAccepted);
  auto first = shards.TryPopAny();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->priority, Priority::kInteractive);
  shards.Close();
}

// Work conservation: an idle preferred class never blocks a busy one, and
// banked credit from empty sweeps is refunded (no burst later).
TEST(SubmissionShards, WeightedPopIsWorkConservingWhenClassesAreIdle) {
  SubmissionShards shards(/*num_shards=*/1, /*per_shard_capacity=*/8,
                          {{8, 3, 1}});
  EXPECT_EQ(shards.TryPopAny(), std::nullopt);  // Empty sweep: credit refunded.
  for (uint64_t i = 0; i < 3; ++i) {
    ASSERT_EQ(shards.TryPush(MakePending(Priority::kBulk, 200 + i)),
              AdmissionOutcome::kAccepted);
  }
  for (int i = 0; i < 3; ++i) {
    auto pending = shards.TryPopAny();
    ASSERT_TRUE(pending.has_value());
    EXPECT_EQ(pending->priority, Priority::kBulk);
  }
  shards.Close();
}

// Class isolation: a full bulk lane rejects bulk but interactive still has
// its own slots — a storm cannot occupy the capacity interactive needs.
TEST(SubmissionShards, ClassLanesIsolateCapacity) {
  SubmissionShards shards(/*num_shards=*/1, /*per_shard_capacity=*/2);
  ASSERT_EQ(shards.TryPush(MakePending(Priority::kBulk, 1)),
            AdmissionOutcome::kAccepted);
  ASSERT_EQ(shards.TryPush(MakePending(Priority::kBulk, 2)),
            AdmissionOutcome::kAccepted);
  EXPECT_EQ(shards.TryPush(MakePending(Priority::kBulk, 3)),
            AdmissionOutcome::kQueueFull);
  EXPECT_EQ(shards.TryPush(MakePending(Priority::kInteractive, 4)),
            AdmissionOutcome::kAccepted);
  EXPECT_EQ(shards.ApproxDepthByClass(Priority::kBulk), 2u);
  EXPECT_EQ(shards.ApproxDepthByClass(Priority::kInteractive), 1u);
  shards.Close();
}

TEST(OverloadGovernor, WatermarksEscalateImmediatelyAndReleaseWithHysteresis) {
  OverloadConfig config;
  config.shed = true;
  config.queue_pressure = 0.5;
  config.queue_critical = 0.8;
  config.queue_release = 0.2;
  OverloadGovernor governor(config);
  EXPECT_EQ(governor.Evaluate(1, 10, 0), PressureState::kNormal);
  EXPECT_EQ(governor.Evaluate(5, 10, 0), PressureState::kPressure);
  // Dropping below pressure but above release holds the state (hysteresis).
  EXPECT_EQ(governor.Evaluate(3, 10, 0), PressureState::kPressure);
  EXPECT_EQ(governor.Evaluate(8, 10, 0), PressureState::kCritical);
  EXPECT_EQ(governor.Evaluate(3, 10, 0), PressureState::kCritical);
  EXPECT_EQ(governor.Evaluate(1, 10, 0), PressureState::kNormal);
  EXPECT_EQ(governor.transitions(), 3u);

  // The shed lattice: bulk first, then rescan, never interactive.
  EXPECT_FALSE(OverloadGovernor::ShouldShed(PressureState::kNormal,
                                            Priority::kBulk));
  EXPECT_TRUE(OverloadGovernor::ShouldShed(PressureState::kPressure,
                                           Priority::kBulk));
  EXPECT_FALSE(OverloadGovernor::ShouldShed(PressureState::kPressure,
                                            Priority::kRescan));
  EXPECT_TRUE(OverloadGovernor::ShouldShed(PressureState::kCritical,
                                           Priority::kRescan));
  EXPECT_FALSE(OverloadGovernor::ShouldShed(PressureState::kCritical,
                                            Priority::kInteractive));
}

TEST(OverloadGovernor, BlobPoolWatermarkAloneTriggersPressure) {
  OverloadConfig config;
  config.shed = true;
  config.pool_pressure_bytes = 1000;
  config.pool_critical_bytes = 2000;
  OverloadGovernor governor(config);
  EXPECT_EQ(governor.Evaluate(0, 10, 999), PressureState::kNormal);
  EXPECT_EQ(governor.Evaluate(0, 10, 1000), PressureState::kPressure);
  EXPECT_EQ(governor.Evaluate(0, 10, 2500), PressureState::kCritical);
  // Queue is empty but the pool is still pressured: hold critical.
  EXPECT_EQ(governor.Evaluate(0, 10, 1500), PressureState::kCritical);
  EXPECT_EQ(governor.Evaluate(0, 10, 0), PressureState::kNormal);
}

// End-to-end shed order through the service: with a paused scheduler and a
// tiny lane, bulk sheds at the pressure watermark, rescan at critical, and
// interactive is admitted in every state.
TEST(VettingService, ShedsBulkBeforeRescanAndNeverInteractive) {
  ServiceConfig config = SmallConfig();
  config.num_shards = 1;
  config.shard_capacity = 8;  // class_capacity == 8.
  config.start_paused = true;
  config.overload.shed = true;
  config.overload.queue_pressure = 0.25;  // Depth 2.
  config.overload.queue_critical = 0.50;  // Depth 4.
  config.overload.queue_release = 0.10;
  VettingService service(TestUniverse(), config, TrainedChecker());

  uint64_t seed = 7000;
  auto submit = [&](Priority priority) {
    return service.Submit(MakeSubmission(MakeApkBytes(++seed), priority));
  };
  std::vector<std::future<VettingResult>> queued;

  auto bulk1 = submit(Priority::kBulk);
  auto bulk2 = submit(Priority::kBulk);
  ASSERT_TRUE(bulk1.ok() && bulk2.ok());  // Depth 0, 1: below pressure.
  queued.push_back(std::move(*bulk1));
  queued.push_back(std::move(*bulk2));

  // Depth 2 / 8 == pressure: this bulk submission is shed, immediately.
  auto bulk3 = submit(Priority::kBulk);
  ASSERT_TRUE(bulk3.ok());
  ASSERT_EQ(bulk3->wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const VettingResult shed_result = bulk3->get();
  EXPECT_EQ(shed_result.status, VetStatus::kShedOverload);
  EXPECT_EQ(shed_result.error, "pressure");
  EXPECT_EQ(service.pressure_state(), PressureState::kPressure);

  // Rescan still rides through pressure...
  auto rescan1 = submit(Priority::kRescan);
  auto rescan2 = submit(Priority::kRescan);
  ASSERT_TRUE(rescan1.ok() && rescan2.ok());
  queued.push_back(std::move(*rescan1));
  queued.push_back(std::move(*rescan2));

  // ...until depth 4 / 8 == critical sheds it too.
  auto rescan3 = submit(Priority::kRescan);
  ASSERT_TRUE(rescan3.ok());
  ASSERT_EQ(rescan3->wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(rescan3->get().status, VetStatus::kShedOverload);
  EXPECT_EQ(service.pressure_state(), PressureState::kCritical);

  // Interactive is admitted even at critical.
  for (int i = 0; i < 3; ++i) {
    auto interactive = submit(Priority::kInteractive);
    ASSERT_TRUE(interactive.ok());
    EXPECT_NE(interactive->wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "interactive must be queued, not shed";
    queued.push_back(std::move(*interactive));
  }

  service.Start();
  for (auto& future : queued) {
    ASSERT_EQ(future.wait_for(std::chrono::seconds(60)),
              std::future_status::ready);
    EXPECT_EQ(future.get().status, VetStatus::kOk);
  }
  service.Shutdown();

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.accepted, stats.resolved());
  EXPECT_EQ(stats.shed_overload, 2u);
  EXPECT_EQ(stats.shed_by_class[static_cast<size_t>(Priority::kBulk)], 1u);
  EXPECT_EQ(stats.shed_by_class[static_cast<size_t>(Priority::kRescan)], 1u);
  EXPECT_EQ(stats.shed_by_class[static_cast<size_t>(Priority::kInteractive)],
            0u);
  EXPECT_GE(service.pressure_transitions(), 2u);
  EXPECT_GE(CounterValue(obs::names::kServeShedTotal), 2u);
  EXPECT_GE(
      CounterValue(
          ClassSeriesName(obs::names::kServeShedTotal, Priority::kBulk).c_str()),
      1u);
}

// A class SLO acts as the default deadline AND pulls the linger in: a single
// tight-SLO submission in a never-filling batch resolves (here: expires,
// visibly, as class-labeled) at its deadline instead of the 500ms linger.
TEST(VettingService, ClassSloSetsDefaultDeadlineAndBoundsLinger) {
  ServiceConfig config = SmallConfig();
  config.scheduler.batch_size = 16;
  config.scheduler.max_linger = std::chrono::milliseconds(500);
  config.overload.class_slo[static_cast<size_t>(Priority::kInteractive)] =
      std::chrono::milliseconds(40);
  VettingService service(TestUniverse(), config, TrainedChecker());

  const auto start = Clock::now();
  auto accepted =
      service.Submit(MakeSubmission(MakeApkBytes(8101), Priority::kInteractive));
  ASSERT_TRUE(accepted.ok());
  const VettingResult result = accepted->get();
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  EXPECT_EQ(result.status, VetStatus::kDeadlineExpired);
  EXPECT_LT(elapsed_ms, 400.0);  // Flushed at the SLO, not the linger.
  service.Shutdown();
  EXPECT_EQ(service.stats().expired_by_class[static_cast<size_t>(
                Priority::kInteractive)],
            1u);
}

// The registry side of the ledger: every resolution counter, its
// {class=...} siblings where it has them, and the e2e histogram counts.
std::map<std::string, uint64_t> LedgerSeries() {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Default();
  std::map<std::string, uint64_t> series;
  for (const char* base :
       {obs::names::kServeAcceptedTotal, obs::names::kServeRejectedTotal,
        obs::names::kServeCompletedTotal, obs::names::kServeDeadlineExpiredTotal,
        obs::names::kServeParseErrorsTotal,
        obs::names::kServeFarmRejectedUnhealthyTotal, obs::names::kServeShedTotal,
        obs::names::kServeCacheHitsTotal}) {
    series[base] = metrics.counter(base).value();
  }
  series[obs::names::kServeE2eLatencyMs] =
      metrics.histogram(obs::names::kServeE2eLatencyMs).count();
  for (size_t c = 0; c < kNumPriorityClasses; ++c) {
    const Priority priority = static_cast<Priority>(c);
    for (const char* base :
         {obs::names::kServeAcceptedTotal, obs::names::kServeCompletedTotal,
          obs::names::kServeDeadlineExpiredTotal, obs::names::kServeShedTotal}) {
      series[ClassSeriesName(base, priority)] =
          metrics.counter(ClassSeriesName(base, priority)).value();
    }
    const std::string e2e = ClassSeriesName(obs::names::kServeE2eLatencyMs, priority);
    series[e2e] = metrics.histogram(e2e).count();
  }
  return series;
}

// Every way a submission leaves the service is driven deterministically, one
// service per setup: the admission fast path, shed, triage expiry, an
// in-batch follower, a parse error, a pool reject and an admission refusal.
// Each delivered status must match ServiceStats per status and class, the
// registry's class series must sum to their unlabeled totals, e2e must be
// observed once per acceptance, and every sealed trace must partition its
// total and end in `resolve` (a refusal: sealed `rejected`, no breakdown).
// Each labeled latency family is created with its total's bucket ladder, so
// its series sum, bucket by bucket, to the total: a Prometheus
// histogram_quantile over the labeled series then agrees with the total.
TEST(VettingService, LabeledLatencyFamiliesShareTheirTotalsBuckets) {
  {
    VettingService service(TestUniverse(), SmallConfig(), TrainedChecker());
    // Every class, each with a small, a medium and a large APK.
    const size_t pad_to[] = {0, 512 * 1024, 5 * 1024 * 1024};
    std::vector<std::future<VettingResult>> futures;
    uint64_t seed = 9100;
    for (size_t c = 0; c < kNumPriorityClasses; ++c) {
      for (size_t target : pad_to) {
        std::vector<uint8_t> bytes = MakeApkBytes(++seed);
        if (target > 0) {
          auto padded = apk::PadApk(bytes, target, seed);
          ASSERT_TRUE(padded.ok());
          bytes = std::move(*padded);
        }
        auto future =
            service.Submit(MakeSubmission(std::move(bytes), static_cast<Priority>(c)));
        ASSERT_TRUE(future.ok());
        futures.push_back(std::move(*future));
      }
    }
    for (std::future<VettingResult>& future : futures) {
      ASSERT_EQ(future.wait_for(std::chrono::seconds(60)), std::future_status::ready);
    }
    service.Shutdown();
  }

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  auto expect_family_sums_to_total = [&registry](
                                         const char* total_name,
                                         const std::vector<std::string>& labeled) {
    SCOPED_TRACE(total_name);
    const obs::HistogramSnapshot total = registry.histogram(total_name).Snapshot();
    std::vector<uint64_t> sums(total.bucket_counts.size(), 0);
    for (const std::string& name : labeled) {
      const obs::HistogramSnapshot series = registry.histogram(name).Snapshot();
      EXPECT_GT(series.count, 0u) << name;
      ASSERT_EQ(series.bounds, total.bounds) << name;
      for (size_t b = 0; b < sums.size(); ++b) {
        sums[b] += series.bucket_counts[b];
      }
    }
    EXPECT_EQ(sums, total.bucket_counts);
  };
  std::vector<std::string> by_class;
  for (size_t c = 0; c < kNumPriorityClasses; ++c) {
    by_class.push_back(
        ClassSeriesName(obs::names::kServeE2eLatencyMs, static_cast<Priority>(c)));
  }
  std::vector<std::string> by_size;
  for (const char* bucket : kApkSizeBuckets) {
    by_size.push_back(AdmissionSeriesName(obs::names::kServeAdmissionLatencyMs, bucket));
  }
  expect_family_sums_to_total(obs::names::kServeE2eLatencyMs, by_class);
  expect_family_sums_to_total(obs::names::kServeAdmissionLatencyMs, by_size);
}

TEST(VettingService, EveryExitPathResolvesOnceThroughTheLedger) {
  obs::TraceCollector& collector = obs::TraceCollector::Default();
  collector.Clear();
  const std::map<std::string, uint64_t> before = LedgerSeries();

  ResolutionMatrix delivered{};
  ServiceStats sum;
  auto deliver = [&delivered](Priority priority,
                              std::future<VettingResult>& future) {
    EXPECT_EQ(future.wait_for(std::chrono::seconds(60)),
              std::future_status::ready);
    const VettingResult result = future.get();
    ++delivered[static_cast<size_t>(result.status)][static_cast<size_t>(priority)];
    return result;
  };
  auto drain = [&sum](VettingService& service) {
    service.Shutdown();
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.accepted, stats.resolved());
    EXPECT_EQ(stats.submitted, stats.accepted + stats.rejected);
    sum.accepted += stats.accepted;
    sum.rejected += stats.rejected;
    sum.cache_hits += stats.cache_hits;
    for (size_t s = 0; s < kNumVetStatuses; ++s) {
      for (size_t c = 0; c < kNumPriorityClasses; ++c) {
        sum.resolutions[s][c] += stats.resolutions[s][c];
      }
    }
  };

  {
    // Triage expiry, an in-batch follower and a parse error in one batch of
    // four, queued while paused; then the admission fast path.
    ServiceConfig config = SmallConfig();
    config.start_paused = true;
    config.trace_sample_rate = 1.0;
    VettingService service(TestUniverse(), config, TrainedChecker());
    const std::vector<uint8_t> apk = MakeApkBytes(8201);
    auto expired = service.Submit(MakeSubmission(
        MakeApkBytes(8202), Priority::kInteractive, std::chrono::milliseconds(1)));
    auto leader = service.Submit(MakeSubmission(apk, Priority::kRescan));
    auto follower = service.Submit(MakeSubmission(apk, Priority::kBulk));
    auto garbage = service.Submit(MakeSubmission({'j', 'u', 'n', 'k'}));
    ASSERT_TRUE(expired.ok() && leader.ok() && follower.ok() && garbage.ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    service.Start();
    EXPECT_EQ(deliver(Priority::kInteractive, *expired).status,
              VetStatus::kDeadlineExpired);
    const VettingResult led = deliver(Priority::kRescan, *leader);
    const VettingResult followed = deliver(Priority::kBulk, *follower);
    EXPECT_EQ(led.status, VetStatus::kOk);
    EXPECT_EQ(followed.status, VetStatus::kOk);
    EXPECT_NE(led.from_cache, followed.from_cache);  // One emulation, one copy.
    EXPECT_EQ(deliver(Priority::kBulk, *garbage).status, VetStatus::kParseError);

    const uint64_t pushes = service.shard_pushes();
    auto fast = service.Submit(MakeSubmission(apk, Priority::kInteractive));
    ASSERT_TRUE(fast.ok());
    const VettingResult fast_result = deliver(Priority::kInteractive, *fast);
    EXPECT_EQ(fast_result.status, VetStatus::kOk);
    EXPECT_TRUE(fast_result.from_cache);
    EXPECT_EQ(service.shard_pushes(), pushes);
    drain(service);
  }
  {
    // Shed: bulk at the pressure watermark of a paused single-shard service.
    ServiceConfig config = SmallConfig();
    config.num_shards = 1;
    config.shard_capacity = 8;
    config.start_paused = true;
    config.overload.shed = true;
    config.overload.queue_pressure = 0.25;  // Depth 2.
    config.overload.queue_critical = 0.50;
    config.overload.queue_release = 0.10;
    config.trace_sample_rate = 1.0;
    VettingService service(TestUniverse(), config, TrainedChecker());
    std::vector<std::future<VettingResult>> futures;
    for (uint64_t seed = 8211; seed <= 8213; ++seed) {
      auto accepted = service.Submit(MakeSubmission(MakeApkBytes(seed)));
      ASSERT_TRUE(accepted.ok());
      futures.push_back(std::move(*accepted));
    }
    EXPECT_EQ(deliver(Priority::kBulk, futures[2]).status,
              VetStatus::kShedOverload);
    service.Start();
    EXPECT_EQ(deliver(Priority::kBulk, futures[0]).status, VetStatus::kOk);
    EXPECT_EQ(deliver(Priority::kBulk, futures[1]).status, VetStatus::kOk);
    drain(service);
  }
  {
    // A pool reject (the only farm faults its first batch) and an admission
    // refusal (a full one-slot lane).
    ServiceConfig config = SmallConfig();
    config.num_shards = 1;
    config.shard_capacity = 1;
    config.start_paused = true;
    config.scheduler.batch_size = 1;
    config.pool.num_farms = 1;
    emu::FaultWindow window;
    window.farm_id = 0;
    window.from_batch = 1;
    window.to_batch = 1;
    config.pool.fault_plan.windows.push_back(window);
    config.trace_sample_rate = 1.0;
    VettingService service(TestUniverse(), config, TrainedChecker());
    auto rejected = service.Submit(MakeSubmission(MakeApkBytes(8221)));
    ASSERT_TRUE(rejected.ok());
    auto refused = service.Submit(MakeSubmission(MakeApkBytes(8222)));
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.error(), "admission queue full");
    service.Start();
    EXPECT_EQ(deliver(Priority::kBulk, *rejected).status,
              VetStatus::kRejectedUnhealthy);
    drain(service);
  }

  // Every path was taken, and ServiceStats saw exactly what was delivered.
  EXPECT_EQ(sum.resolutions, delivered);
  const auto count = [&sum](VetStatus status) {
    uint64_t n = 0;
    for (uint64_t v : sum.resolutions[static_cast<size_t>(status)]) n += v;
    return n;
  };
  EXPECT_EQ(count(VetStatus::kOk), 5u);
  EXPECT_EQ(count(VetStatus::kDeadlineExpired), 1u);
  EXPECT_EQ(count(VetStatus::kParseError), 1u);
  EXPECT_EQ(count(VetStatus::kRejectedUnhealthy), 1u);
  EXPECT_EQ(count(VetStatus::kShedOverload), 1u);
  EXPECT_EQ(sum.accepted, sum.resolved());
  EXPECT_EQ(sum.accepted, 9u);
  EXPECT_EQ(sum.rejected, 1u);
  EXPECT_EQ(sum.cache_hits, 2u);  // The follower and the fast path.

  // Registry side: each class family sums to its unlabeled delta, the
  // statuses to the acceptances, and e2e is observed once per acceptance.
  const std::map<std::string, uint64_t> after = LedgerSeries();
  auto delta = [&](const std::string& name) { return after.at(name) - before.at(name); };
  for (const char* base :
       {obs::names::kServeAcceptedTotal, obs::names::kServeCompletedTotal,
        obs::names::kServeDeadlineExpiredTotal, obs::names::kServeShedTotal,
        obs::names::kServeE2eLatencyMs}) {
    uint64_t by_class = 0;
    for (size_t c = 0; c < kNumPriorityClasses; ++c) {
      by_class += delta(ClassSeriesName(base, static_cast<Priority>(c)));
    }
    EXPECT_EQ(by_class, delta(base)) << base;
  }
  EXPECT_EQ(delta(obs::names::kServeAcceptedTotal), sum.accepted);
  EXPECT_EQ(delta(obs::names::kServeRejectedTotal), sum.rejected);
  EXPECT_EQ(delta(obs::names::kServeCacheHitsTotal), sum.cache_hits);
  EXPECT_EQ(delta(obs::names::kServeE2eLatencyMs), sum.accepted);
  EXPECT_EQ(delta(obs::names::kServeCompletedTotal) +
                delta(obs::names::kServeDeadlineExpiredTotal) +
                delta(obs::names::kServeParseErrorsTotal) +
                delta(obs::names::kServeFarmRejectedUnhealthyTotal) +
                delta(obs::names::kServeShedTotal),
            sum.accepted);

  // Trace side: one sealed trace per submission.
  const std::vector<obs::Trace> traces = collector.Completed();
  ASSERT_EQ(traces.size(), sum.accepted + sum.rejected);
  std::map<std::string, size_t> by_status;
  for (const obs::Trace& trace : traces) {
    ++by_status[trace.status];
    if (trace.status == "rejected") {
      EXPECT_TRUE(trace.breakdown.empty());
      continue;
    }
    ASSERT_FALSE(trace.breakdown.empty()) << trace.status;
    EXPECT_EQ(trace.breakdown.back().stage, obs::stages::kResolve) << trace.status;
    EXPECT_TRUE(trace.HasStage(obs::stages::kResolve)) << trace.status;
    EXPECT_NEAR(trace.BreakdownSumMs(), trace.total_ms,
                0.01 * trace.total_ms + 0.05)
        << trace.status;
  }
  EXPECT_EQ(by_status["ok"], 5u);
  EXPECT_EQ(by_status["deadline_expired"], 1u);
  EXPECT_EQ(by_status["parse_error"], 1u);
  EXPECT_EQ(by_status["rejected_unhealthy"], 1u);
  EXPECT_EQ(by_status["shed_overload"], 1u);
  EXPECT_EQ(by_status["rejected"], 1u);
}

// ---------------------------------------------------------------------------
// Property-style storm tier: randomized storms (seeded priorities, sizes,
// fault rates, hot swaps, spill thresholds) must hold the extended accounting
// invariant and the "interactive never shed" guarantee on every seed.
// ---------------------------------------------------------------------------

const std::vector<std::vector<uint8_t>>& StormApkPool() {
  static const std::vector<std::vector<uint8_t>> pool = [] {
    std::vector<std::vector<uint8_t>> apks;
    for (uint64_t i = 0; i < 5; ++i) {
      apks.push_back(MakeApkBytes(9100 + i));
    }
    return apks;
  }();
  return pool;
}

void RunStorm(uint64_t seed) {
  SCOPED_TRACE("storm seed " + std::to_string(seed));
  util::Rng rng(seed);

  const ingest::ApkBlob::SpillConfig previous_spill =
      ingest::ApkBlob::SetSpillConfig(
          seed % 3 == 0
              ? ingest::ApkBlob::SpillConfig{1 + rng.NextBounded(64 * 1024), ""}
              : ingest::ApkBlob::SpillConfig{});

  ServiceConfig config;
  config.num_shards = 1 + rng.NextBounded(3);
  config.shard_capacity = 2 + rng.NextBounded(12);
  config.cache_capacity = 64;
  config.farm.num_emulators = 2;
  config.scheduler.batch_size = 1 + rng.NextBounded(6);
  config.scheduler.max_linger =
      std::chrono::milliseconds(rng.NextBounded(5));
  config.pool.num_farms = 1 + rng.NextBounded(2);
  if (config.pool.num_farms > 1 && rng.Bernoulli(0.5)) {
    emu::FaultWindow window;
    window.farm_id = 0;
    window.from_batch = 1;
    window.to_batch = 1 + rng.NextBounded(3);
    config.pool.fault_plan.windows.push_back(window);
    config.pool.max_attempts = 2;
  }
  config.start_paused = rng.Bernoulli(0.5);
  config.overload.shed = rng.Bernoulli(0.5);
  config.overload.queue_pressure = rng.Uniform(0.2, 0.6);
  config.overload.queue_critical = config.overload.queue_pressure + 0.2;
  config.overload.queue_release = 0.1;
  for (size_t c = 0; c < kNumPriorityClasses; ++c) {
    config.overload.class_weights[c] =
        static_cast<uint32_t>(1 + rng.NextBounded(8));
  }
  if (rng.Bernoulli(0.5)) {
    config.overload.class_slo[static_cast<size_t>(Priority::kInteractive)] =
        std::chrono::milliseconds(20 + rng.NextBounded(60));
  }
  if (rng.Bernoulli(0.3)) {
    config.overload.class_slo[static_cast<size_t>(Priority::kBulk)] =
        std::chrono::milliseconds(1 + rng.NextBounded(30));
  }

  VettingService service(TestUniverse(), config, TrainedChecker());

  constexpr size_t kSubmissions = 16;
  std::vector<std::future<VettingResult>> futures;
  size_t admission_rejected = 0;
  for (size_t i = 0; i < kSubmissions; ++i) {
    Submission submission;
    submission.priority = static_cast<Priority>(rng.NextBounded(3));
    if (rng.Bernoulli(0.15)) {
      // Garbage bytes of a seeded size: the parse-error path under storm.
      std::vector<uint8_t> junk(4 + rng.NextBounded(512));
      for (auto& byte : junk) {
        byte = static_cast<uint8_t>(rng.Next());
      }
      submission.blob = ingest::ApkBlob::FromBytes(std::move(junk));
    } else {
      submission.blob = ingest::ApkBlob::FromBytes(
          StormApkPool()[rng.NextBounded(StormApkPool().size())]);
    }
    if (rng.Bernoulli(0.2)) {
      submission.deadline = std::chrono::milliseconds(rng.NextBounded(3));
    }
    auto accepted = service.Submit(std::move(submission));
    if (accepted.ok()) {
      futures.push_back(std::move(*accepted));
    } else {
      ++admission_rejected;
    }
    if (i == kSubmissions / 2 && rng.Bernoulli(0.4)) {
      EXPECT_TRUE(service.SwapModelFromBlob(TrainedBlob()).ok());
    }
  }
  service.Start();

  std::array<uint64_t, 5> by_status{};
  for (auto& future : futures) {
    ASSERT_EQ(future.wait_for(std::chrono::seconds(60)),
              std::future_status::ready)
        << "submission hung";
    ++by_status[static_cast<size_t>(future.get().status)];
  }
  service.Shutdown();
  ingest::ApkBlob::SetSpillConfig(previous_spill);

  const ServiceStats stats = service.stats();
  // The tentpole invariant, extended for shedding: every accepted submission
  // resolved with exactly one visible status.
  EXPECT_EQ(stats.accepted, stats.resolved());
  EXPECT_EQ(stats.accepted, futures.size());
  EXPECT_EQ(stats.submitted, stats.accepted + stats.rejected);
  EXPECT_EQ(stats.rejected, admission_rejected);
  EXPECT_EQ(by_status[static_cast<size_t>(VetStatus::kOk)], stats.completed);
  EXPECT_EQ(by_status[static_cast<size_t>(VetStatus::kDeadlineExpired)],
            stats.deadline_expired);
  EXPECT_EQ(by_status[static_cast<size_t>(VetStatus::kParseError)],
            stats.parse_errors);
  EXPECT_EQ(by_status[static_cast<size_t>(VetStatus::kRejectedUnhealthy)],
            stats.rejected_unhealthy);
  EXPECT_EQ(by_status[static_cast<size_t>(VetStatus::kShedOverload)],
            stats.shed_overload);
  // Interactive is never shed, no matter how the storm landed.
  EXPECT_EQ(stats.shed_by_class[static_cast<size_t>(Priority::kInteractive)],
            0u);
  const uint64_t class_shed_sum =
      stats.shed_by_class[0] + stats.shed_by_class[1] + stats.shed_by_class[2];
  EXPECT_EQ(class_shed_sum, stats.shed_overload);
}

TEST(VettingServiceStorm, RandomizedStormsHoldTheAccountingInvariant) {
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    RunStorm(seed);
    if (testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

// Storm soak (ctest label: stress; runs under TSan in tools/ci.sh): four
// producer classes flood a flapping 3-farm pool with shedding enabled while
// the spill threshold crosses mid-storm from "nothing spills" to "everything
// spills". Zero acknowledged verdicts may be lost and interactive is never
// shed.
TEST(VettingServiceSoak, MixedClassStormShedsSpillsAndLosesNothing) {
  const ingest::ApkBlob::SpillConfig previous_spill =
      ingest::ApkBlob::SetSpillConfig({1 << 30, ""});  // Effectively off.

  ServiceConfig config;
  config.num_shards = 2;
  config.shard_capacity = 24;
  config.cache_capacity = 4096;
  config.farm.num_emulators = 4;
  config.scheduler.batch_size = 4;
  config.scheduler.max_linger = std::chrono::milliseconds(2);
  config.pool.num_farms = 3;
  config.pool.max_attempts = 3;
  config.pool.breaker_failure_streak = 2;
  config.pool.breaker_cooldown = std::chrono::milliseconds(30);
  for (uint64_t from = 1; from <= 13; from += 6) {
    emu::FaultWindow window;
    window.farm_id = 0;
    window.from_batch = from;
    window.to_batch = from + 2;
    config.pool.fault_plan.windows.push_back(window);
  }
  config.overload.shed = true;
  config.overload.queue_pressure = 0.5;
  config.overload.queue_critical = 0.8;
  config.overload.queue_release = 0.3;
  config.overload.class_slo[static_cast<size_t>(Priority::kInteractive)] =
      std::chrono::milliseconds(30'000);  // Generous: a deadline, not a trap.
  VettingService service(TestUniverse(), config, TrainedChecker());

  constexpr size_t kDistinctApks = 6;
  constexpr size_t kSubmitsPerProducer = 40;
  std::vector<std::vector<uint8_t>> apks;
  for (size_t i = 0; i < kDistinctApks; ++i) {
    apks.push_back(MakeApkBytes(9600 + i));
  }

  // Four producer classes: interactive, rescan, and two bulk storms. Blobs
  // are materialized at submit time so the mid-storm spill threshold change
  // actually changes where fresh payloads land.
  const Priority producer_class[4] = {Priority::kInteractive, Priority::kRescan,
                                      Priority::kBulk, Priority::kBulk};
  std::vector<std::thread> producers;
  std::vector<std::vector<std::future<VettingResult>>> futures(4);
  std::atomic<size_t> admission_rejected{0};
  for (size_t t = 0; t < 4; ++t) {
    producers.emplace_back([&, t] {
      for (size_t i = 0; i < kSubmitsPerProducer; ++i) {
        if (t == 0 && i == kSubmitsPerProducer / 2) {
          // Mid-storm spill-threshold crossing: from "nothing spills" to
          // "every fresh APK spills".
          ingest::ApkBlob::SetSpillConfig({8 * 1024, ""});
        }
        Submission submission;
        submission.priority = producer_class[t];
        submission.blob = ingest::ApkBlob::FromBytes(
            apks[(t * 5 + i) % kDistinctApks]);
        auto accepted = service.Submit(std::move(submission));
        if (accepted.ok()) {
          futures[t].push_back(std::move(*accepted));
        } else {
          admission_rejected.fetch_add(1);
        }
      }
    });
  }
  for (auto& producer : producers) {
    producer.join();
  }

  size_t resolved = 0;
  size_t interactive_shed_seen = 0;
  for (size_t t = 0; t < 4; ++t) {
    for (auto& future : futures[t]) {
      ASSERT_EQ(future.wait_for(std::chrono::seconds(60)),
                std::future_status::ready)
          << "submission hung";
      const VettingResult result = future.get();
      if (producer_class[t] == Priority::kInteractive &&
          result.status == VetStatus::kShedOverload) {
        ++interactive_shed_seen;
      }
      ++resolved;
    }
  }
  service.Shutdown();
  ingest::ApkBlob::SetSpillConfig(previous_spill);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.accepted, stats.resolved());  // Zero lost verdicts.
  EXPECT_EQ(stats.accepted, resolved);
  EXPECT_EQ(stats.accepted + admission_rejected.load(),
            4 * kSubmitsPerProducer);
  EXPECT_EQ(interactive_shed_seen, 0u);
  EXPECT_EQ(stats.shed_by_class[static_cast<size_t>(Priority::kInteractive)],
            0u);
  // The threshold crossing actually spilled fresh payloads.
  EXPECT_GT(CounterValue(obs::names::kIngestBlobsSpilledTotal), 0u);
}

}  // namespace
}  // namespace apichecker::serve
