// Unit tests for src/emu: the Monkey model, RAC coverage, the dynamic
// analysis engine's gating/cost semantics, and the device farm.

#include <algorithm>
#include <cstdint>
#include <future>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "emu/coverage.h"
#include "emu/engine.h"
#include "emu/farm.h"
#include "rt/runtime.h"
#include "synth/corpus.h"

namespace apichecker::emu {
namespace {

const android::ApiUniverse& TestUniverse() {
  static const android::ApiUniverse universe = [] {
    android::UniverseConfig config;
    config.num_apis = 6'000;
    return android::ApiUniverse::Generate(config);
  }();
  return universe;
}

apk::ApkFile MakeApp(uint64_t seed, bool malicious = false) {
  synth::CorpusConfig config;
  config.seed = seed;
  config.malicious_fraction = malicious ? 1.0 : 0.0;
  config.update_fraction = 0.0;
  synth::CorpusGenerator gen(TestUniverse(), config);
  const synth::AppProfile profile = gen.Next();
  auto apk = apk::ParseApk(synth::BuildApkBytes(profile, TestUniverse()));
  EXPECT_TRUE(apk.ok());
  return std::move(*apk);
}

TEST(Monkey, StreamHasRequestedShape) {
  MonkeyConfig config;
  config.num_events = 1'000;
  config.pct_touch = 0.7;
  const auto events = GenerateEventStream(config);
  ASSERT_EQ(events.size(), 1'000u);
  size_t touches = 0;
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].timestamp_ms, events[i - 1].timestamp_ms);
  }
  for (const UiEvent& e : events) {
    touches += e.kind == UiEventKind::kTouch ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(touches) / events.size(), 0.7, 0.05);
}

TEST(Monkey, HumanizedStreamPassesRoboticCheck) {
  MonkeyConfig humanized;  // 500 ms throttle, 0.65 touch: the §4.2 tuning.
  humanized.num_events = 256;
  EXPECT_FALSE(LooksRobotic(GenerateEventStream(humanized)));

  MonkeyConfig robotic = humanized;
  robotic.throttle_ms = 0;
  robotic.pct_touch = 1.0;
  EXPECT_TRUE(LooksRobotic(GenerateEventStream(robotic)));
}

TEST(Coverage, ExpectedRacMatchesPaperCalibration) {
  // ~76.5% at 5K events; ~86% at 100K (paper Fig 1).
  EXPECT_NEAR(ExpectedRac(5'000), 0.765, 0.015);
  EXPECT_NEAR(ExpectedRac(100'000), 0.87, 0.02);
  EXPECT_LT(ExpectedRac(500), 0.2);
}

TEST(Coverage, MonotoneInEvents) {
  CoverageModelParams params;
  uint32_t prev = 0;
  for (uint32_t events : {100u, 1'000u, 5'000u, 20'000u, 100'000u}) {
    const CoverageResult r = ComputeCoverage(events, 40, 0xabc, params);
    EXPECT_GE(r.covered_count, prev);
    prev = r.covered_count;
    EXPECT_LE(r.covered_count, 40u);
  }
}

TEST(Coverage, CoveredSetGrowsAsPrefix) {
  const CoverageResult small = ComputeCoverage(2'000, 30, 0x1dea);
  const CoverageResult large = ComputeCoverage(50'000, 30, 0x1dea);
  for (size_t a = 0; a < 30; ++a) {
    if (small.covered[a]) {
      EXPECT_TRUE(large.covered[a]);  // No activity "uncovers" with more events.
    }
  }
}

TEST(Coverage, DeterministicPerSeed) {
  const CoverageResult a = ComputeCoverage(5'000, 25, 7);
  const CoverageResult b = ComputeCoverage(5'000, 25, 7);
  EXPECT_EQ(a.covered, b.covered);
  const CoverageResult c = ComputeCoverage(5'000, 25, 8);
  EXPECT_TRUE(a.covered != c.covered || a.covered_count != c.covered_count ||
              true);  // Different seeds usually differ; both stay valid.
  EXPECT_EQ(c.covered.size(), 25u);
}

TEST(Coverage, ZeroActivities) {
  const CoverageResult r = ComputeCoverage(5'000, 0, 1);
  EXPECT_EQ(r.covered_count, 0u);
  EXPECT_EQ(r.rac, 0.0);
}

TEST(TrackedApiSet, MembershipAndCount) {
  const std::vector<android::ApiId> ids = {1, 5, 5, 9};
  const TrackedApiSet set(ids, 20);
  EXPECT_EQ(set.count(), 3u);
  EXPECT_TRUE(set.Contains(5));
  EXPECT_FALSE(set.Contains(6));
  EXPECT_FALSE(set.Contains(100));  // Out of range is safely false.
  EXPECT_EQ(TrackedApiSet::All(20).count(), 20u);
  EXPECT_EQ(TrackedApiSet::None(20).count(), 0u);
}

TEST(Engine, DeterministicReports) {
  const apk::ApkFile apk = MakeApp(1);
  const DynamicAnalysisEngine engine(TestUniverse(), {});
  const TrackedApiSet all = TrackedApiSet::All(TestUniverse().num_apis());
  const EmulationReport a = engine.Run(apk, all);
  const EmulationReport b = engine.Run(apk, all);
  EXPECT_EQ(a.observed_apis, b.observed_apis);
  EXPECT_EQ(a.total_invocations, b.total_invocations);
  EXPECT_DOUBLE_EQ(a.emulation_minutes, b.emulation_minutes);
}

TEST(Engine, TrackedSubsetIsProjection) {
  const apk::ApkFile apk = MakeApp(2, /*malicious=*/true);
  const DynamicAnalysisEngine engine(TestUniverse(), {});
  const TrackedApiSet all = TrackedApiSet::All(TestUniverse().num_apis());
  const EmulationReport full = engine.Run(apk, all);
  ASSERT_FALSE(full.observed_apis.empty());

  // Track only half of the observed APIs: the report must be exactly the
  // intersection, and invocation totals must not change.
  std::vector<android::ApiId> half(full.observed_apis.begin(),
                                   full.observed_apis.begin() +
                                       static_cast<ptrdiff_t>(full.observed_apis.size() / 2));
  const TrackedApiSet subset(half, TestUniverse().num_apis());
  const EmulationReport partial = engine.Run(apk, subset);
  EXPECT_EQ(partial.observed_apis, half);
  EXPECT_EQ(partial.total_invocations, full.total_invocations);
  EXPECT_LE(partial.tracked_invocations, full.tracked_invocations);
}

TEST(Engine, TrackNoneIsCheapestTrackAllIsDearest) {
  const apk::ApkFile apk = MakeApp(3);
  const DynamicAnalysisEngine engine(TestUniverse(), {});
  const auto none = engine.Run(apk, TrackedApiSet::None(TestUniverse().num_apis()));
  const auto all = engine.Run(apk, TrackedApiSet::All(TestUniverse().num_apis()));
  EXPECT_EQ(none.tracked_invocations, 0u);
  EXPECT_TRUE(none.observed_apis.empty());
  EXPECT_GT(all.tracked_invocations, 0u);
  EXPECT_LT(none.emulation_minutes, all.emulation_minutes);
}

TEST(Engine, MoreMonkeyEventsMoreInvocations) {
  const apk::ApkFile apk = MakeApp(4);
  EngineConfig small_config;
  small_config.monkey.num_events = 1'000;
  EngineConfig large_config;
  large_config.monkey.num_events = 20'000;
  const DynamicAnalysisEngine small(TestUniverse(), small_config);
  const DynamicAnalysisEngine large(TestUniverse(), large_config);
  const TrackedApiSet none = TrackedApiSet::None(TestUniverse().num_apis());
  const auto small_report = small.Run(apk, none);
  const auto large_report = large.Run(apk, none);
  EXPECT_GT(large_report.total_invocations, small_report.total_invocations);
  EXPECT_GT(large_report.emulation_minutes, small_report.emulation_minutes);
  EXPECT_GE(large_report.rac, small_report.rac);
}

// Finds an emulator-detecting app from the malicious stream.
apk::ApkFile FindDetectorApp() {
  synth::CorpusConfig config;
  config.malicious_fraction = 1.0;
  config.update_fraction = 0.0;
  synth::CorpusGenerator gen(TestUniverse(), config);
  for (int i = 0; i < 2'000; ++i) {
    const synth::AppProfile p = gen.Next();
    if (p.emulator_sensitivity == synth::EmulatorSensitivity::kDetectsConfiguration) {
      bool has_guarded = false;
      for (const auto& usage : p.usage) {
        has_guarded |= usage.guarded && !usage.via_reflection;
      }
      if (has_guarded) {
        auto apk = apk::ParseApk(synth::BuildApkBytes(p, TestUniverse()));
        EXPECT_TRUE(apk.ok());
        return std::move(*apk);
      }
    }
  }
  ADD_FAILURE() << "no emulator-detecting app found";
  return {};
}

TEST(Engine, AntiDetectionRestoresBehaviour) {
  const apk::ApkFile detector = FindDetectorApp();
  const TrackedApiSet all = TrackedApiSet::All(TestUniverse().num_apis());

  EngineConfig naked;  // Emulator without countermeasures.
  naked.anti_detection = {false, false, false, false};
  EngineConfig enhanced;  // The §4.2 hardened emulator (defaults all-on).
  EngineConfig real;
  real.kind = EngineKind::kRealDevice;

  const auto on_naked = DynamicAnalysisEngine(TestUniverse(), naked).Run(detector, all);
  const auto on_enhanced = DynamicAnalysisEngine(TestUniverse(), enhanced).Run(detector, all);
  const auto on_real = DynamicAnalysisEngine(TestUniverse(), real).Run(detector, all);

  EXPECT_TRUE(on_naked.emulator_detected);
  EXPECT_FALSE(on_enhanced.emulator_detected);
  EXPECT_FALSE(on_real.emulator_detected);
  // The un-hardened emulator sees fewer distinct APIs than a real device;
  // the enhanced emulator sees the same count (§4.2's 98.6% experiment).
  EXPECT_LT(on_naked.distinct_apis_invoked, on_real.distinct_apis_invoked);
  EXPECT_EQ(on_enhanced.distinct_apis_invoked, on_real.distinct_apis_invoked);
}

TEST(Engine, LightweightIsFasterSameObservations) {
  const apk::ApkFile apk = MakeApp(5, /*malicious=*/true);
  EngineConfig google_config;
  EngineConfig light_config;
  light_config.kind = EngineKind::kLightweight;
  light_config.lightweight_incompat_rate = 0.0;  // Isolate the speedup.
  const DynamicAnalysisEngine google(TestUniverse(), google_config);
  const DynamicAnalysisEngine light(TestUniverse(), light_config);
  const TrackedApiSet all = TrackedApiSet::All(TestUniverse().num_apis());
  const auto g = google.Run(apk, all);
  const auto l = light.Run(apk, all);
  EXPECT_EQ(g.observed_apis, l.observed_apis);
  EXPECT_NEAR(l.emulation_minutes / g.emulation_minutes, 0.3, 0.05);
  EXPECT_FALSE(l.fell_back);
}

TEST(Engine, FallbackCostsMoreThanLightweight) {
  EngineConfig forced_fallback;
  forced_fallback.kind = EngineKind::kLightweight;
  forced_fallback.lightweight_incompat_rate = 1.0;  // Every app falls back.
  EngineConfig google_config;
  const DynamicAnalysisEngine falling(TestUniverse(), forced_fallback);
  const DynamicAnalysisEngine google(TestUniverse(), google_config);
  const TrackedApiSet none = TrackedApiSet::None(TestUniverse().num_apis());
  const apk::ApkFile apk = MakeApp(6);
  const auto fb = falling.Run(apk, none);
  const auto g = google.Run(apk, none);
  EXPECT_TRUE(fb.fell_back);
  EXPECT_GT(fb.emulation_minutes, g.emulation_minutes);  // Wasted attempt + full rerun.
}

TEST(Engine, FallbackDisabledStaysLightweight) {
  EngineConfig config;
  config.kind = EngineKind::kLightweight;
  config.lightweight_incompat_rate = 1.0;
  config.enable_fallback = false;
  const DynamicAnalysisEngine engine(TestUniverse(), config);
  const auto report = engine.Run(MakeApp(7), TrackedApiSet::None(TestUniverse().num_apis()));
  EXPECT_FALSE(report.fell_back);
}

TEST(Engine, RunBytesPropagatesParseErrors) {
  const DynamicAnalysisEngine engine(TestUniverse(), {});
  const std::vector<uint8_t> garbage = {1, 2, 3};
  EXPECT_FALSE(engine.RunBytes(garbage, TrackedApiSet::None(1)).ok());
}

TEST(Engine, ObservedCountsParallelAndPositive) {
  const apk::ApkFile apk = MakeApp(21, /*malicious=*/true);
  const DynamicAnalysisEngine engine(TestUniverse(), {});
  const auto report = engine.Run(apk, TrackedApiSet::All(TestUniverse().num_apis()));
  ASSERT_EQ(report.observed_apis.size(), report.observed_api_counts.size());
  uint64_t sum = 0;
  for (uint32_t count : report.observed_api_counts) {
    EXPECT_GT(count, 0u);
    sum += count;
  }
  // Every tracked invocation is attributed to exactly one observed API.
  EXPECT_EQ(sum, report.tracked_invocations);
  EXPECT_TRUE(std::is_sorted(report.observed_apis.begin(), report.observed_apis.end()));
}

TEST(Engine, FuzzingRaisesCoverageAtHigherCost) {
  const apk::ApkFile apk = MakeApp(22);
  EngineConfig monkey_config;
  EngineConfig fuzz_config;
  fuzz_config.exploration = ExplorationStrategy::kCoverageGuidedFuzzing;
  const DynamicAnalysisEngine monkey(TestUniverse(), monkey_config);
  const DynamicAnalysisEngine fuzzer(TestUniverse(), fuzz_config);
  const TrackedApiSet none = TrackedApiSet::None(TestUniverse().num_apis());
  double monkey_rac = 0.0, fuzz_rac = 0.0, monkey_min = 0.0, fuzz_min = 0.0;
  for (uint64_t seed = 30; seed < 60; ++seed) {
    const apk::ApkFile app = MakeApp(seed);
    monkey_rac += monkey.Run(app, none).rac;
    fuzz_rac += fuzzer.Run(app, none).rac;
    monkey_min += monkey.Run(app, none).emulation_minutes;
    fuzz_min += fuzzer.Run(app, none).emulation_minutes;
  }
  EXPECT_GT(fuzz_rac, monkey_rac * 1.05);  // Better coverage...
  EXPECT_GT(fuzz_min, monkey_min * 1.2);   // ...at a real cost.
}

TEST(Farm, BatchCoversAllAppsAndMakespanBounds) {
  synth::CorpusConfig corpus_config;
  synth::CorpusGenerator gen(TestUniverse(), corpus_config);
  std::vector<apk::ApkFile> apks;
  for (int i = 0; i < 32; ++i) {
    auto apk = apk::ParseApk(synth::BuildApkBytes(gen.Next(), TestUniverse()));
    ASSERT_TRUE(apk.ok());
    apks.push_back(std::move(*apk));
  }
  FarmConfig config;
  config.num_emulators = 4;
  DeviceFarm farm(TestUniverse(), config);
  const BatchResult result =
      farm.RunBatch(apks, TrackedApiSet::None(TestUniverse().num_apis()));
  ASSERT_EQ(result.reports.size(), 32u);
  double max_minutes = 0.0;
  for (const auto& report : result.reports) {
    EXPECT_GT(report.emulation_minutes, 0.0);
    max_minutes = std::max(max_minutes, report.emulation_minutes);
  }
  // Makespan is at least total/4 (perfect packing) and at least the longest
  // single app; it never exceeds the serial total.
  EXPECT_GE(result.makespan_minutes, result.total_emulation_minutes / 4.0 - 1e-9);
  EXPECT_GE(result.makespan_minutes, max_minutes - 1e-9);
  EXPECT_LE(result.makespan_minutes, result.total_emulation_minutes + 1e-9);
}

void ExpectSameReport(const EmulationReport& got, const EmulationReport& want) {
  EXPECT_EQ(got.observed_apis, want.observed_apis);
  EXPECT_EQ(got.observed_api_counts, want.observed_api_counts);
  ASSERT_EQ(got.observed_intents.size(), want.observed_intents.size());
  for (size_t k = 0; k < want.observed_intents.size(); ++k) {
    EXPECT_EQ(got.observed_intents[k].action, want.observed_intents[k].action);
    EXPECT_EQ(got.observed_intents[k].carrier, want.observed_intents[k].carrier);
  }
  EXPECT_EQ(got.requested_permissions, want.requested_permissions);
  EXPECT_EQ(got.manifest_intent_filters, want.manifest_intent_filters);
  EXPECT_EQ(got.total_invocations, want.total_invocations);
  EXPECT_EQ(got.tracked_invocations, want.tracked_invocations);
  EXPECT_EQ(got.emulation_minutes, want.emulation_minutes);
  EXPECT_EQ(got.rac, want.rac);
  EXPECT_EQ(got.distinct_apis_invoked, want.distinct_apis_invoked);
  EXPECT_EQ(got.emulator_detected, want.emulator_detected);
  EXPECT_EQ(got.crashed, want.crashed);
  EXPECT_EQ(got.retried, want.retried);
  EXPECT_EQ(got.fell_back, want.fell_back);
}

// The fan-out is index-addressed: whichever runtime runs it, and whether it
// is called from outside that runtime or from one of its tasks (as a farm
// pool's dispatch calls it), report i is engine.Run(apks[i]) bit for bit. The
// bytes entry parses inside that fan-out: fed the same APKs' container bytes
// with three malformed members at fixed positions, every member that parses
// gets the same report and exactly the malformed ones get a parse error.
TEST(Farm, RunBatchMatchesPerAppEngineRuns) {
  synth::CorpusConfig corpus_config;
  corpus_config.seed = 21;
  synth::CorpusGenerator gen(TestUniverse(), corpus_config);
  std::vector<std::vector<uint8_t>> apk_bytes;
  std::vector<apk::ApkFile> apks;
  for (int i = 0; i < 24; ++i) {
    apk_bytes.push_back(synth::BuildApkBytes(gen.Next(), TestUniverse()));
    auto apk = apk::ParseApk(apk_bytes.back());
    ASSERT_TRUE(apk.ok());
    apks.push_back(std::move(*apk));
  }
  const std::vector<uint8_t> garbage = {0xde, 0xad, 0xbe, 0xef};
  const std::vector<uint8_t> empty;
  const std::vector<uint8_t> truncated(apk_bytes[5].begin(),
                                       apk_bytes[5].begin() + apk_bytes[5].size() / 2);
  const std::vector<std::pair<size_t, const std::vector<uint8_t>*>> malformed = {
      {0, &garbage}, {13, &truncated}, {26, &empty}};
  constexpr size_t kMalformed = SIZE_MAX;
  std::vector<std::span<const uint8_t>> members;
  std::vector<size_t> app_of;  // Index into apks per member, or kMalformed.
  for (size_t app = 0, bad = 0; app < apks.size() || bad < malformed.size();) {
    if (bad < malformed.size() && malformed[bad].first == members.size()) {
      members.push_back(*malformed[bad++].second);
      app_of.push_back(kMalformed);
    } else {
      members.push_back(apk_bytes[app]);
      app_of.push_back(app++);
    }
  }

  FarmConfig config;
  config.num_emulators = 4;
  config.engine.kind = EngineKind::kLightweight;  // Fallbacks, too.
  std::vector<android::ApiId> every_seventh;
  for (android::ApiId id = 0; id < TestUniverse().num_apis(); id += 7) {
    every_seventh.push_back(id);
  }
  const TrackedApiSet tracked(every_seventh, TestUniverse().num_apis());
  const DynamicAnalysisEngine engine(TestUniverse(), config.engine);
  std::vector<EmulationReport> want;
  for (const apk::ApkFile& apk : apks) {
    want.push_back(engine.Run(apk, tracked));
  }
  auto check = [&](const BatchResult& result) {
    ASSERT_EQ(result.reports.size(), apks.size());
    for (size_t i = 0; i < apks.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "app " << i);
      ExpectSameReport(result.reports[i], want[i]);
    }
  };
  auto check_bytes = [&](const BatchResult& result) {
    ASSERT_FALSE(result.farm_fault);
    ASSERT_EQ(result.reports.size(), members.size());
    ASSERT_EQ(result.parse_errors.size(), members.size());
    for (size_t i = 0; i < members.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "member " << i);
      EXPECT_EQ(result.parse_errors[i].empty(), app_of[i] != kMalformed);
      if (app_of[i] != kMalformed) {
        ExpectSameReport(result.reports[i], want[app_of[i]]);
      }
    }
  };

  {
    SCOPED_TRACE("private runtime");
    DeviceFarm farm(TestUniverse(), config);
    check(farm.RunBatch(apks, tracked));
    check_bytes(farm.RunBatchBytes(members, tracked));
    EXPECT_EQ(farm.batches_run(), 2u);
  }
  for (size_t workers : {1, 2, 8}) {
    SCOPED_TRACE(testing::Message() << "shared runtime of " << workers);
    rt::Runtime runtime(rt::RuntimeOptions{.workers = workers});
    DeviceFarm farm(TestUniverse(), config, &runtime);
    check(farm.RunBatch(apks, tracked));
    check_bytes(farm.RunBatchBytes(members, tracked));
    std::promise<BatchResult> from_task;
    std::future<BatchResult> done = from_task.get_future();
    runtime.Post([&] { from_task.set_value(farm.RunBatch(apks, tracked)); });
    check(done.get());
    std::promise<BatchResult> bytes_from_task;
    std::future<BatchResult> bytes_done = bytes_from_task.get_future();
    runtime.Post([&] { bytes_from_task.set_value(farm.RunBatchBytes(members, tracked)); });
    check_bytes(bytes_done.get());
    EXPECT_EQ(farm.batches_run(), 4u);  // One ordinal per call.
  }
}

}  // namespace
}  // namespace apichecker::emu
