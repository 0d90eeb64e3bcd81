#include "emu/engine.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "obs/metrics.h"
#include "obs/names.h"
#include "util/logging.h"
#include "util/rng.h"

namespace apichecker::emu {

TrackedApiSet::TrackedApiSet(std::span<const android::ApiId> ids, size_t universe_size)
    : bitmap_(universe_size, 0), ids_(ids.begin(), ids.end()) {
  for (android::ApiId id : ids_) {
    if (id < bitmap_.size() && bitmap_[id] == 0) {
      bitmap_[id] = 1;
      ++count_;
    }
  }
}

TrackedApiSet TrackedApiSet::All(size_t universe_size) {
  std::vector<android::ApiId> ids(universe_size);
  for (size_t i = 0; i < universe_size; ++i) {
    ids[i] = static_cast<android::ApiId>(i);
  }
  return TrackedApiSet(ids, universe_size);
}

TrackedApiSet TrackedApiSet::None(size_t universe_size) {
  return TrackedApiSet({}, universe_size);
}

DynamicAnalysisEngine::DynamicAnalysisEngine(const android::ApiUniverse& universe,
                                             EngineConfig config)
    : universe_(universe), config_(config) {}

EmulationReport DynamicAnalysisEngine::Run(const apk::ApkFile& apk,
                                           const TrackedApiSet& tracked) const {
  const apk::DexFile& dex = apk.dex;
  EmulationReport report;
  report.requested_permissions = apk.manifest.permissions;
  report.manifest_intent_filters = apk.manifest.intent_filters;

  // Resolve the dex method table against the framework once.
  std::vector<int64_t> method_api(dex.method_name_idx.size(), -1);
  for (size_t m = 0; m < dex.method_name_idx.size(); ++m) {
    if (const auto id = universe_.FindByName(dex.MethodName(static_cast<uint32_t>(m)))) {
      method_api[m] = static_cast<int64_t>(*id);
    }
  }

  const uint32_t events = config_.monkey.num_events;
  const bool fuzzing = config_.exploration == ExplorationStrategy::kCoverageGuidedFuzzing;
  const CoverageResult coverage = ComputeCoverage(
      events, static_cast<uint32_t>(dex.activity_class_idx.size()), dex.behavior_seed,
      fuzzing ? config_.fuzzing_coverage : config_.coverage);
  report.rac = coverage.rac;

  // Emulator detection (§4.2): the app probes system configuration, input
  // timing, and hooking-framework artifacts. Any un-countered probe wins.
  const bool on_emulator = config_.kind != EngineKind::kRealDevice;
  bool detected = false;
  if (on_emulator && dex.detects_emulator()) {
    if (!config_.anti_detection.spoof_device_identity ||
        !config_.anti_detection.hide_hooking_framework) {
      detected = true;
    } else {
      // Timing probe: sample the Monkey stream the app would observe.
      MonkeyConfig probe = config_.monkey;
      probe.num_events = std::min<uint32_t>(256, std::max<uint32_t>(32, events));
      probe.seed = util::SplitMix64(dex.behavior_seed ^ 0x7177);
      if (!config_.anti_detection.humanize_inputs) {
        probe.throttle_ms = 0;  // Raw monkey floods events back-to-back...
        probe.pct_touch = 1.0;  // ...and with a degenerate event mix.
      }
      detected = LooksRobotic(GenerateEventStream(probe));
    }
  }
  report.emulator_detected = detected;

  // Fire behaviours.
  util::Rng behavior_rng(util::SplitMix64(dex.behavior_seed ^ 0xf15e));
  std::vector<uint8_t> api_seen(universe_.num_apis(), 0);
  std::vector<int32_t> tracked_slot(universe_.num_apis(), -1);
  std::unordered_map<std::string, bool> intent_seen;
  for (const apk::DexBehavior& behavior : dex.behaviors) {
    const double jitter = behavior_rng.LogNormal(1.0, 0.1);
    // Gating conditions.
    if (behavior.activity != apk::DexFile::kAppLevelActivity) {
      if (behavior.activity >= coverage.covered.size() ||
          !coverage.covered[behavior.activity]) {
        continue;
      }
    }
    if (behavior.guarded() && detected) {
      continue;  // The app saw the sandbox and keeps this path quiet.
    }
    if (behavior.sensor_gated() && on_emulator) {
      continue;  // No live sensor data on any emulator (the residual 1.4%).
    }

    const double expected =
        static_cast<double>(behavior.invocations_per_kevent) * events / 1000.0 * jitter;
    const uint64_t count =
        expected >= 1.0 ? static_cast<uint64_t>(expected + 0.5)
                        : (behavior_rng.Bernoulli(expected) ? 1 : 0);
    if (count == 0) {
      continue;
    }
    report.total_invocations += count;

    const int64_t api = method_api[behavior.method_idx];
    if (api < 0) {
      continue;  // Unknown framework method (e.g. app-internal call).
    }
    const android::ApiId api_id = static_cast<android::ApiId>(api);
    if (!api_seen[api_id]) {
      api_seen[api_id] = 1;
      ++report.distinct_apis_invoked;
    }
    if (tracked.Contains(api_id)) {
      report.tracked_invocations += count;
      if (tracked_slot[api_id] < 0) {
        tracked_slot[api_id] = static_cast<int32_t>(report.observed_apis.size());
        report.observed_apis.push_back(api_id);
        report.observed_api_counts.push_back(0);
      }
      report.observed_api_counts[static_cast<size_t>(tracked_slot[api_id])] +=
          static_cast<uint32_t>(std::min<uint64_t>(count, 0xFFFFFFFFu));
      if (behavior.intent_string_idx != apk::DexFile::kNoIntent) {
        // Hooked invocation: parameters (the Intent action) are logged.
        const std::string& action = dex.strings[behavior.intent_string_idx];
        if (!intent_seen[action]) {
          intent_seen[action] = true;
          report.observed_intents.push_back({action, api_id});
        }
      }
    }
  }
  // Sort (api, count) pairs by api id, keeping the vectors parallel.
  {
    std::vector<uint32_t> order(report.observed_apis.size());
    for (uint32_t i = 0; i < order.size(); ++i) {
      order[i] = i;
    }
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return report.observed_apis[a] < report.observed_apis[b];
    });
    std::vector<android::ApiId> apis(order.size());
    std::vector<uint32_t> counts(order.size());
    for (uint32_t i = 0; i < order.size(); ++i) {
      apis[i] = report.observed_apis[order[i]];
      counts[i] = report.observed_api_counts[order[i]];
    }
    report.observed_apis = std::move(apis);
    report.observed_api_counts = std::move(counts);
  }

  // Simulated emulation cost. The base component is an app property (same
  // across engines), so it derives from the behaviour seed alone.
  util::Rng time_rng(util::SplitMix64(dex.behavior_seed ^ 0x71e3));
  const double event_cost_factor = fuzzing ? config_.fuzzing_event_cost_factor : 1.0;
  const double base_minutes =
      time_rng.LogNormal(config_.per_event_ms_median * event_cost_factor * events / 60'000.0,
                         config_.per_app_time_sigma);
  const double hook_minutes =
      static_cast<double>(report.tracked_invocations) * config_.hook_cost_us / 6.0e7;
  double minutes = base_minutes + hook_minutes;
  if (config_.kind == EngineKind::kLightweight) {
    minutes *= config_.lightweight_speedup;
    // Compatibility gap of Android-x86 + Houdini: a small slice of apps
    // cannot run; the farm detects the failure partway and replays the app
    // on the stock Google emulator (§5.1).
    const bool incompatible =
        time_rng.Bernoulli(config_.lightweight_incompat_rate) ||
        (dex.has_native_code() && time_rng.Bernoulli(config_.lightweight_incompat_rate * 2.0));
    if (incompatible && config_.enable_fallback) {
      report.fell_back = true;
      minutes = 0.4 * minutes + (base_minutes + hook_minutes);
      // Per-app detail only: kEmuFallbacksTotal below counts every one.
      APICHECKER_SLOG(Debug, "emu.fallback")
          .With("package", apk.manifest.package_name)
          .With("has_native_code", dex.has_native_code())
          .With("minutes", minutes);
    }
  }

  // Crash handling: one automatic retry (SystemServer exception reporting),
  // counted into the emulation time.
  const double crash_p = dex.crash_probability();
  if (crash_p > 0.0 && time_rng.Bernoulli(crash_p)) {
    report.retried = true;
    minutes += minutes * config_.crash_retry_overhead;
    if (time_rng.Bernoulli(crash_p)) {
      report.crashed = true;  // Second failure: give up with partial data.
      // Per-app detail only: kEmuCrashesTotal below counts every one.
      APICHECKER_SLOG(Debug, "emu.crash")
          .With("package", apk.manifest.package_name)
          .With("retried", true)
          .With("minutes", minutes);
    }
  }
  report.emulation_minutes = minutes;

  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Default();
  metrics.counter(obs::names::kEmuAppsTotal).Increment();
  metrics.histogram(obs::names::kEmuAppMinutes).Observe(minutes);
  metrics.counter(obs::names::kEmuTotalInvocationsTotal)
      .Increment(report.total_invocations);
  metrics.counter(obs::names::kEmuTrackedInvocationsTotal)
      .Increment(report.tracked_invocations);
  if (report.emulator_detected) {
    metrics.counter(obs::names::kEmuDetectedTotal).Increment();
  }
  if (report.retried) {
    metrics.counter(obs::names::kEmuRetriesTotal).Increment();
  }
  if (report.crashed) {
    metrics.counter(obs::names::kEmuCrashesTotal).Increment();
  }
  if (report.fell_back) {
    metrics.counter(obs::names::kEmuFallbacksTotal).Increment();
  }
  return report;
}

util::Result<EmulationReport> DynamicAnalysisEngine::RunBytes(
    std::span<const uint8_t> apk_bytes, const TrackedApiSet& tracked) const {
  auto apk = apk::ParseApk(apk_bytes);
  if (!apk.ok()) {
    return util::Err(apk.error());
  }
  return Run(*apk, tracked);
}

}  // namespace apichecker::emu
