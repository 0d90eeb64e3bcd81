#include "emu/farm.h"

#include <algorithm>
#include <mutex>

#include "apk/apk.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/trace.h"
#include "util/strings.h"

namespace apichecker::emu {

DeviceFarm::DeviceFarm(const android::ApiUniverse& universe, FarmConfig config,
                       rt::Runtime* runtime)
    : config_(config),
      engine_(universe, config.engine),
      owned_runtime_(runtime == nullptr ? std::make_unique<rt::Runtime>() : nullptr),
      rt_(runtime == nullptr ? owned_runtime_.get() : runtime),
      batch_ms_(obs::MetricsRegistry::Default().histogram(obs::names::kEmuFarmBatchMs)),
      parse_ms_(obs::MetricsRegistry::Default().histogram(obs::names::kIngestParseStageMs)),
      fault_rng_(util::SplitMix64(config.fault_plan.seed ^
                                  (0x9e3779b97f4a7c15ull * (config.farm_id + 1)))) {}

bool DeviceFarm::BeginBatch(BatchResult& result) {
  const uint64_t ordinal = batch_ordinal_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (!config_.fault_plan.enabled()) {
    return true;
  }
  for (const FaultWindow& window : config_.fault_plan.windows) {
    if (window.farm_id == config_.farm_id && ordinal >= window.from_batch &&
        ordinal <= window.to_batch) {
      result.fault_reason =
          util::StrFormat("scripted fault (farm %u, batch %llu)", config_.farm_id,
                          static_cast<unsigned long long>(ordinal));
      break;
    }
  }
  if (result.fault_reason.empty() && config_.fault_plan.fault_rate > 0.0) {
    std::lock_guard<std::mutex> lock(fault_mu_);
    if (fault_rng_.Bernoulli(config_.fault_plan.fault_rate)) {
      result.fault_reason = util::StrFormat(
          "random fault (farm %u, batch %llu, rate %.2f)", config_.farm_id,
          static_cast<unsigned long long>(ordinal), config_.fault_plan.fault_rate);
    }
  }
  if (result.fault_reason.empty()) {
    return true;
  }
  result.farm_fault = true;
  obs::MetricsRegistry::Default().counter(obs::names::kEmuFarmInjectedFaultsTotal).Increment();
  return false;
}

BatchResult DeviceFarm::RunBatch(std::span<const apk::ApkFile> apks,
                                 const TrackedApiSet& tracked) {
  BatchResult result;
  if (!BeginBatch(result)) {
    return result;
  }
  const auto start = std::chrono::steady_clock::now();
  result.reports.resize(apks.size());
  rt_->ParallelFor(apks.size(), [&](size_t i) {
    result.reports[i] = engine_.Run(apks[i], tracked);
  });
  FinishBatch(result, start);
  return result;
}

BatchResult DeviceFarm::RunBatchBytes(std::span<const std::span<const uint8_t>> members,
                                      const TrackedApiSet& tracked) {
  BatchResult result;
  result.reports.resize(members.size());
  result.parse_errors.resize(members.size());
  std::once_flag ordinal_taken;
  bool began = false;
  bool faulted = false;
  const auto start = std::chrono::steady_clock::now();
  rt_->ParallelFor(members.size(), [&](size_t i) {
    auto apk = [&] {
      obs::ScopedTimer timer(parse_ms_);
      return apk::ParseApk(members[i]);
    }();
    if (!apk.ok()) {
      result.parse_errors[i] = apk.error();
      return;
    }
    // Every parsed member waits here until the first one has asked the fault
    // plan, so no member is emulated in a batch that faults.
    std::call_once(ordinal_taken, [&] {
      began = true;
      faulted = !BeginBatch(result);
    });
    if (!faulted) {
      result.reports[i] = engine_.Run(*apk, tracked);
    }
  });
  if (began && !faulted) {
    FinishBatch(result, start);
  }
  return result;
}

void DeviceFarm::FinishBatch(BatchResult& result, std::chrono::steady_clock::time_point start) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Default();
  obs::Histogram& queue_wait = metrics.histogram(obs::names::kEmuFarmQueueWaitMinutes);

  // Simulated makespan: greedy assignment of each app (in submission order)
  // to the emulator that frees up first. The app's queue wait is the busy
  // time already scheduled on that emulator. Members that failed to parse
  // never occupied an emulator.
  std::vector<double> emulator_busy_until(std::max<size_t>(1, config_.num_emulators), 0.0);
  for (size_t i = 0; i < result.reports.size(); ++i) {
    if (i < result.parse_errors.size() && !result.parse_errors[i].empty()) {
      continue;
    }
    const EmulationReport& report = result.reports[i];
    auto next_free =
        std::min_element(emulator_busy_until.begin(), emulator_busy_until.end());
    queue_wait.Observe(*next_free);
    *next_free += report.emulation_minutes;
    result.total_emulation_minutes += report.emulation_minutes;
    result.crashes += report.crashed ? 1 : 0;
    result.fallbacks += report.fell_back ? 1 : 0;
  }
  result.makespan_minutes =
      *std::max_element(emulator_busy_until.begin(), emulator_busy_until.end());

  metrics.counter(obs::names::kEmuFarmBatchesTotal).Increment();
  metrics.histogram(obs::names::kEmuFarmMakespanMinutes).Observe(result.makespan_minutes);
  metrics.gauge(obs::names::kEmuFarmLastMakespanMinutes).Set(result.makespan_minutes);
  batch_ms_.Observe(std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count());
}

}  // namespace apichecker::emu
