// Device farm: N concurrent emulators on one x86 server (paper §4.2/§5.1 run
// 16 emulators on 16 cores, 4 cores reserved for scheduling/monitoring/
// logging). The farm executes a batch of APKs as one ParallelFor on an
// rt::Runtime (the serving process's one executor, or a private one when the
// farm runs standalone), and additionally reports the *simulated* wall-clock
// makespan (greedy first-free-emulator scheduling of per-app emulation
// minutes) — that is the quantity production throughput claims are made
// about. A batch arrives either parsed (RunBatch) or as container bytes
// (RunBatchBytes), where task i of the fan-out parses member i, emulates it
// and drops its ApkFile, so parsing runs as wide as emulation and no batch
// holds its members' ApkFiles at once.

#ifndef APICHECKER_EMU_FARM_H_
#define APICHECKER_EMU_FARM_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "emu/engine.h"
#include "obs/metrics.h"
#include "rt/runtime.h"
#include "util/rng.h"

namespace apichecker::emu {

// One scripted fault: farm `farm_id` fails every batch whose ordinal (1-based,
// counted per farm) falls in [from_batch, to_batch]. to_batch defaults to
// "forever", which models a farm that dies and stays dead; a finite window
// models a transient outage the farm recovers from.
struct FaultWindow {
  uint32_t farm_id = 0;
  uint64_t from_batch = 1;
  uint64_t to_batch = std::numeric_limits<uint64_t>::max();
};

// Deterministic fault-injection plan for resilience testing. Built in rather
// than bolted on: the plan threads from FarmPoolConfig through the service
// down to every DeviceFarm, so tests, benches, and the CLI can exercise crash
// and flap scenarios on demand. An empty plan is free: the hook is a single
// branch when a batch takes its ordinal.
struct FaultPlan {
  // Seeds the per-farm Bernoulli fault stream (farm_id is mixed in, so farms
  // fault independently but reproducibly).
  uint64_t seed = 1;
  // Per-batch probability that a farm faults (randomized stress mode).
  double fault_rate = 0.0;
  // Scripted faults (deterministic mode; both modes compose).
  std::vector<FaultWindow> windows;

  bool enabled() const { return fault_rate > 0.0 || !windows.empty(); }
};

struct FarmConfig {
  size_t num_emulators = 16;
  EngineConfig engine;
  // Identity within a FarmPool; selects this farm's FaultWindows and fault
  // RNG stream.
  uint32_t farm_id = 0;
  FaultPlan fault_plan;
};

struct BatchResult {
  std::vector<EmulationReport> reports;  // One per input, input order.
  // One per input of a bytes batch, input order, filled even in a faulted
  // result: empty when the input parsed, the parser's message otherwise (that
  // input's report stays empty). Empty for a batch of parsed ApkFiles.
  std::vector<std::string> parse_errors;
  double makespan_minutes = 0.0;         // Simulated farm wall-clock.
  double total_emulation_minutes = 0.0;  // Sum of per-app minutes.
  size_t crashes = 0;
  size_t fallbacks = 0;
  // Farm-level fault: the whole batch produced no usable reports (emulator
  // server crash/hang). Callers must treat `reports` as invalid and fail the
  // batch over; serve::FarmPool retries it on a healthy farm.
  bool farm_fault = false;
  // Set (alongside farm_fault) when the failure was the transport to a remote
  // farm worker rather than the farm itself — the pool's breaker records the
  // open under a different reason label so operators can tell a sick farm
  // from a severed link.
  bool transport_fault = false;
  std::string fault_reason;
};

class DeviceFarm {
 public:
  // `runtime` runs the per-app fan-out; null makes the farm own a
  // private runtime (standalone use: the CLI's vet, benches, tests).
  DeviceFarm(const android::ApiUniverse& universe, FarmConfig config,
             rt::Runtime* runtime = nullptr);

  BatchResult RunBatch(std::span<const apk::ApkFile> apks, const TrackedApiSet& tracked);

  // Runs a batch of APK container bytes in one fan-out: task i parses
  // members[i] (timed into apichecker_ingest_parse_stage_ms), emulates it and
  // destroys its ApkFile before it returns. A member that fails to parse gets
  // its message in parse_errors[i] and no report. The batch takes its ordinal
  // and asks the fault plan once, when its first member parses: a batch in
  // which nothing parses consumes neither an ordinal nor a fault draw, and once
  // a fault fires the members still parsing skip emulation.
  BatchResult RunBatchBytes(std::span<const std::span<const uint8_t>> members,
                            const TrackedApiSet& tracked);

  const FarmConfig& config() const { return config_; }
  const DynamicAnalysisEngine& engine() const { return engine_; }
  // Batches attempted so far (faulted ones included).
  uint64_t batches_run() const { return batch_ordinal_.load(std::memory_order_relaxed); }

 private:
  // Takes the batch's ordinal and asks the fault plan about it. Returns false
  // when the plan fires, with `result` marked faulted and the fault counted.
  bool BeginBatch(BatchResult& result);
  // The tail of an executed (unfaulted) batch: the simulated makespan over the
  // members that ran, the farm counters, and the batch's wall-clock since
  // `start`. Faulted batches skip it, so apichecker_emu_farm_batch_ms counts
  // exactly apichecker_emu_farm_batches_total.
  void FinishBatch(BatchResult& result, std::chrono::steady_clock::time_point start);

  FarmConfig config_;
  DynamicAnalysisEngine engine_;
  std::unique_ptr<rt::Runtime> owned_runtime_;  // Only when none was passed.
  rt::Runtime* rt_;
  obs::Histogram& batch_ms_;  // Wall-clock of each executed batch.
  obs::Histogram& parse_ms_;  // One observation per RunBatchBytes member.
  std::atomic<uint64_t> batch_ordinal_{0};
  std::mutex fault_mu_;  // Guards fault_rng_ (batches may run concurrently).
  util::Rng fault_rng_;
};

}  // namespace apichecker::emu

#endif  // APICHECKER_EMU_FARM_H_
