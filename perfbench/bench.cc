// Repository benchmark: one workload per process against
// serve::VettingService, load generated here, metrics printed as one JSON
// line. perfbench/README.md describes the workloads, every metric, and how the
// per-layer numbers are derived.
//
//   perfbench --workload fresh_closed|market_open|upload_closed --seed N
//             --seconds S --trace 0|1 --model FILE --work-dir DIR [--smoke]
//   perfbench --train-model FILE
//
// The model blob is trained once by --train-model (fixed universe and study
// seed) and is an input like the APK bytes: neither training nor input
// generation is timed. All timing lives in this file; the per-layer spans time
// calls into each module's public functions.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <semaphore>
#include <span>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "android/api_universe.h"
#include "apk/apk.h"
#include "apk/dex.h"
#include "apk/manifest.h"
#include "apk/zip.h"
#include "core/checker.h"
#include "core/model_store.h"
#include "core/study.h"
#include "emu/engine.h"
#include "emu/farm.h"
#include "fabric/messages.h"
#include "fabric/transport.h"
#include "fabric/wire.h"
#include "gateway/client.h"
#include "gateway/gateway.h"
#include "ingest/apk_blob.h"
#include "ingest/stream_reader.h"
#include "serve/service.h"
#include "store/verdict_store.h"
#include "synth/corpus.h"
#include "util/crc32.h"
#include "util/rng.h"
#include "util/sha1.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace apichecker::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// The universe and model are fixed (a deployed model is not a workload
// property); only the submissions derive from --seed.
constexpr size_t kNumApis = 50'000;
constexpr uint64_t kUniverseSeed = 0xA11D;
constexpr uint64_t kStudySeed = 0x5eed;
constexpr size_t kStudyApps = 2'000;

constexpr size_t kInputStreams = 4;  // Parallel generator streams; fixed so
                                     // the inputs do not depend on the host.
constexpr size_t kFrameChunkBytes = 64 * 1024;

// fresh_closed: submissions the single generator keeps in flight.
constexpr ptrdiff_t kClosedOutstanding = 64;
// market_open: offered rate and traffic mix.
constexpr double kMarketRatePerSec = 800.0;
constexpr double kResubmitShare = 0.30;
constexpr uint64_t kInteractiveEvery = 32;
// A resubmit repeats a fresh submission this many fresh submissions back, so
// the first verdict is normally cached by the time the repeat arrives.
constexpr size_t kResubmitMinBack = 32;
constexpr size_t kResubmitMaxBack = 256;
// upload_closed: concurrent client connections.
constexpr size_t kUploadClients = 4;

enum class Loop { kClosedSubmit, kOpenSubmit, kClosedUpload };

// Each workload cycles through a pool of `distinct` inputs. The digest cache
// holds a quarter of the pool, so a recycled input has been evicted (LRU) by
// the time it comes round again: only market_open's resubmits hit the cache.
struct Workload {
  const char* name;
  Loop loop;
  size_t distinct;
  size_t large_every;  // Every Nth distinct input is padded; 0 = none.
  size_t large_bytes;
  bool store;
};

constexpr Workload kWorkloads[] = {
    {"fresh_closed", Loop::kClosedSubmit, 4'096, 0, 0, false},
    {"market_open", Loop::kOpenSubmit, 2'048, 32, 2u << 20, true},
    {"upload_closed", Loop::kClosedUpload, 1'024, 8, 256u << 10, false},
};

// Run-size knobs; --smoke shrinks them to a seconds-long check.
struct Scale {
  size_t setup_repeats = 15;
  double warmup_s = 1.0;
  size_t pool_cap = 1u << 20;  // Upper bound on a workload's distinct pool.
  size_t replay_max = 1'024;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  bool flip_reference = false;  // Test seam: shows the correctness gate bites.
  std::string model;
  std::string work_dir;
  std::string train_model;
};

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(1);
}

Clock::duration ToDuration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
}
double Seconds(Clock::duration d) { return std::chrono::duration<double>(d).count(); }
double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}
double Millis(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

// A numeric field of /proc/self/status ("Threads:", "VmRSS:", "VmHWM:" in kB).
size_t StatusField(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::strtoull(line.c_str() + field.size(), nullptr, 10);
    }
  }
  Die("/proc/self/status has no " + field);
}

double StatusMb(const std::string& field) {
  return static_cast<double>(StatusField(field)) / 1024.0;
}

// Resets VmHWM to the current RSS, so that it then reads the peak since now.
void ResetPeakRss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  if (!clear_refs) {
    Die("cannot reset the peak RSS through /proc/self/clear_refs");
  }
}

// Nearest-rank quantile; 0 for an empty sample.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

android::ApiUniverse MakeUniverse() {
  android::UniverseConfig config;
  config.num_apis = kNumApis;
  config.seed = kUniverseSeed;
  return android::ApiUniverse::Generate(config);
}

int TrainModel(const std::string& path) {
  const android::ApiUniverse universe = MakeUniverse();
  synth::CorpusConfig corpus;
  corpus.seed = kStudySeed;
  synth::CorpusGenerator generator(universe, corpus);
  core::StudyConfig study;
  study.num_apps = kStudyApps;
  core::ApiChecker checker(universe, {});
  checker.TrainFromStudy(core::RunStudy(universe, generator, study));
  const std::vector<uint8_t> blob = core::SerializeChecker(checker);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(blob.data()),
              static_cast<std::streamsize>(blob.size()));
    if (!out) {
      Die("cannot write " + tmp);
    }
  }
  std::filesystem::rename(tmp, path);
  return 0;
}

std::vector<uint8_t> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    Die("cannot read " + path);
  }
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// ---------------------------------------------------------------------------
// Inputs

struct Reference {
  bool malicious = false;
  double score = 0.0;
};

// `count` distinct (by SHA-1) ingested APKs. Stream s builds candidates
// s, s + kInputStreams, ... from its own seeded corpus generator; a candidate
// whose bytes repeat an earlier one is dropped.
std::vector<ingest::ApkBlob> BuildInputs(const android::ApiUniverse& universe,
                                         const Workload& workload, size_t count,
                                         uint64_t seed) {
  const size_t candidates = count + count / 16 + 16;
  std::vector<ingest::ApkBlob> built(candidates);
  std::vector<std::thread> threads;
  for (size_t s = 0; s < kInputStreams; ++s) {
    threads.emplace_back([&, s] {
      synth::CorpusConfig config;
      config.seed = util::SplitMix64(seed * kInputStreams + s);
      synth::CorpusGenerator generator(universe, config);
      for (size_t i = s; i < candidates; i += kInputStreams) {
        std::vector<uint8_t> bytes = synth::BuildApkBytes(generator.Next(), universe);
        if (workload.large_every > 0 && i % workload.large_every == workload.large_every - 1) {
          auto padded = apk::PadApk(bytes, workload.large_bytes, seed ^ i);
          if (padded.ok()) {
            bytes = std::move(*padded);
          }
        }
        ingest::MemoryStreamReader reader(bytes);
        auto blob = ingest::ReadApkBlob(reader);
        if (blob.ok()) {
          built[i] = std::move(*blob);
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  std::vector<ingest::ApkBlob> inputs;
  inputs.reserve(count);
  std::unordered_set<std::string> seen;
  for (auto& blob : built) {
    if (inputs.size() < count && !blob.empty() && seen.insert(blob.digest()).second) {
      inputs.push_back(std::move(blob));
    }
  }
  if (inputs.size() < count) {
    Die("could not build enough distinct inputs");
  }
  return inputs;
}

// The verdict the served pipeline must reproduce for each input: parse ->
// engine (the farm's config, the model's tracked set) -> classify.
std::vector<Reference> ReferenceVerdicts(const android::ApiUniverse& universe,
                                         const core::ApiChecker& checker,
                                         const emu::EngineConfig& engine_config,
                                         const std::vector<ingest::ApkBlob>& inputs) {
  const emu::DynamicAnalysisEngine engine(universe, engine_config);
  const emu::TrackedApiSet tracked = checker.MakeTrackedSet();
  std::vector<Reference> refs(inputs.size());
  std::atomic<bool> ok{true};
  std::vector<std::thread> threads;
  for (size_t s = 0; s < kInputStreams; ++s) {
    threads.emplace_back([&, s] {
      for (size_t i = s; i < inputs.size(); i += kInputStreams) {
        auto apk = apk::ParseApk(inputs[i].bytes());
        if (!apk.ok()) {
          ok = false;
          return;
        }
        const core::ApiChecker::Verdict verdict = checker.Classify(engine.Run(*apk, tracked));
        refs[i] = {verdict.malicious, verdict.score};
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  if (!ok) {
    Die("an input failed to parse while computing reference verdicts");
  }
  return refs;
}

// ---------------------------------------------------------------------------
// Service under test

serve::ServiceConfig MakeServiceConfig(const Workload& workload, size_t pool,
                                       const std::string& store_dir) {
  serve::ServiceConfig config;
  config.num_shards = 8;
  config.shard_capacity = 2'048;
  config.cache_capacity = pool / 4;
  config.farm.engine.kind = emu::EngineKind::kLightweight;
  config.scheduler.max_linger = std::chrono::milliseconds(5);
  config.pool.num_farms = 1;
  if (workload.store) {
    config.store.dir = store_dir;
  }
  return config;
}

// Members are declared so that destruction stops the gateway before the
// service and keeps the universe alive longest.
struct Stack {
  std::unique_ptr<android::ApiUniverse> universe;
  std::unique_ptr<serve::VettingService> service;
  std::unique_ptr<gateway::IngestGateway> gateway;
  std::string endpoint;

  void Stop() {
    if (gateway) {
      gateway->Stop();
    }
    service->Shutdown();
  }
};

// Cold start to ready-to-serve: universe, model restore, service (which opens
// the verdict store when the workload has one), gateway listening.
std::unique_ptr<Stack> SetUp(const Workload& workload, size_t pool,
                             std::span<const uint8_t> model, const std::filesystem::path& dir) {
  auto stack = std::make_unique<Stack>();
  stack->universe = std::make_unique<android::ApiUniverse>(MakeUniverse());
  auto checker = core::DeserializeChecker(*stack->universe, model);
  if (!checker.ok()) {
    Die("model restore failed: " + checker.error());
  }
  stack->service = std::make_unique<serve::VettingService>(
      *stack->universe, MakeServiceConfig(workload, pool, (dir / "store").string()),
      std::move(*checker));
  if (workload.store && stack->service->verdict_store() == nullptr) {
    Die("verdict store did not open");
  }
  if (workload.loop == Loop::kClosedUpload) {
    gateway::GatewayConfig config;
    config.endpoint = "unix:" + (dir / "gw.sock").string();
    config.max_concurrent_uploads = kUploadClients * 4;
    stack->gateway = std::make_unique<gateway::IngestGateway>(*stack->service, config);
    if (auto started = stack->gateway->Start(); !started.ok()) {
      Die("gateway failed to start: " + started.error());
    }
    stack->endpoint = config.endpoint;
  }
  return stack;
}

// ---------------------------------------------------------------------------
// Load generation

enum class SlotState : uint8_t { kUnused = 0, kPending, kDone, kRefused };

// One submission. Latency runs from `sent`: the scheduled send time in the
// open loop, the Submit/Upload call in the closed loops. `issued` and
// `admitted` (the call and its return) are taken only in traced runs.
struct Slot {
  Clock::time_point sent;
  Clock::time_point issued;
  Clock::time_point admitted;
  Clock::time_point done;
  uint32_t input = 0;
  uint32_t model_version = 0;
  double score = 0.0;
  serve::VetStatus status = serve::VetStatus::kOk;
  bool malicious = false;
  SlotState state = SlotState::kUnused;
};

struct RunOutcome {
  std::vector<Slot> slots;
  size_t used = 0;  // slots[0, used) were attempted.
  Clock::time_point window_start;
  Clock::time_point window_end;
  double cpu_start = 0.0;  // Process CPU seconds at the window's edges.
  double cpu_end = 0.0;
  size_t threads_peak = 0;
  size_t timestamps_for_tracing = 0;  // Clock reads only the traced run takes.
  bool capacity_hit = false;
  uint32_t swapped_to = 0;  // market_open: version published by the swap.
};

// Completion signals shared with service callbacks; held by shared_ptr so a
// callback finishing its release() never touches a destroyed object.
struct Completion {
  std::counting_semaphore<kClosedOutstanding> permits{kClosedOutstanding};
  std::atomic<size_t> done{0};
};

void Record(Slot& slot, const serve::VettingResult& result) {
  slot.done = Clock::now();
  slot.status = result.status;
  slot.malicious = result.malicious;
  slot.score = result.score;
  slot.model_version = result.model_version;
  slot.state = SlotState::kDone;
}

void StartWindow(RunOutcome& out, double warmup_s, double seconds) {
  out.window_start = Clock::now() + ToDuration(warmup_s);
  out.window_end = out.window_start + ToDuration(seconds);
}

// Runs on the main thread while the load runs: samples the process thread
// count every 20 ms and takes the CPU time at the window's start and end.
void Supervise(RunOutcome& out) {
  bool started = false;
  while (true) {
    const Clock::time_point now = Clock::now();
    if (!started && now >= out.window_start) {
      out.cpu_start = CpuSeconds();
      started = true;
    }
    if (now >= out.window_end) {
      out.cpu_end = CpuSeconds();
      return;
    }
    out.threads_peak = std::max(out.threads_peak, StatusField("Threads:"));
    const Clock::time_point edge = started ? out.window_end : out.window_start;
    std::this_thread::sleep_until(std::min(now + std::chrono::milliseconds(20), edge));
  }
}

bool WaitFor(const std::atomic<size_t>& counter, size_t target) {
  const Clock::time_point give_up = Clock::now() + std::chrono::seconds(60);
  while (counter.load(std::memory_order_acquire) < target) {
    if (Clock::now() > give_up) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// fresh_closed: one generator keeps kClosedOutstanding submissions in flight.
void RunClosedSubmit(serve::VettingService& service,
                     const std::vector<ingest::ApkBlob>& inputs, bool trace,
                     RunOutcome& out) {
  auto completion = std::make_shared<Completion>();
  std::thread generator([&] {
    size_t i = 0;
    for (; i < out.slots.size(); ++i) {
      completion->permits.acquire();
      const Clock::time_point now = Clock::now();
      if (now >= out.window_end) {
        completion->permits.release();
        break;
      }
      Slot& slot = out.slots[i];
      slot.sent = slot.issued = now;
      slot.input = static_cast<uint32_t>(i % inputs.size());
      slot.state = SlotState::kPending;
      serve::Submission submission;
      submission.blob = inputs[slot.input];
      auto accepted = service.SubmitWithCallback(
          std::move(submission), [&slot, completion](const serve::VettingResult& result) {
            Record(slot, result);
            completion->done.fetch_add(1, std::memory_order_release);
            completion->permits.release();
          });
      if (trace) {
        slot.admitted = Clock::now();
      }
      if (!accepted.ok()) {
        slot.state = SlotState::kRefused;
        completion->permits.release();
      }
    }
    out.used = i;
    out.capacity_hit = i == out.slots.size();
  });
  Supervise(out);
  generator.join();
  for (ptrdiff_t k = 0; k < kClosedOutstanding; ++k) {
    if (!completion->permits.try_acquire_for(std::chrono::seconds(60))) {
      Die("submissions still outstanding 60 s after the window");
    }
  }
  out.timestamps_for_tracing = trace ? out.used : 0;
}

// The open-loop schedule: `count` arrivals of a Poisson process conditioned
// on that count over [0, span_s) (exponential gaps rescaled to the span), and
// which input each one submits.
struct Arrival {
  double at_s = 0.0;
  uint32_t input = 0;
  serve::Priority priority = serve::Priority::kBulk;
};

std::vector<Arrival> MarketSchedule(size_t count, double span_s, size_t pool,
                                    uint64_t seed) {
  util::Rng rng(util::SplitMix64(seed ^ 0x0be1));
  std::vector<Arrival> arrivals(count);
  double t = 0.0;
  for (Arrival& arrival : arrivals) {
    t += rng.Exponential(1.0);
    arrival.at_s = t;
  }
  const double scale = span_s / (t + rng.Exponential(1.0));
  std::vector<uint32_t> fresh;  // Inputs of the fresh submissions, in order.
  for (Arrival& arrival : arrivals) {
    arrival.at_s *= scale;
    if (fresh.size() > kResubmitMinBack && rng.Bernoulli(kResubmitShare)) {
      const size_t lo = fresh.size() - std::min(fresh.size(), kResubmitMaxBack);
      const size_t hi = fresh.size() - kResubmitMinBack;
      arrival.input = fresh[lo + rng.NextBounded(hi - lo)];
    } else {
      arrival.input = static_cast<uint32_t>(fresh.size() % pool);
      fresh.push_back(arrival.input);
    }
    if (rng.NextBounded(kInteractiveEvery) == 0) {
      arrival.priority = serve::Priority::kInteractive;
    }
  }
  return arrivals;
}

// market_open: submissions leave on schedule whatever the backlog; a
// same-weights hot swap lands at the middle of the window.
void RunOpenSubmit(serve::VettingService& service, const std::vector<ingest::ApkBlob>& inputs,
                   const std::vector<Arrival>& schedule, std::span<const uint8_t> model,
                   Clock::time_point start, bool trace, RunOutcome& out) {
  auto completion = std::make_shared<Completion>();
  std::atomic<size_t> accepted_count{0};
  std::thread generator([&] {
    for (size_t i = 0; i < schedule.size(); ++i) {
      Slot& slot = out.slots[i];
      slot.sent = start + ToDuration(schedule[i].at_s);
      std::this_thread::sleep_until(slot.sent);
      if (trace) {
        slot.issued = Clock::now();
      }
      slot.input = schedule[i].input;
      slot.state = SlotState::kPending;
      serve::Submission submission;
      submission.blob = inputs[slot.input];
      submission.priority = schedule[i].priority;
      auto accepted = service.SubmitWithCallback(
          std::move(submission), [&slot, completion](const serve::VettingResult& result) {
            Record(slot, result);
            completion->done.fetch_add(1, std::memory_order_release);
          });
      if (trace) {
        slot.admitted = Clock::now();
      }
      if (accepted.ok()) {
        accepted_count.fetch_add(1, std::memory_order_relaxed);
      } else {
        slot.state = SlotState::kRefused;
      }
    }
    out.used = schedule.size();
  });
  std::thread swapper([&] {
    std::this_thread::sleep_until(out.window_start + (out.window_end - out.window_start) / 2);
    auto swapped = service.SwapModelFromBlob(model);
    out.swapped_to = swapped.ok() ? *swapped : 0;
  });
  Supervise(out);
  generator.join();
  swapper.join();
  if (!WaitFor(completion->done, accepted_count.load())) {
    Die("submissions still outstanding 60 s after the window");
  }
  out.timestamps_for_tracing = trace ? 2 * out.used : 0;
}

// upload_closed: kUploadClients connections, each uploading its next body as
// soon as the previous verdict arrives.
void RunClosedUpload(const std::string& endpoint, const std::vector<ingest::ApkBlob>& inputs,
                     uint64_t seed, RunOutcome& out) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> clients;
  for (size_t t = 0; t < kUploadClients; ++t) {
    clients.emplace_back([&, t] {
      gateway::UploadClientConfig config;
      config.endpoint = endpoint;
      config.client_name = "perfbench-" + std::to_string(t);
      config.jitter_seed = seed + t;
      gateway::UploadClient client(std::move(config));
      while (true) {
        const Clock::time_point now = Clock::now();
        if (now >= out.window_end) {
          break;
        }
        const size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= out.slots.size()) {
          break;
        }
        Slot& slot = out.slots[i];
        slot.sent = now;
        slot.input = static_cast<uint32_t>(i % inputs.size());
        auto outcome = client.Upload(inputs[slot.input].bytes());
        slot.done = Clock::now();
        if (!outcome.ok()) {
          slot.state = SlotState::kRefused;
          continue;
        }
        slot.status = static_cast<serve::VetStatus>(outcome->verdict.status);
        slot.malicious = outcome->verdict.malicious;
        slot.score = outcome->verdict.score;
        slot.model_version = outcome->verdict.model_version;
        slot.state = SlotState::kDone;
      }
    });
  }
  Supervise(out);
  for (auto& client : clients) {
    client.join();
  }
  out.used = std::min(next.load(), out.slots.size());
  out.capacity_hit = next.load() >= out.slots.size();
}

// ---------------------------------------------------------------------------
// Traced replay: one trace per distinct input through the byte path, the
// engine, the classifier, the store and the frame codec, each call timed
// separately; then DeviceFarm::RunBatch over batches of the service's size.

struct Span {
  uint64_t trace = 0;
  const char* name = "";
  const char* parent = "";
  Clock::time_point start;
  Clock::time_point end;
  uint64_t bytes = 0;
};

class SpanLog {
 public:
  template <typename Fn>
  auto Time(uint64_t trace, const char* name, const char* parent, uint64_t bytes, Fn&& fn) {
    const Clock::time_point start = Clock::now();
    auto result = fn();
    spans_.push_back({trace, name, parent, start, Clock::now(), bytes});
    return result;
  }
  void Add(Span span) { spans_.push_back(span); }

  std::vector<double> MicrosOf(const std::string& name) const {
    std::vector<double> out;
    for (const Span& span : spans_) {
      if (name == span.name) {
        out.push_back(Micros(span.end - span.start));
      }
    }
    return out;
  }
  double MedianMicros(const std::string& name) const { return Quantile(MicrosOf(name), 0.5); }
  // Bytes over busy time, in MB/s (1 MB = 1e6 bytes).
  double MbPerSec(const std::string& name) const {
    double bytes = 0.0, us = 0.0;
    for (const Span& span : spans_) {
      if (name == span.name) {
        bytes += static_cast<double>(span.bytes);
        us += Micros(span.end - span.start);
      }
    }
    return Ratio(bytes, us);
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

constexpr uint64_t kReplayTraceBase = 1'000'000'000;
constexpr uint64_t kBatchTraceBase = 2'000'000'000;

struct ReplayOutcome {
  size_t inputs = 0;
  size_t fallbacks = 0;
  size_t mismatches = 0;  // Replay verdicts that differ from the reference.
  std::vector<double> parse_self_us;
  store::StoreStats store_stats;
};

ReplayOutcome Replay(const android::ApiUniverse& universe, const core::ApiChecker& checker,
                     const serve::ServiceConfig& service_config,
                     const std::vector<ingest::ApkBlob>& inputs,
                     const std::vector<Reference>& refs, const std::vector<uint32_t>& sample,
                     const std::filesystem::path& store_dir, SpanLog& log) {
  ReplayOutcome out;
  const emu::DynamicAnalysisEngine engine(universe, service_config.farm.engine);
  const emu::TrackedApiSet tracked = checker.MakeTrackedSet();
  store::StoreConfig store_config = service_config.store;
  store_config.dir = store_dir.string();
  auto opened = store::VerdictStore::Open(store_config);
  if (!opened.ok()) {
    Die("replay store: " + opened.error());
  }
  std::unique_ptr<store::VerdictStore> store = std::move(*opened);
  std::vector<apk::ApkFile> parsed;

  for (const uint32_t index : sample) {
    const uint64_t trace = kReplayTraceBase + index;
    const std::span<const uint8_t> bytes = inputs[index].bytes();
    const uint64_t n = bytes.size();
    const Clock::time_point root_start = Clock::now();

    auto blob = log.Time(trace, "ingest.read_blob", "replay", n, [&] {
      ingest::MemoryStreamReader reader(bytes);
      return ingest::ReadApkBlob(reader);
    });
    if (!blob.ok() || blob->digest() != inputs[index].digest()) {
      Die("replay: ReadApkBlob disagrees with ingest");
    }
    log.Time(trace, "util.sha1", "replay", n, [&] { return util::Sha1(bytes); });
    log.Time(trace, "util.crc32", "replay", n, [&] { return util::Crc32(bytes); });

    auto apk = log.Time(trace, "apk.parse", "replay", n, [&] { return apk::ParseApk(bytes); });
    auto zip = log.Time(trace, "apk.zip", "replay", n,
                        [&] { return apk::ZipReader::Parse(bytes); });
    if (!apk.ok() || !zip.ok()) {
      Die("replay: an input failed to parse");
    }
    const std::vector<uint8_t>* manifest_bytes = zip->Find(apk::kManifestEntry);
    const std::vector<uint8_t>* dex_bytes = zip->Find(apk::kDexEntry);
    if (manifest_bytes == nullptr || dex_bytes == nullptr) {
      Die("replay: input lacks manifest or dex");
    }
    log.Time(trace, "apk.manifest", "replay", manifest_bytes->size(),
             [&] { return apk::ParseManifest(*manifest_bytes); });
    log.Time(trace, "apk.dex", "replay", dex_bytes->size(),
             [&] { return apk::ParseDex(*dex_bytes); });
    std::vector<uint8_t> digest_input = *manifest_bytes;
    digest_input.insert(digest_input.end(), dex_bytes->begin(), dex_bytes->end());
    log.Time(trace, "apk.content_digest", "replay", digest_input.size(),
             [&] { return apk::ContentDigest(digest_input); });

    const emu::EmulationReport report =
        log.Time(trace, "emu.run", "replay", 0, [&] { return engine.Run(*apk, tracked); });
    out.fallbacks += report.fell_back ? 1 : 0;
    const core::ApiChecker::Verdict verdict =
        log.Time(trace, "core.classify", "replay", 0, [&] { return checker.Classify(report); });
    if (verdict.malicious != refs[index].malicious || verdict.score != refs[index].score) {
      ++out.mismatches;
    }

    store::VerdictRecord record;
    record.digest = inputs[index].digest();
    record.model_version = 1;
    record.malicious = verdict.malicious;
    record.score = verdict.score;
    auto appended = log.Time(trace, "store.append", "replay", 0,
                             [&] { return store->Append(std::move(record)); });
    if (!appended.ok()) {
      Die("replay store append: " + appended.error());
    }

    // The upload wire path: 64 KB UploadChunk frames, encoded then
    // reassembled by the streaming decoder.
    std::vector<fabric::UploadChunk> chunks;
    for (size_t offset = 0; offset < n; offset += kFrameChunkBytes) {
      const size_t len = std::min<size_t>(kFrameChunkBytes, n - offset);
      chunks.push_back({static_cast<uint32_t>(chunks.size() + 1),
                        std::vector<uint8_t>(bytes.begin() + offset, bytes.begin() + offset + len)});
    }
    const std::vector<uint8_t> wire = log.Time(trace, "fabric.encode", "replay", n, [&] {
      std::vector<uint8_t> frames;
      for (const fabric::UploadChunk& chunk : chunks) {
        const std::vector<uint8_t> frame =
            fabric::EncodeFrame(fabric::MsgType::kUploadChunk, fabric::EncodeUploadChunk(chunk));
        frames.insert(frames.end(), frame.begin(), frame.end());
      }
      return frames;
    });
    const uint64_t decoded = log.Time(trace, "fabric.decode", "replay", n, [&] {
      fabric::FrameAssembler assembler;
      assembler.Feed(wire);
      uint64_t body = 0;
      for (auto next = assembler.Pull(); next.status == fabric::DecodeStatus::kOk;
           next = assembler.Pull()) {
        auto chunk = fabric::DecodeUploadChunk(next.frame.payload);
        body += chunk.ok() ? chunk->bytes.size() : 0;
      }
      return body;
    });
    if (decoded != n) {
      Die("replay: frame codec lost bytes");
    }
    log.Add({trace, "replay", "", root_start, Clock::now(), n});
    parsed.push_back(std::move(*apk));
    ++out.inputs;
  }

  // ParseApk minus the four parts timed on the same bytes.
  const std::vector<double> parse = log.MicrosOf("apk.parse");
  const std::vector<double> zip = log.MicrosOf("apk.zip");
  const std::vector<double> manifest = log.MicrosOf("apk.manifest");
  const std::vector<double> dex = log.MicrosOf("apk.dex");
  const std::vector<double> digest = log.MicrosOf("apk.content_digest");
  for (size_t i = 0; i < parse.size(); ++i) {
    out.parse_self_us.push_back(parse[i] - zip[i] - manifest[i] - dex[i] - digest[i]);
  }

  emu::DeviceFarm farm(universe, service_config.farm);
  const size_t batch_size = std::max<size_t>(1, service_config.farm.num_emulators);
  for (size_t begin = 0; begin < parsed.size(); begin += batch_size) {
    const size_t len = std::min(batch_size, parsed.size() - begin);
    log.Time(kBatchTraceBase + begin / batch_size, "emu.run_batch", "", 0, [&] {
      return farm.RunBatch(std::span<const apk::ApkFile>(parsed).subspan(begin, len), tracked);
    });
  }
  if (auto flushed = store->Flush(); !flushed.ok()) {
    Die("replay store flush: " + flushed.error());
  }
  out.store_stats = store->stats();
  return out;
}

void WriteSpans(const std::filesystem::path& path, const RunOutcome& run,
                const std::vector<ingest::ApkBlob>& inputs, const SpanLog& log,
                Clock::time_point origin) {
  std::FILE* file = std::fopen(path.string().c_str(), "w");
  if (file == nullptr) {
    Die("cannot write " + path.string());
  }
  auto us = [&](Clock::time_point t) { return Micros(t - origin); };
  auto emit = [&](uint64_t trace, const char* name, const char* parent, Clock::time_point start,
                  Clock::time_point end, uint64_t bytes) {
    std::fprintf(file,
                 "{\"trace\":%llu,\"name\":\"%s\",\"parent\":\"%s\",\"start_us\":%.3f,"
                 "\"end_us\":%.3f,\"bytes\":%llu}\n",
                 static_cast<unsigned long long>(trace), name, parent, us(start), us(end),
                 static_cast<unsigned long long>(bytes));
  };
  for (size_t i = 0; i < run.used; ++i) {
    const Slot& slot = run.slots[i];
    if (slot.state != SlotState::kDone) {
      continue;
    }
    emit(i, "verdict", "", slot.sent, slot.done, inputs[slot.input].size());
    if (slot.admitted != Clock::time_point{}) {
      emit(i, "serve.submit", "verdict", slot.issued, slot.admitted, 0);
    }
  }
  for (const Span& span : log.spans()) {
    emit(span.trace, span.name, span.parent, span.start, span.end, span.bytes);
  }
  if (std::fclose(file) != 0) {
    Die("cannot write " + path.string());
  }
}

// Cost of one steady_clock read, the only work the traced window adds.
double ClockReadNs() {
  constexpr int kReads = 200'000;
  Clock::time_point sink{};
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < kReads; ++i) {
    sink = std::max(sink, Clock::now());
  }
  return std::chrono::duration<double, std::nano>(sink - start).count() / kReads;
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value = 0.0;
  const char* unit = "";
};

void PrintResult(size_t attempted, size_t failed, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": true, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {", attempted,
              failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        Die("missing value for " + flag);
      }
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value().c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value() == "1";
    } else if (flag == "--smoke") {
      args.smoke = true;
    } else if (flag == "--flip-reference") {
      args.flip_reference = true;
    } else if (flag == "--model") {
      args.model = value();
    } else if (flag == "--work-dir") {
      args.work_dir = value();
    } else if (flag == "--train-model") {
      args.train_model = value();
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (args.seconds <= 0) {
    Die("--seconds must be positive");
  }
  return args;
}

int Main(int argc, char** argv) {
  // Per-app emu.fallback WARN lines are not part of what is measured.
  setenv("APICHECKER_LOG_LEVEL", "error", 1);
  const Args args = ParseArgs(argc, argv);
  if (!args.train_model.empty()) {
    return TrainModel(args.train_model);
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) {
      workload = &w;
    }
  }
  if (workload == nullptr || args.model.empty() || args.work_dir.empty()) {
    Die("usage: --workload fresh_closed|market_open|upload_closed --seed N --seconds S "
        "--trace 0|1 --model FILE --work-dir DIR [--smoke]");
  }
  Scale scale;
  if (args.smoke) {
    scale = {.setup_repeats = 3, .warmup_s = 0.2, .pool_cap = 256, .replay_max = 64};
  }
  const Clock::time_point origin = Clock::now();
  const std::filesystem::path work = args.work_dir;
  std::filesystem::remove_all(work);
  std::filesystem::create_directories(work);

  // Inputs, untimed: the model blob, the distinct APK pool, their reference
  // verdicts, and (market_open) the arrival schedule.
  const std::vector<uint8_t> model = ReadFile(args.model);
  const android::ApiUniverse universe = MakeUniverse();
  auto checker = core::DeserializeChecker(universe, model);
  if (!checker.ok()) {
    Die("model restore failed: " + checker.error());
  }
  // Wall time of each phase, printed for whoever sizes a run.
  std::vector<std::pair<const char*, double>> phases;
  Clock::time_point phase_start = Clock::now();
  auto end_phase = [&](const char* name) {
    const Clock::time_point now = Clock::now();
    phases.emplace_back(name, Seconds(now - phase_start));
    phase_start = now;
  };
  const size_t pool = std::min(workload->distinct, scale.pool_cap);

  // setup_s is the median of several cold starts, a third of them before the
  // inputs are built, a third before the load and a third after it, so it
  // samples the machine at three points of the run. The last one before the
  // load serves it; each other stack is stopped and destroyed before the next
  // one is built.
  std::vector<double> setup_s;
  auto cold_start = [&] {
    const std::filesystem::path dir = work / ("setup-" + std::to_string(setup_s.size()));
    std::filesystem::create_directories(dir);
    const Clock::time_point start = Clock::now();
    std::unique_ptr<Stack> stack = SetUp(*workload, pool, model, dir);
    setup_s.push_back(Seconds(Clock::now() - start));
    return stack;
  };
  const size_t setup_third = scale.setup_repeats / 3;
  while (setup_s.size() < setup_third) {
    cold_start()->Stop();
  }
  end_phase("setup");

  const serve::ServiceConfig service_config = MakeServiceConfig(*workload, pool, "");
  const std::vector<ingest::ApkBlob> inputs = BuildInputs(universe, *workload, pool, args.seed);
  end_phase("inputs");
  std::vector<Reference> refs =
      ReferenceVerdicts(universe, *checker, service_config.farm.engine, inputs);
  end_phase("references");
  if (args.flip_reference) {
    refs[0].malicious = !refs[0].malicious;
  }
  const double span_s = scale.warmup_s + args.seconds;
  std::vector<Arrival> schedule;
  if (workload->loop == Loop::kOpenSubmit) {
    schedule = MarketSchedule(static_cast<size_t>(std::llround(kMarketRatePerSec * span_s)),
                              span_s, inputs.size(), args.seed);
  }

  RunOutcome run;
  run.slots.resize(workload->loop == Loop::kOpenSubmit ? schedule.size()
                   : workload->loop == Loop::kClosedSubmit
                       ? static_cast<size_t>(span_s * 20'000) + 1'024
                       : static_cast<size_t>(span_s * 5'000) + 1'024);

  while (setup_s.size() + 1 < scale.setup_repeats - setup_third) {
    cold_start()->Stop();
  }
  // peak_rss_mb is the serving stack's own: the RSS high-water mark over the
  // load less the RSS just before its cold start, when the inputs, reference
  // verdicts and load slots are already resident and the earlier cold starts'
  // freed heap has been handed back to the kernel.
  malloc_trim(0);
  const double base_rss_mb = StatusMb("VmRSS:");
  std::unique_ptr<Stack> stack = cold_start();
  end_phase("setup");
  ResetPeakRss();

  switch (workload->loop) {
    case Loop::kClosedSubmit:
      StartWindow(run, scale.warmup_s, args.seconds);
      RunClosedSubmit(*stack->service, inputs, args.trace, run);
      break;
    case Loop::kOpenSubmit: {
      const Clock::time_point start = Clock::now() + std::chrono::milliseconds(10);
      run.window_start = start + ToDuration(scale.warmup_s);
      run.window_end = start + ToDuration(span_s);
      RunOpenSubmit(*stack->service, inputs, schedule, model, start, args.trace, run);
      break;
    }
    case Loop::kClosedUpload:
      StartWindow(run, scale.warmup_s, args.seconds);
      RunClosedUpload(stack->endpoint, inputs, args.seed, run);
      break;
  }
  end_phase("load");
  const double peak_rss_mb = StatusMb("VmHWM:") - base_rss_mb;
  stack->Stop();
  end_phase("stop");
  const serve::ServiceStats stats = stack->service->stats();
  std::optional<store::StoreStats> live_store;
  if (const store::VerdictStore* store = stack->service->verdict_store()) {
    live_store = store->stats();
  }
  std::optional<gateway::GatewayStats> gw;
  if (stack->gateway) {
    gw = stack->gateway->stats();
  }
  stack.reset();
  while (setup_s.size() < scale.setup_repeats) {
    cold_start()->Stop();
  }
  end_phase("setup");

  // ---- Correctness gate: every kOk verdict equals the reference verdict of
  // its bytes; the ledgers balance; the swap changed no verdict.
  std::vector<std::string> failures;
  size_t mismatched = 0, ok_by_version[3] = {0, 0, 0}, done = 0;
  for (size_t i = 0; i < run.used; ++i) {
    const Slot& slot = run.slots[i];
    if (slot.state == SlotState::kDone) {
      ++done;
      if (slot.status == serve::VetStatus::kOk) {
        const Reference& ref = refs[slot.input];
        mismatched += slot.malicious != ref.malicious || slot.score != ref.score;
        ++ok_by_version[std::min<uint32_t>(slot.model_version, 2)];
      }
    }
  }
  if (mismatched > 0) {
    failures.push_back(std::to_string(mismatched) + " verdicts differ from the reference");
  }
  if (stats.accepted != stats.resolved()) {
    failures.push_back("service ledger: accepted " + std::to_string(stats.accepted) +
                       " != resolved " + std::to_string(stats.resolved()));
  }
  if (workload->loop != Loop::kClosedUpload && done != stats.accepted) {
    failures.push_back("callbacks " + std::to_string(done) + " != accepted " +
                       std::to_string(stats.accepted));
  }
  if (gw && !gw->Balanced()) {
    failures.push_back("gateway ledger: accepted != completed + aborted");
  }
  if (workload->loop == Loop::kOpenSubmit &&
      (run.swapped_to != 2 || ok_by_version[1] == 0 || ok_by_version[2] == 0)) {
    failures.push_back("hot swap: expected verdicts from model v1 and v2");
  }
  if (workload->loop == Loop::kClosedSubmit && stats.cache_hits != 0) {
    failures.push_back("fresh_closed saw digest-cache hits");
  }
  if (run.capacity_hit) {
    failures.push_back("load generator ran out of submission slots");
  }

  // ---- The timed window: a verdict counts if it resolves in the window, a
  // latency if its submission was sent in it. verdict_p99_ms is the mean of
  // the p99s of kP99Slices equal slices of the window. Every slice weighs the
  // same, so a stall anywhere in the window (the hot swap included) raises it
  // in proportion; but a few seconds of scheduling noise from a neighbour on a
  // shared machine raise one slice's p99, where they would set the whole
  // window's p99 whenever their delayed samples outnumber 1% of the window.
  constexpr int64_t kP99Slices = 6;
  const Clock::time_point ws = run.window_start, we = run.window_end;
  auto in_window = [&](Clock::time_point t) { return t >= ws && t < we; };
  size_t attempted = 0, ok_in_window = 0, resolved_in_window = 0;
  std::vector<double> latency_ms, submit_us, late_ms;
  std::vector<std::vector<double>> slice_latency_ms(kP99Slices);
  for (size_t i = 0; i < run.used; ++i) {
    const Slot& slot = run.slots[i];
    const bool ok = slot.state == SlotState::kDone && slot.status == serve::VetStatus::kOk;
    resolved_in_window += ok && in_window(slot.done);
    if (!in_window(slot.sent)) {
      continue;
    }
    ++attempted;
    ok_in_window += ok;
    if (slot.state == SlotState::kDone) {
      latency_ms.push_back(Millis(slot.done - slot.sent));
      slice_latency_ms[(slot.sent - ws).count() * kP99Slices / (we - ws).count()].push_back(
          latency_ms.back());
    }
    if (slot.admitted != Clock::time_point{}) {
      submit_us.push_back(Micros(slot.admitted - slot.issued));
    }
    if (workload->loop == Loop::kOpenSubmit && slot.issued != Clock::time_point{}) {
      late_ms.push_back(Millis(slot.issued - slot.sent));
    }
  }
  const size_t failed = attempted - ok_in_window;
  std::vector<double> slice_p99_ms;
  for (const std::vector<double>& slice : slice_latency_ms) {
    if (slice.empty()) {
      failures.push_back("a slice of the timed window saw no verdict");
    }
    slice_p99_ms.push_back(Quantile(slice, 0.99));
  }
  double verdict_p99_ms = 0.0;
  for (double p99 : slice_p99_ms) {
    verdict_p99_ms += p99 / kP99Slices;
  }

  SpanLog log;
  ReplayOutcome replay;
  if (args.trace && failures.empty()) {
    std::vector<bool> used_input(inputs.size(), false);
    for (size_t i = 0; i < run.used; ++i) {
      if (run.slots[i].state != SlotState::kUnused) {
        used_input[run.slots[i].input] = true;
      }
    }
    std::vector<uint32_t> distinct;
    for (uint32_t i = 0; i < inputs.size(); ++i) {
      if (used_input[i]) {
        distinct.push_back(i);
      }
    }
    const size_t stride = (distinct.size() + scale.replay_max - 1) / scale.replay_max;
    std::vector<uint32_t> sample;
    for (size_t i = 0; i < distinct.size(); i += std::max<size_t>(1, stride)) {
      sample.push_back(distinct[i]);
    }
    replay = Replay(universe, *checker, service_config, inputs, refs, sample,
                    work / "replay-store", log);
    end_phase("replay");
    if (replay.mismatches > 0) {
      failures.push_back(std::to_string(replay.mismatches) +
                         " replay verdicts differ from the reference");
    }
  }

  std::printf("run: {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
              "\"smoke\": %d, \"nproc\": %u, \"build_type\": \"%s\", \"git_rev\": \"%s\", "
              "\"source_hash\": \"%s\"}\n",
              workload->name, static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, args.smoke ? 1 : 0, std::thread::hardware_concurrency(),
              PERFBENCH_BUILD_TYPE, std::getenv("APICHECKER_GIT_REV") ? std::getenv("APICHECKER_GIT_REV") : "unknown",
              std::getenv("PERFBENCH_SOURCE_HASH") ? std::getenv("PERFBENCH_SOURCE_HASH") : "unknown");
  if (!failures.empty()) {
    for (const std::string& failure : failures) {
      std::fprintf(stderr, "perfbench: FAIL: %s\n", failure.c_str());
    }
    return 1;
  }

  double pool_mb = 0.0;
  for (const ingest::ApkBlob& blob : inputs) {
    pool_mb += static_cast<double>(blob.size()) / 1e6;
  }
  std::printf("inputs: %zu distinct APKs, %.1f MB\n", inputs.size(), pool_mb);
  std::printf("setup: %zu cold starts, s:", setup_s.size());
  for (double seconds : setup_s) {
    std::printf(" %.4f", seconds);
  }
  std::printf("\n");
  std::printf("phases:");
  for (const auto& [name, seconds] : phases) {
    std::printf(" %s %.2f s", name, seconds);
  }
  std::printf("\n");
  const double window_s = Seconds(we - ws);
  const double throughput = static_cast<double>(resolved_in_window) / window_s;
  const double cpu_ms_per_verdict =
      Ratio((run.cpu_end - run.cpu_start) * 1e3, static_cast<double>(resolved_in_window));
  std::printf("window %.3f s: %zu attempted, %zu ok, %zu failed (fail_ratio %.6f of %zu); "
              "%zu verdicts resolved in window\n",
              window_s, attempted, ok_in_window, failed,
              Ratio(static_cast<double>(failed), static_cast<double>(attempted)), attempted,
              resolved_in_window);
  std::printf("latency samples: %zu; whole-window p99 %.4f ms; slice p99s ms:",
              latency_ms.size(), Quantile(latency_ms, 0.99));
  for (double p99 : slice_p99_ms) {
    std::printf(" %.4f", p99);
  }
  std::printf("\npeak RSS %.1f MB over a %.1f MB base\n", peak_rss_mb, base_rss_mb);
  std::printf("service: accepted %llu, cache hits %llu, batches %llu, shed %llu, rejected %llu\n",
              static_cast<unsigned long long>(stats.accepted),
              static_cast<unsigned long long>(stats.cache_hits),
              static_cast<unsigned long long>(stats.batches),
              static_cast<unsigned long long>(stats.shed_overload),
              static_cast<unsigned long long>(stats.rejected));

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", Quantile(setup_s, 0.5), "s"},
        {"throughput_per_s", throughput, "1/s"},
        {"verdict_p50_ms", Quantile(latency_ms, 0.5), "ms"},
        {"verdict_p99_ms", verdict_p99_ms, "ms"},
        {"cpu_ms_per_verdict", cpu_ms_per_verdict, "ms"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"ok_ratio", Ratio(static_cast<double>(ok_in_window), static_cast<double>(attempted)),
         "ratio"},
    };
  } else {
    const double emulated = static_cast<double>(stats.completed - stats.cache_hits);
    const store::StoreStats& store_stats = live_store ? *live_store : replay.store_stats;
    double run_us_total = 0.0, batch_us_total = 0.0;
    for (double us : log.MicrosOf("emu.run")) {
      run_us_total += us;
    }
    for (double us : log.MicrosOf("emu.run_batch")) {
      batch_us_total += us;
    }
    const double trace_overhead_pct =
        Ratio(static_cast<double>(run.timestamps_for_tracing) * ClockReadNs() * 1e-9 * 100.0,
              run.cpu_end - run.cpu_start);
    metrics = {
        {"apk.parse_us", log.MedianMicros("apk.parse"), "us"},
        {"apk.zip_us", log.MedianMicros("apk.zip"), "us"},
        {"apk.manifest_us", log.MedianMicros("apk.manifest"), "us"},
        {"apk.dex_us", log.MedianMicros("apk.dex"), "us"},
        {"apk.content_digest_us", log.MedianMicros("apk.content_digest"), "us"},
        {"apk.parse_self_us", Quantile(replay.parse_self_us, 0.5), "us"},
        {"util.crc32_mb_s", log.MbPerSec("util.crc32"), "MB/s"},
        {"emu.run_us", log.MedianMicros("emu.run"), "us"},
        {"emu.batch_ms", log.MedianMicros("emu.run_batch") / 1e3, "ms"},
        {"emu.batch_parallelism", Ratio(run_us_total, batch_us_total), "ratio"},
        {"emu.fallback_ratio",
         Ratio(static_cast<double>(replay.fallbacks), static_cast<double>(replay.inputs)),
         "ratio"},
        {"rt.threads_peak", static_cast<double>(run.threads_peak), "count"},
        {"core.classify_us", log.MedianMicros("core.classify"), "us"},
        {"serve.submit_us", Quantile(submit_us, 0.5), "us"},
        {"serve.submit_p99_us", Quantile(submit_us, 0.99), "us"},
        {"serve.cache_hit_ratio",
         Ratio(static_cast<double>(stats.cache_hits), static_cast<double>(stats.accepted)),
         "ratio"},
        {"serve.batch_fill", Ratio(emulated, static_cast<double>(stats.batches)), "count"},
        {"serve.shed", static_cast<double>(stats.shed_overload), "count"},
        {"serve.rejected", static_cast<double>(stats.rejected), "count"},
        {"store.append_us", log.MedianMicros("store.append"), "us"},
        {"store.fsyncs_per_1k_appends",
         Ratio(1e3 * static_cast<double>(store_stats.fsyncs),
               static_cast<double>(store_stats.appends)),
         "count"},
        {"ingest.read_blob_us", log.MedianMicros("ingest.read_blob"), "us"},
        {"util.sha1_mb_s", log.MbPerSec("util.sha1"), "MB/s"},
        {"fabric.encode_mb_s", log.MbPerSec("fabric.encode"), "MB/s"},
        {"fabric.decode_mb_s", log.MbPerSec("fabric.decode"), "MB/s"},
        {"gateway.early_verdict_ratio",
         gw ? Ratio(static_cast<double>(gw->early_verdicts), static_cast<double>(gw->accepted))
            : 0.0,
         "ratio"},
        {"gateway.aborts", gw ? static_cast<double>(gw->aborted) : 0.0, "count"},
        {"gateway.mb_received", gw ? static_cast<double>(gw->bytes_received) / 1e6 : 0.0, "MB"},
        {"loadgen.late_p99_ms", Quantile(late_ms, 0.99), "ms"},
        {"trace_overhead_pct", trace_overhead_pct, "%"},
    };
    WriteSpans(work / "spans.jsonl", run, inputs, log, origin);
  }
  for (const Metric& metric : metrics) {
    std::printf("  %-30s %14.4f %s\n", metric.name.c_str(), metric.value, metric.unit);
  }
  PrintResult(attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace apichecker::perfbench

int main(int argc, char** argv) { return apichecker::perfbench::Main(argc, argv); }
