// apichecker: command-line front end for the whole system. Works with real
// files on disk — synthesized .apk archives and serialized model blobs — so
// the full production flow can be driven from a shell:
//
//   apichecker universe                      # framework model stats
//   apichecker corpus --apps 50 --out dir/   # write .apk files (+ labels)
//   apichecker study --apps 6000 --model m.bin   # train + save APICHECKER
//   apichecker vet --model m.bin dir/*.apk   # scan APKs, print verdicts
//   apichecker market --months 3             # deployment simulation
//
// Common flags: --apis N, --seed S. The universe is regenerated from the
// seed, so a model trained with one seed must be used with the same seed.
// Observability: --metrics-out=<file> dumps the metrics registry (JSON, or
// Prometheus text when the path ends in .prom) after any command; vet/study/
// market additionally print a stats summary. APICHECKER_LOG_LEVEL=debug|info|
// warn|error controls stderr logging.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <chrono>
#include <future>
#include <thread>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "apk/apk.h"
#include "core/model_store.h"
#include "core/study.h"
#include "emu/farm.h"
#include "fabric/transport.h"
#include "fabric/worker.h"
#include "gateway/client.h"
#include "gateway/gateway.h"
#include "gateway/net_fault.h"
#include "ingest/apk_blob.h"
#include "ingest/stream_reader.h"
#include "market/review_pipeline.h"
#include "market/simulation.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/trace_collector.h"
#include "serve/service.h"
#include "store/verdict_store.h"
#include "synth/corpus.h"
#include "util/rng.h"
#include "util/strings.h"

using namespace apichecker;

namespace {

struct CommonFlags {
  size_t apis = 30'000;
  uint64_t seed = 42;
  size_t apps = 2'000;
  size_t months = 3;
  std::string model_path = "apichecker_model.bin";
  std::string out_dir = "corpus_out";
  std::string metrics_out;  // Empty = no dump.
  // serve command tuning.
  size_t shards = 4;
  size_t batch = 0;       // 0 = one per farm emulator.
  size_t linger_ms = 10;
  size_t farms = 1;       // Device farms in the serving pool.
  size_t rt_threads = 0;  // Unified-runtime executor threads; 0 = auto-size.
  double fault_rate = 0;  // Per-batch farm fault probability (fault injection).
  std::string store_dir;  // Persistent verdict store; empty = disabled.
  std::string fsync_policy = "group";  // every | group | buffered.
  double store_fault_rate = 0;  // Store short-write/fsync fault probability.
  size_t chunk_kb = 64;    // Streaming-ingest chunk size.
  size_t large_every = 0;  // Pad every Nth trace APK to --large-kb (0 = off).
  size_t large_kb = 8192;  // Target size of padded "large" APKs.
  // Tracing: --trace-out writes completed traces (Chrome trace_event format
  // when the path ends in .trace.json, JSON-lines otherwise). --trace-sample
  // defaults to 1.0 when --trace-out is given, 0 (off) otherwise. An existing
  // --trace-out file is never overwritten without --force.
  std::string trace_out;
  double trace_sample = -1.0;  // < 0 = unset.
  bool force = false;
  // Farm fabric: `serve --fabric N` spawns N `apichecker farm` worker
  // processes on unix sockets and dispatches batches over the wire;
  // --fabric-kill-one SIGKILLs one worker mid-trace to demonstrate the
  // heartbeat-driven breaker + failover path. `farm --listen E` is the
  // worker side (normally spawned by serve, usable standalone for tcp:).
  size_t fabric = 0;
  bool fabric_kill_one = false;
  std::string listen;
  uint32_t worker_id = 0;
  // Overload control & QoS: `serve --shed` turns on watermark-driven load
  // shedding (bulk first, interactive never); --class-weights I,R,B sets the
  // weighted-fair pop shares, --slo-ms I,R,B per-class default deadlines
  // (0 = none), --spill-threshold-kb spills blobs at/above the threshold to
  // unlinked temp files so the blob pool bounds RSS during a storm.
  bool shed = false;
  size_t shard_capacity = 512;
  std::string class_weights;  // "I,R,B"; empty = library default.
  std::string slo_ms;         // "I,R,B" in ms; empty/0 = no class SLO.
  size_t spill_threshold_kb = 0;  // 0 = spilling off.
  // Ingest gateway: `serve --listen E` puts an IngestGateway in front of the
  // service (no synthetic trace; uploads arrive over the wire) and parks
  // until SIGTERM/SIGINT. `submit --connect E` is the client side: streams
  // APKs as framed chunks with retry/resume-by-digest, optionally mangled by
  // a deterministic NetFaultPlan (--stall-at/--disconnect-at/--torn-at/
  // --corrupt-at take comma-separated 1-based chunk ordinals).
  std::string connect;        // submit: gateway endpoint.
  size_t uploads = 4;         // submit: synthetic uploads when no files given.
  size_t attempts = 4;        // submit: max attempts per upload.
  std::string priority = "bulk";  // submit: interactive | rescan | bulk.
  std::string stall_at;       // Scripted stall ordinals.
  size_t stall_ms = 300;      // Stall duration (scripted and random).
  double stall_rate = 0;      // Random per-chunk stall probability.
  std::string disconnect_at;  // Scripted mid-stream disconnect ordinals.
  std::string torn_at;        // Scripted torn-frame ordinals.
  std::string corrupt_at;     // Scripted corrupt-frame ordinals.
  size_t throttle_from = 0;   // Throttle starting at this chunk ordinal.
  double throttle_bps = 0;    // Throttle target, bytes/sec.
  // Gateway tuning (serve --listen side); 0 = library default.
  size_t read_deadline_ms = 0;
  size_t idle_timeout_ms = 0;
  double min_bps = 0;         // Slow-loris throughput floor, bytes/sec.
  size_t max_uploads = 0;     // Concurrent-upload budget.
  std::vector<std::string> positional;
};

// Parses "3,7,12" into 1-based chunk ordinals. Returns false on malformed
// input (ordinal 0 included — the plans are 1-based).
bool ParseOrdinalList(const char* text, std::vector<uint64_t>& out) {
  const char* p = text;
  while (*p != '\0') {
    char* end = nullptr;
    const uint64_t value = std::strtoull(p, &end, 10);
    if (end == p || value == 0) return false;
    out.push_back(value);
    if (*end == ',') {
      p = end + 1;
    } else if (*end == '\0') {
      p = end;
    } else {
      return false;
    }
  }
  return !out.empty();
}

// Parses "a,b,c" (interactive,rescan,bulk) into out[3]. Returns false on
// malformed input.
bool ParseClassTriple(const char* text, uint64_t out[3]) {
  char* cursor = nullptr;
  out[0] = std::strtoull(text, &cursor, 10);
  if (cursor == text || *cursor != ',') return false;
  const char* second = cursor + 1;
  out[1] = std::strtoull(second, &cursor, 10);
  if (cursor == second || *cursor != ',') return false;
  const char* third = cursor + 1;
  out[2] = std::strtoull(third, &cursor, 10);
  return cursor != third && *cursor == '\0';
}

CommonFlags ParseFlags(int argc, char** argv, int first) {
  CommonFlags flags;
  for (int i = first; i < argc; ++i) {
    auto next_value = [&](const char* name) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", name);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--apis") == 0) {
      flags.apis = std::strtoull(next_value("--apis"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      flags.seed = std::strtoull(next_value("--seed"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--apps") == 0) {
      flags.apps = std::strtoull(next_value("--apps"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--months") == 0) {
      flags.months = std::strtoull(next_value("--months"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--model") == 0) {
      flags.model_path = next_value("--model");
    } else if (std::strcmp(argv[i], "--out") == 0) {
      flags.out_dir = next_value("--out");
    } else if (std::strcmp(argv[i], "--shards") == 0) {
      flags.shards = std::strtoull(next_value("--shards"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--batch") == 0) {
      flags.batch = std::strtoull(next_value("--batch"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--linger-ms") == 0) {
      flags.linger_ms = std::strtoull(next_value("--linger-ms"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--farms") == 0) {
      flags.farms = std::strtoull(next_value("--farms"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--rt-threads") == 0) {
      flags.rt_threads = std::strtoull(next_value("--rt-threads"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--fault-rate") == 0) {
      flags.fault_rate = std::strtod(next_value("--fault-rate"), nullptr);
    } else if (std::strcmp(argv[i], "--store-dir") == 0) {
      flags.store_dir = next_value("--store-dir");
    } else if (std::strcmp(argv[i], "--fsync-policy") == 0) {
      flags.fsync_policy = next_value("--fsync-policy");
    } else if (std::strcmp(argv[i], "--store-fault-rate") == 0) {
      flags.store_fault_rate = std::strtod(next_value("--store-fault-rate"), nullptr);
    } else if (std::strcmp(argv[i], "--chunk-kb") == 0) {
      flags.chunk_kb = std::strtoull(next_value("--chunk-kb"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--large-every") == 0) {
      flags.large_every = std::strtoull(next_value("--large-every"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--large-kb") == 0) {
      flags.large_kb = std::strtoull(next_value("--large-kb"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--metrics-out") == 0) {
      flags.metrics_out = next_value("--metrics-out");
    } else if (std::strncmp(argv[i], "--metrics-out=", 14) == 0) {
      flags.metrics_out = argv[i] + 14;
    } else if (std::strcmp(argv[i], "--trace-out") == 0) {
      flags.trace_out = next_value("--trace-out");
    } else if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
      flags.trace_out = argv[i] + 12;
    } else if (std::strcmp(argv[i], "--trace-sample") == 0) {
      flags.trace_sample = std::strtod(next_value("--trace-sample"), nullptr);
    } else if (std::strcmp(argv[i], "--force") == 0) {
      flags.force = true;
    } else if (std::strcmp(argv[i], "--fabric") == 0) {
      flags.fabric = std::strtoull(next_value("--fabric"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--fabric-kill-one") == 0) {
      flags.fabric_kill_one = true;
    } else if (std::strcmp(argv[i], "--listen") == 0) {
      flags.listen = next_value("--listen");
    } else if (std::strcmp(argv[i], "--worker-id") == 0) {
      flags.worker_id = static_cast<uint32_t>(
          std::strtoul(next_value("--worker-id"), nullptr, 10));
    } else if (std::strcmp(argv[i], "--shed") == 0) {
      flags.shed = true;
    } else if (std::strcmp(argv[i], "--shard-capacity") == 0) {
      flags.shard_capacity =
          std::strtoull(next_value("--shard-capacity"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--class-weights") == 0) {
      flags.class_weights = next_value("--class-weights");
    } else if (std::strcmp(argv[i], "--slo-ms") == 0) {
      flags.slo_ms = next_value("--slo-ms");
    } else if (std::strcmp(argv[i], "--spill-threshold-kb") == 0) {
      flags.spill_threshold_kb =
          std::strtoull(next_value("--spill-threshold-kb"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--connect") == 0) {
      flags.connect = next_value("--connect");
    } else if (std::strcmp(argv[i], "--uploads") == 0) {
      flags.uploads = std::strtoull(next_value("--uploads"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--attempts") == 0) {
      flags.attempts = std::strtoull(next_value("--attempts"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--priority") == 0) {
      flags.priority = next_value("--priority");
    } else if (std::strcmp(argv[i], "--stall-at") == 0) {
      flags.stall_at = next_value("--stall-at");
    } else if (std::strcmp(argv[i], "--stall-ms") == 0) {
      flags.stall_ms = std::strtoull(next_value("--stall-ms"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--stall-rate") == 0) {
      flags.stall_rate = std::strtod(next_value("--stall-rate"), nullptr);
    } else if (std::strcmp(argv[i], "--disconnect-at") == 0) {
      flags.disconnect_at = next_value("--disconnect-at");
    } else if (std::strcmp(argv[i], "--torn-at") == 0) {
      flags.torn_at = next_value("--torn-at");
    } else if (std::strcmp(argv[i], "--corrupt-at") == 0) {
      flags.corrupt_at = next_value("--corrupt-at");
    } else if (std::strcmp(argv[i], "--throttle-from") == 0) {
      flags.throttle_from = std::strtoull(next_value("--throttle-from"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--throttle-bps") == 0) {
      flags.throttle_bps = std::strtod(next_value("--throttle-bps"), nullptr);
    } else if (std::strcmp(argv[i], "--read-deadline-ms") == 0) {
      flags.read_deadline_ms =
          std::strtoull(next_value("--read-deadline-ms"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--idle-timeout-ms") == 0) {
      flags.idle_timeout_ms =
          std::strtoull(next_value("--idle-timeout-ms"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--min-bps") == 0) {
      flags.min_bps = std::strtod(next_value("--min-bps"), nullptr);
    } else if (std::strcmp(argv[i], "--max-uploads") == 0) {
      flags.max_uploads = std::strtoull(next_value("--max-uploads"), nullptr, 10);
    } else {
      flags.positional.emplace_back(argv[i]);
    }
  }
  return flags;
}

// Compact human-readable dump of every metric that recorded anything: the
// "stats" block printed after vet/study/market runs.
void PrintStatsSummary() {
  std::printf("\nstats\n");
  for (const obs::MetricSnapshot& metric : obs::MetricsRegistry::Default().Snapshot()) {
    switch (metric.kind) {
      case obs::MetricKind::kCounter:
      case obs::MetricKind::kGauge:
        if (metric.value != 0.0) {
          std::printf("  %-52s %.6g\n", metric.name.c_str(), metric.value);
        }
        break;
      case obs::MetricKind::kHistogram: {
        const obs::HistogramSnapshot& hist = metric.histogram;
        if (hist.count > 0) {
          std::printf("  %-52s n=%llu mean=%.3f p50=%.3f p95=%.3f max=%.3f\n",
                      metric.name.c_str(), static_cast<unsigned long long>(hist.count),
                      hist.Mean(), hist.Quantile(0.50), hist.Quantile(0.95), hist.max);
        }
        break;
      }
    }
  }
}

// Honors --metrics-out. Returns false (changing the exit code) on I/O errors.
bool MaybeWriteMetrics(const CommonFlags& flags) {
  if (flags.metrics_out.empty()) {
    return true;
  }
  auto written = obs::WriteMetricsFile(flags.metrics_out, obs::MetricsRegistry::Default());
  if (!written.ok()) {
    std::fprintf(stderr, "metrics dump failed: %s\n", written.error().c_str());
    return false;
  }
  std::printf("metrics written to %s\n", flags.metrics_out.c_str());
  return true;
}

android::ApiUniverse MakeUniverse(const CommonFlags& flags) {
  android::UniverseConfig config;
  config.num_apis = flags.apis;
  config.seed = flags.seed ^ 0xA11D;
  return android::ApiUniverse::Generate(config);
}

int CmdUniverse(const CommonFlags& flags) {
  const android::ApiUniverse universe = MakeUniverse(flags);
  std::printf("framework universe (seed %llu)\n",
              static_cast<unsigned long long>(flags.seed));
  std::printf("  APIs                      : %zu (SDK level %u)\n", universe.num_apis(),
              universe.sdk_level());
  std::printf("  restrictive-permission    : %zu\n",
              universe.RestrictivePermissionApis().size());
  std::printf("  sensitive-operation       : %zu\n", universe.SensitiveOperationApis().size());
  std::printf("  permissions catalogued    : %zu\n", universe.permissions().size());
  std::printf("  intent actions catalogued : %zu\n", universe.intents().size());
  const auto key_like = universe.RestrictivePermissionApis();
  const auto dependents = universe.TransitiveDependents(key_like);
  std::printf("  APIs implemented via restrictive APIs: %zu\n", dependents.size());
  return 0;
}

int CmdCorpus(const CommonFlags& flags) {
  const android::ApiUniverse universe = MakeUniverse(flags);
  synth::CorpusConfig corpus_config;
  corpus_config.seed = flags.seed;
  synth::CorpusGenerator generator(universe, corpus_config);

  std::filesystem::create_directories(flags.out_dir);
  const std::string labels_path = flags.out_dir + "/labels.csv";
  std::ofstream labels(labels_path);
  labels << "file,package,version,ground_truth\n";
  for (size_t i = 0; i < flags.apps; ++i) {
    const synth::AppProfile profile = generator.Next();
    const std::vector<uint8_t> bytes = synth::BuildApkBytes(profile, universe);
    const std::string file = util::StrFormat("%s/app_%05zu.apk", flags.out_dir.c_str(), i);
    std::ofstream out(file, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    labels << util::StrFormat("app_%05zu.apk,%s,%u,%s\n", i, profile.package_name.c_str(),
                              profile.version_code, profile.malicious ? "malicious" : "benign");
  }
  std::printf("wrote %zu APKs and %s\n", flags.apps, labels_path.c_str());
  return 0;
}

int CmdStudy(const CommonFlags& flags) {
  const android::ApiUniverse universe = MakeUniverse(flags);
  synth::CorpusConfig corpus_config;
  corpus_config.seed = flags.seed;
  synth::CorpusGenerator generator(universe, corpus_config);

  std::printf("study: emulating %zu apps with all %zu APIs hooked...\n", flags.apps,
              universe.num_apis());
  core::StudyConfig study_config;
  study_config.num_apps = flags.apps;
  const core::StudyDataset study = core::RunStudy(universe, generator, study_config);

  core::ApiChecker checker(universe, {});
  checker.TrainFromStudy(study);
  std::printf("trained: %zu key APIs, %u features\n", checker.selection().key_apis.size(),
              checker.schema().num_features());

  auto saved = core::SaveCheckerToFile(checker, flags.model_path);
  if (!saved.ok()) {
    std::fprintf(stderr, "save failed: %s\n", saved.error().c_str());
    return 1;
  }
  std::printf("model written to %s\n", flags.model_path.c_str());
  return 0;
}

int CmdVet(const CommonFlags& flags) {
  const android::ApiUniverse universe = MakeUniverse(flags);
  auto checker = core::LoadCheckerFromFile(universe, flags.model_path);
  if (!checker.ok()) {
    std::fprintf(stderr, "cannot load model: %s\n", checker.error().c_str());
    return 1;
  }
  if (flags.positional.empty()) {
    std::fprintf(stderr, "vet: no .apk files given\n");
    return 2;
  }
  // Parse everything first, then run the parseable APKs as one device-farm
  // batch (the production shape: N emulators vetting a submission queue).
  int exit_code = 0;
  std::vector<apk::ApkFile> apks;
  std::vector<std::string> errors(flags.positional.size());
  std::vector<int64_t> batch_slot(flags.positional.size(), -1);
  for (size_t i = 0; i < flags.positional.size(); ++i) {
    const std::string& path = flags.positional[i];
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      errors[i] = "cannot open";
      continue;
    }
    const std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                     std::istreambuf_iterator<char>());
    auto apk = apk::ParseApk(bytes);
    if (!apk.ok()) {
      errors[i] = apk.error();
      continue;
    }
    batch_slot[i] = static_cast<int64_t>(apks.size());
    apks.push_back(std::move(*apk));
  }

  emu::FarmConfig farm_config;
  farm_config.engine.kind = emu::EngineKind::kLightweight;
  emu::DeviceFarm farm(universe, farm_config);
  const emu::BatchResult batch = farm.RunBatch(apks, checker->MakeTrackedSet());

  for (size_t i = 0; i < flags.positional.size(); ++i) {
    const std::string& path = flags.positional[i];
    if (batch_slot[i] < 0) {
      std::printf("%-28s ERROR: %s\n", path.c_str(), errors[i].c_str());
      exit_code = 1;
      continue;
    }
    const emu::EmulationReport& report = batch.reports[static_cast<size_t>(batch_slot[i])];
    const core::ApiChecker::Verdict verdict = checker->Classify(report);
    market::RecordReviewOutcome(verdict.malicious
                                    ? market::ReviewOutcome::kRejectedByChecker
                                    : market::ReviewOutcome::kPublished);
    std::printf("%-28s scan=%4.1f min  score=%.3f  %s\n", path.c_str(),
                report.emulation_minutes, verdict.score,
                verdict.malicious ? "MALICIOUS" : "benign");
  }
  if (!apks.empty()) {
    std::printf("farm: %zu apps on %zu emulators, makespan %.1f min (total %.1f min)\n",
                apks.size(), farm.config().num_emulators, batch.makespan_minutes,
                batch.total_emulation_minutes);
  }
  return exit_code;
}

// Replays a synthetic submission trace through the online vetting service:
// fresh corpus submissions mixed with byte-identical resubmissions (digest-
// cache traffic), a mid-run model hot-swap, and a final accounting check of
// the no-lost-submissions invariant.
// `apichecker farm --listen unix:/path` — the worker side of the farm
// fabric: one DeviceFarm behind a framed-RPC endpoint, normally spawned by
// `serve --fabric N` but equally usable standalone on tcp: for a real
// two-machine split. The universe is regenerated from --apis/--seed exactly
// as serve does, and the fabric handshake's universe checksum rejects a
// client whose parameters differ.
int CmdFarm(const CommonFlags& flags) {
  if (flags.listen.empty()) {
    std::fprintf(stderr, "farm: --listen unix:/path or tcp:host:port is required\n");
    return 2;
  }
  // Terminate on SIGTERM/SIGINT via sigwait (async-signal-safe shutdown): the
  // signals are blocked, Start() runs, and the main thread parks until one
  // arrives, then stops the worker so the socket file is unlinked.
  sigset_t term_signals;
  sigemptyset(&term_signals);
  sigaddset(&term_signals, SIGTERM);
  sigaddset(&term_signals, SIGINT);
  pthread_sigmask(SIG_BLOCK, &term_signals, nullptr);

  const android::ApiUniverse universe = MakeUniverse(flags);
  fabric::FarmWorkerConfig config;
  config.endpoint = flags.listen;
  config.worker_id = flags.worker_id;
  config.rt_threads = flags.rt_threads;
  config.farm.engine.kind = emu::EngineKind::kLightweight;
  config.farm.farm_id = flags.worker_id;
  config.farm.fault_plan.seed = flags.seed + flags.worker_id;
  config.farm.fault_plan.fault_rate = flags.fault_rate;

  fabric::FarmWorker worker(universe, config);
  auto started = worker.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "farm: cannot start: %s\n", started.error().c_str());
    return 1;
  }
  std::printf("farm: worker %u (pid %d) listening on %s\n", flags.worker_id,
              static_cast<int>(::getpid()), started->ToString().c_str());
  std::fflush(stdout);

  int signo = 0;
  sigwait(&term_signals, &signo);
  worker.Stop();
  std::printf("farm: worker %u stopping (signal %d) — %llu connections, "
              "%llu batches served\n",
              flags.worker_id, signo,
              static_cast<unsigned long long>(worker.connections_accepted()),
              static_cast<unsigned long long>(worker.batches_served()));
  return 0;
}

// Forks and execs `apichecker farm` (via /proc/self/exe) for one fabric
// worker. Returns the child pid, or -1 on fork failure.
pid_t SpawnFarmWorker(const std::string& socket_path, size_t index,
                      const CommonFlags& flags) {
  std::vector<std::string> args = {
      "apichecker",
      "farm",
      "--listen",
      "unix:" + socket_path,
      "--apis",
      std::to_string(flags.apis),
      "--seed",
      std::to_string(flags.seed),
      "--worker-id",
      std::to_string(index),
      "--fault-rate",
      std::to_string(flags.fault_rate),
  };
  const pid_t pid = ::fork();
  if (pid != 0) {
    return pid;
  }
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& arg : args) {
    argv.push_back(arg.data());
  }
  argv.push_back(nullptr);
  ::execv("/proc/self/exe", argv.data());
  std::fprintf(stderr, "farm: execv failed: %s\n", std::strerror(errno));
  ::_exit(127);
}

int CmdServe(const CommonFlags& flags) {
  // `serve --listen E` is gateway mode: no synthetic trace — an IngestGateway
  // fronts the service and uploads arrive over the wire until SIGTERM/SIGINT.
  // The signals must be blocked before any service thread spawns so sigwait
  // (not a default disposition in some worker thread) receives them.
  const bool gateway_mode = !flags.listen.empty();
  sigset_t term_signals;
  if (gateway_mode) {
    sigemptyset(&term_signals);
    sigaddset(&term_signals, SIGTERM);
    sigaddset(&term_signals, SIGINT);
    pthread_sigmask(SIG_BLOCK, &term_signals, nullptr);
  }
  const android::ApiUniverse universe = MakeUniverse(flags);
  auto checker = core::LoadCheckerFromFile(universe, flags.model_path);
  if (!checker.ok()) {
    std::fprintf(stderr, "cannot load model: %s\n", checker.error().c_str());
    return 1;
  }
  // Round-trip the model into a blob now: the mid-run hot-swap republishes
  // the same weights as a new snapshot version, so verdicts stay comparable
  // across the swap.
  const std::vector<uint8_t> swap_blob = core::SerializeChecker(*checker);

  serve::ServiceConfig config;
  config.rt_threads = flags.rt_threads;
  config.num_shards = std::max<size_t>(1, flags.shards);
  config.shard_capacity = std::max<size_t>(1, flags.shard_capacity);
  config.overload.shed = flags.shed;
  if (!flags.class_weights.empty()) {
    uint64_t weights[3];
    if (!ParseClassTriple(flags.class_weights.c_str(), weights)) {
      std::fprintf(stderr, "--class-weights wants I,R,B (e.g. 8,3,1)\n");
      return 2;
    }
    for (size_t c = 0; c < serve::kNumPriorityClasses; ++c) {
      config.overload.class_weights[c] = static_cast<uint32_t>(weights[c]);
    }
  }
  if (!flags.slo_ms.empty()) {
    uint64_t slo[3];
    if (!ParseClassTriple(flags.slo_ms.c_str(), slo)) {
      std::fprintf(stderr, "--slo-ms wants I,R,B milliseconds (0 = none)\n");
      return 2;
    }
    for (size_t c = 0; c < serve::kNumPriorityClasses; ++c) {
      config.overload.class_slo[c] = std::chrono::milliseconds(slo[c]);
    }
  }
  if (flags.spill_threshold_kb > 0) {
    ingest::ApkBlob::SetSpillConfig({flags.spill_threshold_kb * 1024, ""});
  }
  config.farm.engine.kind = emu::EngineKind::kLightweight;
  config.scheduler.batch_size = flags.batch;  // 0 = one per emulator.
  config.scheduler.max_linger = std::chrono::milliseconds(flags.linger_ms);
  config.pool.num_farms = std::max<size_t>(1, flags.farms);
  config.pool.fault_plan.seed = flags.seed;
  config.pool.fault_plan.fault_rate = flags.fault_rate;
  // --trace-out with no explicit rate means "trace everything": a CLI run is
  // small and the user asked to see traces. Without --trace-out, tracing
  // stays off unless --trace-sample was given.
  config.trace_sample_rate =
      flags.trace_sample >= 0 ? flags.trace_sample
                              : (flags.trace_out.empty() ? 0.0 : 1.0);
  if (!flags.store_dir.empty()) {
    auto policy = store::ParseFsyncPolicy(flags.fsync_policy);
    if (!policy.ok()) {
      std::fprintf(stderr, "%s\n", policy.error().c_str());
      return 2;
    }
    config.store.dir = flags.store_dir;
    config.store.fsync_policy = *policy;
    config.store.fault_plan.seed = flags.seed;
    config.store.fault_plan.short_write_rate = flags.store_fault_rate;
    config.store.fault_plan.fsync_failure_rate = flags.store_fault_rate;
  }

  // --fabric N: the emulator tier becomes N `apichecker farm` child
  // processes on unix sockets; the pool dispatches over the framed RPC
  // transport instead of in-process farms. Workers inherit --apis/--seed so
  // the handshake's universe checksum matches, and --fault-rate so the fault
  // smoke works identically across local and fabric modes.
  std::vector<pid_t> fabric_pids;
  std::string fabric_dir;
  auto reap_fabric = [&]() {
    for (pid_t pid : fabric_pids) {
      ::kill(pid, SIGTERM);
    }
    for (pid_t pid : fabric_pids) {
      int status = 0;
      ::waitpid(pid, &status, 0);
    }
    fabric_pids.clear();
    if (!fabric_dir.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(fabric_dir, ec);
    }
  };
  if (flags.fabric > 0) {
    fabric_dir = (std::filesystem::temp_directory_path() /
                  ("apichecker_fabric_" + std::to_string(::getpid())))
                     .string();
    std::error_code ec;
    std::filesystem::create_directories(fabric_dir, ec);
    for (size_t i = 0; i < flags.fabric; ++i) {
      const std::string socket_path =
          fabric_dir + "/worker-" + std::to_string(i) + ".sock";
      const pid_t pid = SpawnFarmWorker(socket_path, i, flags);
      if (pid < 0) {
        std::fprintf(stderr, "serve: cannot spawn fabric worker %zu: %s\n", i,
                     std::strerror(errno));
        reap_fabric();
        return 1;
      }
      fabric_pids.push_back(pid);
      config.fabric_endpoints.push_back("unix:" + socket_path);
    }
    // Wait for every worker's socket to appear (bind unlinks-then-creates the
    // file, so existence means the listener is up or a frame away from it;
    // the client's reconnect loop absorbs any remaining race).
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    for (const std::string& endpoint : config.fabric_endpoints) {
      const std::string path = endpoint.substr(5);  // Strip "unix:".
      while (!std::filesystem::exists(path) &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
    std::printf("serve: fabric — %zu farm worker processes spawned under %s\n",
                flags.fabric, fabric_dir.c_str());
  }

  serve::VettingService service(universe, config, std::move(*checker));

  if (gateway_mode) {
    gateway::GatewayConfig gw_config;
    gw_config.endpoint = flags.listen;
    if (flags.read_deadline_ms > 0) {
      gw_config.read_deadline = std::chrono::milliseconds(flags.read_deadline_ms);
    }
    if (flags.idle_timeout_ms > 0) {
      gw_config.idle_timeout = std::chrono::milliseconds(flags.idle_timeout_ms);
    }
    gw_config.min_bytes_per_sec = flags.min_bps;
    if (flags.max_uploads > 0) {
      gw_config.max_concurrent_uploads = flags.max_uploads;
    }
    gw_config.chunk_bytes = std::max<size_t>(1, flags.chunk_kb) * 1024;

    gateway::IngestGateway gw(service, gw_config);
    auto bound = gw.Start();
    if (!bound.ok()) {
      std::fprintf(stderr, "serve: gateway cannot listen: %s\n",
                   bound.error().c_str());
      service.Shutdown();
      reap_fabric();
      return 1;
    }
    std::printf("serve: gateway (pid %d) listening on %s — read deadline "
                "%lld ms, idle timeout %lld ms, min %.0f B/s, budget %zu "
                "uploads\n",
                static_cast<int>(::getpid()), bound->ToString().c_str(),
                static_cast<long long>(gw_config.read_deadline.count()),
                static_cast<long long>(gw_config.idle_timeout.count()),
                gw_config.min_bytes_per_sec, gw_config.max_concurrent_uploads);
    std::fflush(stdout);

    int signo = 0;
    sigwait(&term_signals, &signo);
    std::printf("serve: gateway draining (signal %d)\n", signo);
    // Order matters: conn threads may be parked in future.get(), which only
    // the live scheduler resolves — the gateway must drain before the
    // service shuts down.
    gw.Stop();
    service.Shutdown();

    const gateway::GatewayStats gs = gw.stats();
    const serve::ServiceStats sstats = service.stats();
    std::printf("serve: gateway — %llu connections, %llu uploads accepted, "
                "%llu completed (%llu early, %llu resumed-by-digest), "
                "%llu aborted, %llu slow-loris evictions, %llu bytes in\n",
                static_cast<unsigned long long>(gs.connections),
                static_cast<unsigned long long>(gs.accepted),
                static_cast<unsigned long long>(gs.completed),
                static_cast<unsigned long long>(gs.early_verdicts),
                static_cast<unsigned long long>(gs.resumed_by_digest),
                static_cast<unsigned long long>(gs.aborted),
                static_cast<unsigned long long>(gs.slow_loris_disconnects),
                static_cast<unsigned long long>(gs.bytes_received));
    std::printf("serve: gateway — %llu verdicts sent, %llu verdict send "
                "failures\n",
                static_cast<unsigned long long>(gs.verdicts_sent),
                static_cast<unsigned long long>(gs.verdict_send_failures));
    const bool balanced = gs.Balanced();
    const bool service_ok = sstats.accepted == sstats.resolved();
    std::printf("serve: gateway invariant accepted == completed + aborted: %s\n",
                balanced ? "OK" : "VIOLATED");
    std::printf("serve: invariant accepted == resolved: %s\n",
                service_ok ? "OK" : "VIOLATED");
    reap_fabric();
    return balanced && service_ok ? 0 : 1;
  }

  // Build the trace up front so submission pacing measures the service, not
  // APK synthesis. ~20% of the trace resubmits an earlier APK byte-for-byte
  // (its blob handle is shared — the bytes exist once). Every blob enters
  // through the chunked streaming reader, hashing incrementally as the
  // production frontend would while an upload arrives. --large-every N pads
  // every Nth distinct APK to ~--large-kb KB so the size-bucketed admission
  // histograms get a "large" population.
  const size_t chunk_bytes = std::max<size_t>(1, flags.chunk_kb) * 1024;
  auto ingest_blob = [&](const std::vector<uint8_t>& bytes)
      -> util::Result<ingest::ApkBlob> {
    ingest::MemoryStreamReader reader(bytes);
    return ingest::ReadApkBlob(reader, chunk_bytes);
  };
  synth::CorpusConfig corpus_config;
  corpus_config.seed = flags.seed ^ 0x5e7e;
  synth::CorpusGenerator generator(universe, corpus_config);
  util::Rng resubmit_rng(flags.seed ^ 0xca11);
  std::vector<ingest::ApkBlob> trace;
  trace.reserve(flags.apps);
  size_t resubmissions = 0;
  size_t padded = 0;
  size_t fresh = 0;
  for (size_t i = 0; i < flags.apps; ++i) {
    if (!trace.empty() && resubmit_rng.NextDouble() < 0.20) {
      trace.push_back(trace[resubmit_rng.NextBounded(trace.size())]);
      ++resubmissions;
      continue;
    }
    std::vector<uint8_t> bytes = synth::BuildApkBytes(generator.Next(), universe);
    ++fresh;
    if (flags.large_every > 0 && fresh % flags.large_every == 0) {
      auto inflated = apk::PadApk(bytes, flags.large_kb * 1024, flags.seed ^ fresh);
      if (inflated.ok()) {
        bytes = std::move(*inflated);
        ++padded;
      }
    }
    auto blob = ingest_blob(bytes);
    if (!blob.ok()) {
      std::fprintf(stderr, "ingest failed: %s\n", blob.error().c_str());
      return 1;
    }
    trace.push_back(std::move(*blob));
  }
  // Positional .apk files stream straight from disk through the same chunked
  // reader and are prepended to the trace.
  for (auto it = flags.positional.rbegin(); it != flags.positional.rend(); ++it) {
    auto blob = ingest::ReadApkBlobFromFile(*it, chunk_bytes);
    if (!blob.ok()) {
      std::fprintf(stderr, "ingest failed: %s\n", blob.error().c_str());
      return 1;
    }
    trace.insert(trace.begin(), std::move(*blob));
  }
  std::printf("serve: replaying %zu submissions (%zu byte-identical resubmissions, "
              "%zu padded large) on %zu shards, %zu farms, batch %zu, linger %zu ms, "
              "fault rate %.2f, chunk %zu KB\n",
              trace.size(), resubmissions, padded, config.num_shards,
              config.pool.num_farms,
              config.scheduler.batch_size == 0 ? config.farm.num_emulators
                                               : config.scheduler.batch_size,
              flags.linger_ms, flags.fault_rate, chunk_bytes / 1024);

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::future<serve::VettingResult>> futures;
  futures.reserve(trace.size());
  size_t rejected_at_submit = 0;
  for (size_t i = 0; i < trace.size(); ++i) {
    if (i == trace.size() / 2) {
      // Drain the first half before swapping so its verdicts land stamped
      // with snapshot v1. A fresh boot serves v1 again and warm-starts only
      // v1 records (v2 is stale-skipped), so the restart smoke needs v1
      // verdicts in the store; swapping with the first half still in flight
      // leaves the v1/v2 split to scheduler timing — occasionally zero v1
      // records. The swap-vs-in-flight pinning race itself is covered by
      // test_serve and perfbench's market_open workload.
      for (auto& future : futures) {
        future.wait();
      }
      auto swapped = service.SwapModelFromBlob(swap_blob);
      if (swapped.ok()) {
        std::printf("serve: hot-swapped model mid-trace -> snapshot v%u\n", *swapped);
      } else {
        std::fprintf(stderr, "hot swap failed: %s\n", swapped.error().c_str());
      }
      // --fabric-kill-one: SIGKILL (not SIGTERM — no goodbye frame, the
      // heartbeat has to notice) the last worker mid-trace. The breaker must
      // open on the missed heartbeat and the remaining workers absorb the
      // rest of the trace; the accepted == resolved invariant below proves no
      // acknowledged submission was lost to the dead process.
      if (flags.fabric_kill_one && !fabric_pids.empty()) {
        const pid_t victim = fabric_pids.back();
        ::kill(victim, SIGKILL);
        std::printf("serve: fabric — SIGKILLed worker %zu (pid %d) mid-trace\n",
                    fabric_pids.size() - 1, static_cast<int>(victim));
      }
    }
    serve::Submission submission;
    submission.blob = trace[i];
    // Class mix: a trickle of interactive (1/16) and rescan (1/16) riding on
    // a bulk backlog — the storm shape the overload layer is built for.
    submission.priority = i % 16 == 0   ? serve::Priority::kInteractive
                          : i % 16 == 8 ? serve::Priority::kRescan
                                        : serve::Priority::kBulk;
    auto accepted = service.Submit(std::move(submission));
    if (accepted.ok()) {
      futures.push_back(std::move(*accepted));
    } else {
      ++rejected_at_submit;
    }
  }

  size_t malicious = 0, benign = 0, cache_hits = 0, expired = 0, parse_errors = 0;
  size_t unhealthy = 0, shed = 0;
  for (auto& future : futures) {
    const serve::VettingResult result = future.get();
    switch (result.status) {
      case serve::VetStatus::kOk:
        (result.malicious ? malicious : benign) += 1;
        cache_hits += result.from_cache ? 1 : 0;
        break;
      case serve::VetStatus::kDeadlineExpired:
        ++expired;
        break;
      case serve::VetStatus::kParseError:
        ++parse_errors;
        break;
      case serve::VetStatus::kRejectedUnhealthy:
        ++unhealthy;
        break;
      case serve::VetStatus::kShedOverload:
        ++shed;
        break;
      case serve::VetStatus::kAbortedUpload:
        // Only the gateway path produces aborted uploads; the in-process
        // trace replay cannot.
        break;
    }
  }
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  service.Shutdown();

  const serve::ServiceStats stats = service.stats();
  const obs::HistogramSnapshot e2e = obs::MetricsRegistry::Default()
                                         .histogram(obs::names::kServeE2eLatencyMs)
                                         .Snapshot();
  std::printf("serve: accepted %llu, rejected %llu (backpressure)\n",
              static_cast<unsigned long long>(stats.accepted),
              static_cast<unsigned long long>(stats.rejected));
  std::printf("serve: verdicts %zu malicious / %zu benign; %zu cache hits, "
              "%zu expired, %zu parse errors, %zu rejected-unhealthy, "
              "%zu shed, %llu batches\n",
              malicious, benign, cache_hits, expired, parse_errors, unhealthy,
              shed, static_cast<unsigned long long>(stats.batches));
  for (size_t c = 0; c < serve::kNumPriorityClasses; ++c) {
    const auto priority = static_cast<serve::Priority>(c);
    std::printf("serve:   class %-11s — %llu accepted, %llu completed, "
                "%llu expired, %llu shed\n",
                serve::PriorityName(priority),
                static_cast<unsigned long long>(stats.accepted_by_class[c]),
                static_cast<unsigned long long>(stats.completed_by_class[c]),
                static_cast<unsigned long long>(stats.expired_by_class[c]),
                static_cast<unsigned long long>(stats.shed_by_class[c]));
  }
  if (flags.shed) {
    std::printf("serve: overload — pressure state %s, %llu transitions, "
                "%llu shed total\n",
                serve::PressureStateName(service.pressure_state()),
                static_cast<unsigned long long>(service.pressure_transitions()),
                static_cast<unsigned long long>(stats.shed_overload));
  }
  if (flags.spill_threshold_kb > 0) {
    obs::MetricsRegistry& spill_reg = obs::MetricsRegistry::Default();
    std::printf("serve: spill — %llu blobs spilled to disk (threshold %zu KB, "
                "%llu failures), %llu KB still mapped\n",
                static_cast<unsigned long long>(
                    spill_reg.counter(obs::names::kIngestBlobsSpilledTotal).value()),
                flags.spill_threshold_kb,
                static_cast<unsigned long long>(
                    spill_reg.counter(obs::names::kIngestSpillFailuresTotal).value()),
                static_cast<unsigned long long>(ingest::ApkBlob::SpilledBytes() /
                                                1024));
  }
  const serve::FarmPoolStats pool_stats = service.farm_pool_stats();
  std::printf("serve: farm pool — %llu routed, %llu faults, %llu retries, "
              "%llu rejected batches, %zu/%zu farms healthy\n",
              static_cast<unsigned long long>(pool_stats.batches_routed),
              static_cast<unsigned long long>(pool_stats.faults),
              static_cast<unsigned long long>(pool_stats.retries),
              static_cast<unsigned long long>(pool_stats.rejected_batches),
              pool_stats.healthy_farms, pool_stats.farms.size());
  for (const serve::FarmStats& farm : pool_stats.farms) {
    // Breaker opens are split by cause: "fault" is the farm itself (emulation
    // faults tripping the streak or a failed probe), "conn-loss" is the
    // fabric link (missed heartbeat, EOF, connect failure) — a sick farm and
    // a severed worker need different operator responses.
    std::printf("serve:   farm %u — %llu batches, %llu faults, %llu retries "
                "absorbed, %llu breaker opens (%llu fault, %llu conn-loss), "
                "busy %.1f min, breaker %s%s\n",
                farm.farm_id, static_cast<unsigned long long>(farm.batches_completed),
                static_cast<unsigned long long>(farm.faults),
                static_cast<unsigned long long>(farm.retries_absorbed),
                static_cast<unsigned long long>(farm.breaker_opens),
                static_cast<unsigned long long>(farm.breaker_opens_fault),
                static_cast<unsigned long long>(farm.breaker_opens_conn),
                farm.busy_minutes, serve::BreakerStateName(farm.breaker),
                farm.conn_lost ? " [link down]" : "");
  }
  if (flags.fabric > 0) {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
    std::printf("serve: fabric — %llu handshakes (%llu failed), %llu heartbeats "
                "(%llu missed), %llu disconnects, %llu reconnects, %llu model "
                "syncs, %llu/%llu frames sent/received, %llu protocol errors\n",
                static_cast<unsigned long long>(
                    reg.counter(obs::names::kFabricHandshakesTotal).value()),
                static_cast<unsigned long long>(
                    reg.counter(obs::names::kFabricHandshakeFailuresTotal).value()),
                static_cast<unsigned long long>(
                    reg.counter(obs::names::kFabricHeartbeatsTotal).value()),
                static_cast<unsigned long long>(
                    reg.counter(obs::names::kFabricHeartbeatMissesTotal).value()),
                static_cast<unsigned long long>(
                    reg.counter(obs::names::kFabricDisconnectsTotal).value()),
                static_cast<unsigned long long>(
                    reg.counter(obs::names::kFabricReconnectsTotal).value()),
                static_cast<unsigned long long>(
                    reg.counter(obs::names::kFabricModelSyncsTotal).value()),
                static_cast<unsigned long long>(
                    reg.counter(obs::names::kFabricFramesSentTotal).value()),
                static_cast<unsigned long long>(
                    reg.counter(obs::names::kFabricFramesReceivedTotal).value()),
                static_cast<unsigned long long>(
                    reg.counter(obs::names::kFabricProtocolErrorsTotal).value()));
  }
  std::printf("serve: model swaps %llu (serving v%u)\n",
              static_cast<unsigned long long>(stats.model_swaps),
              service.model_version());
  if (const store::VerdictStore* store = service.verdict_store()) {
    const store::StoreStats ss = store->stats();
    std::printf("serve: verdict store — %zu segments, %llu live / %llu dead "
                "records, %llu appends (%llu errors), %llu fsyncs "
                "(%llu failures), %llu compactions, policy %s%s\n",
                ss.segments, static_cast<unsigned long long>(ss.live_records),
                static_cast<unsigned long long>(ss.dead_records),
                static_cast<unsigned long long>(ss.appends),
                static_cast<unsigned long long>(ss.append_errors),
                static_cast<unsigned long long>(ss.fsyncs),
                static_cast<unsigned long long>(ss.fsync_failures),
                static_cast<unsigned long long>(ss.compactions),
                store::FsyncPolicyName(store->config().fsync_policy),
                ss.failed ? " [DEAD: injected crash, reopen to recover]" : "");
    std::printf("serve: store recovery — %zu segments scanned, %llu records "
                "replayed, %llu tails truncated (%llu bytes), %zu quarantined; "
                "%llu warm-start cache hits this run\n",
                ss.recovery.segments_scanned,
                static_cast<unsigned long long>(ss.recovery.records_recovered),
                static_cast<unsigned long long>(ss.recovery.tails_truncated),
                static_cast<unsigned long long>(ss.recovery.bytes_truncated),
                ss.recovery.segments_quarantined,
                static_cast<unsigned long long>(stats.warm_start_hits));
  }
  std::printf("serve: %.0f submissions/sec sustained; e2e latency p50 %.1f ms, "
              "p99 %.1f ms\n",
              elapsed_s > 0 ? static_cast<double>(futures.size()) / elapsed_s : 0.0,
              e2e.Quantile(0.50), e2e.Quantile(0.99));

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  std::printf("serve: ingest — %llu blobs, %llu bytes in %llu chunks "
              "(%zu KB each), %llu SHA-1 passes, pool peak %llu KB\n",
              static_cast<unsigned long long>(
                  registry.counter(obs::names::kIngestBlobsTotal).value()),
              static_cast<unsigned long long>(
                  registry.counter(obs::names::kIngestBytesStreamedTotal).value()),
              static_cast<unsigned long long>(
                  registry.counter(obs::names::kIngestChunksTotal).value()),
              chunk_bytes / 1024,
              static_cast<unsigned long long>(
                  registry.counter(obs::names::kServeHashOpsTotal).value()),
              static_cast<unsigned long long>(ingest::ApkBlob::PoolPeakBytes() / 1024));
  std::printf("serve: admission — p99 %.3f ms overall; by size:",
              registry.histogram(obs::names::kServeAdmissionLatencyMs).Quantile(0.99));
  for (const char* bucket : {"small", "medium", "large"}) {
    const obs::HistogramSnapshot snap =
        registry
            .histogram(serve::AdmissionSeriesName(obs::names::kServeAdmissionLatencyMs,
                                                  bucket))
            .Snapshot();
    std::printf(" %s p99 %.3f ms (%llu)", bucket, snap.Quantile(0.99),
                static_cast<unsigned long long>(snap.count));
  }
  std::printf("; fast-path cache hits %llu\n",
              static_cast<unsigned long long>(
                  registry.counter(obs::names::kServeCacheFastpathHitsTotal).value()));

  const bool no_lost = stats.accepted == stats.resolved();
  std::printf("serve: invariant accepted == resolved: %s\n", no_lost ? "OK" : "VIOLATED");
  (void)rejected_at_submit;

  bool io_ok = true;
  obs::TraceCollector& collector = obs::TraceCollector::Default();
  if (!flags.trace_out.empty()) {
    const std::vector<obs::Trace> traces = collector.Completed();
    auto written = obs::WriteTraceFile(flags.trace_out, traces, flags.force);
    if (!written.ok()) {
      std::fprintf(stderr, "trace dump failed: %s\n", written.error().c_str());
      io_ok = false;
    } else {
      std::printf("serve: %zu traces written to %s (%llu spans recorded, "
                  "%llu dropped)\n",
                  traces.size(), flags.trace_out.c_str(),
                  static_cast<unsigned long long>(collector.spans_recorded()),
                  static_cast<unsigned long long>(collector.spans_dropped()));
      // Tail sampler: the slowest complete traces survive ring recycling, so
      // a long run's worst-case submissions are always explainable.
      const std::vector<obs::Trace> slowest = collector.Slowest();
      const size_t show = std::min<size_t>(3, slowest.size());
      for (size_t i = 0; i < show; ++i) {
        std::string stages;
        for (const obs::StageMs& stage : slowest[i].breakdown) {
          stages += util::StrFormat(" %s=%.2fms", stage.stage.c_str(), stage.ms);
        }
        std::printf("serve: slow trace #%llu (%s, %.2f ms total):%s\n",
                    static_cast<unsigned long long>(slowest[i].trace_id),
                    slowest[i].status.c_str(), slowest[i].total_ms,
                    stages.c_str());
      }
    }
  }
  reap_fabric();
  return no_lost && io_ok ? 0 : 1;
}

int CmdMarket(const CommonFlags& flags) {
  android::ApiUniverse universe = MakeUniverse(flags);
  market::MarketConfig config;
  config.months = flags.months;
  config.days_per_month = 8;
  config.apps_per_day = std::max<size_t>(20, flags.apps / (config.months * 8));
  config.initial_study_apps = std::max<size_t>(1'000, flags.apps);
  config.seed = flags.seed;

  market::MarketSimulation sim(universe, config);
  const auto months = sim.Run();
  std::printf("%-6s %-10s %-8s %-8s %-10s %-9s %-9s\n", "month", "submitted", "P", "R",
              "key APIs", "scan min", "promoted");
  for (const market::MonthlyStats& m : months) {
    std::printf("%-6zu %-10llu %-8s %-8s %-10zu %-9.2f %-9s\n", m.month,
                static_cast<unsigned long long>(m.submitted),
                util::FormatPercent(m.checker_cm.Precision()).c_str(),
                util::FormatPercent(m.checker_cm.Recall()).c_str(), m.key_api_count,
                m.avg_scan_minutes, m.model_promoted ? "yes" : "ROLLBACK");
  }
  std::printf("model registry: %zu archived, %zu rejected by the guard\n",
              sim.registry().history().size(), sim.registry().rejections());
  return 0;
}

// `apichecker submit --connect E` — the uploading client of the ingest
// gateway. Streams positional .apk files (or --uploads synthetic APKs) as
// framed chunks with capped-backoff retry and resume-by-digest; the
// --stall-at/--disconnect-at/--torn-at/--corrupt-at/--throttle-bps flags
// script a deterministic NetFaultPlan against each upload, making this the
// hostile-client harness for a gateway started with `serve --listen`.
int CmdSubmit(const CommonFlags& flags) {
  if (flags.connect.empty()) {
    std::fprintf(stderr,
                 "submit: --connect unix:/path or tcp:host:port is required\n");
    return 2;
  }
  uint8_t priority = 2;
  if (flags.priority == "interactive") {
    priority = 0;
  } else if (flags.priority == "rescan") {
    priority = 1;
  } else if (flags.priority == "bulk") {
    priority = 2;
  } else {
    std::fprintf(stderr, "submit: --priority wants interactive|rescan|bulk\n");
    return 2;
  }

  gateway::NetFaultPlan plan;
  plan.seed = flags.seed;
  plan.stall_rate = flags.stall_rate;
  plan.stall_ms = std::chrono::milliseconds(flags.stall_ms);
  plan.throttle_from = flags.throttle_from;
  plan.throttle_bytes_per_sec = flags.throttle_bps;
  struct OrdinalFlag {
    const char* name;
    const std::string* text;
    std::vector<uint64_t>* out;
  };
  const OrdinalFlag ordinal_flags[] = {
      {"--stall-at", &flags.stall_at, &plan.stall_before},
      {"--disconnect-at", &flags.disconnect_at, &plan.disconnect_after},
      {"--torn-at", &flags.torn_at, &plan.torn_frame_at},
      {"--corrupt-at", &flags.corrupt_at, &plan.corrupt_at},
  };
  for (const OrdinalFlag& flag : ordinal_flags) {
    if (!flag.text->empty() && !ParseOrdinalList(flag.text->c_str(), *flag.out)) {
      std::fprintf(stderr,
                   "submit: %s wants comma-separated 1-based chunk ordinals\n",
                   flag.name);
      return 2;
    }
  }

  // Bodies: positional .apk files verbatim, else --uploads synthetic APKs
  // from the seeded corpus generator (same universe/seed rules as serve).
  std::vector<std::vector<uint8_t>> bodies;
  if (!flags.positional.empty()) {
    for (const std::string& path : flags.positional) {
      std::ifstream in(path, std::ios::binary);
      if (!in) {
        std::fprintf(stderr, "submit: cannot read %s\n", path.c_str());
        return 1;
      }
      bodies.emplace_back(std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>());
    }
  } else {
    const android::ApiUniverse universe = MakeUniverse(flags);
    synth::CorpusConfig corpus_config;
    corpus_config.seed = flags.seed ^ 0x5e7e;
    synth::CorpusGenerator generator(universe, corpus_config);
    for (size_t i = 0; i < flags.uploads; ++i) {
      bodies.push_back(synth::BuildApkBytes(generator.Next(), universe));
    }
  }

  gateway::UploadClientConfig config;
  config.endpoint = flags.connect;
  config.chunk_bytes = std::max<size_t>(1, flags.chunk_kb) * 1024;
  config.priority = priority;
  config.max_attempts = std::max<size_t>(1, flags.attempts);
  config.jitter_seed = flags.seed;
  config.fault_plan = plan;

  std::printf("submit: %zu uploads to %s (chunk %zu KB, priority %s, "
              "%zu attempts max%s)\n",
              bodies.size(), flags.connect.c_str(), config.chunk_bytes / 1024,
              flags.priority.c_str(), config.max_attempts,
              plan.enabled() ? ", fault plan armed" : "");

  size_t resolved = 0, failed = 0, malicious = 0;
  size_t early = 0, resumed = 0, retried = 0;
  for (size_t i = 0; i < bodies.size(); ++i) {
    // Each upload gets its own injector seed so random stalls decorrelate;
    // scripted ordinals replay identically against every body.
    config.fault_plan.seed = plan.seed + i;
    config.jitter_seed = flags.seed + i;
    gateway::UploadClient client(config);
    auto outcome = client.Upload(bodies[i]);
    if (!outcome.ok()) {
      ++failed;
      std::printf("submit: upload %zu FAILED — %s\n", i, outcome.error().c_str());
      continue;
    }
    ++resolved;
    malicious += outcome->verdict.malicious ? 1 : 0;
    early += outcome->early_verdict ? 1 : 0;
    resumed += outcome->resumed_by_digest ? 1 : 0;
    retried += outcome->attempts > 1 ? 1 : 0;
    const auto status = static_cast<serve::VetStatus>(outcome->verdict.status);
    std::printf("submit: upload %zu — %s%s, %zu attempt%s, %llu bytes sent%s%s\n",
                i, serve::VetStatusName(status),
                status == serve::VetStatus::kOk
                    ? (outcome->verdict.malicious ? " MALICIOUS" : " benign")
                    : "",
                outcome->attempts, outcome->attempts == 1 ? "" : "s",
                static_cast<unsigned long long>(outcome->bytes_sent),
                outcome->early_verdict ? ", early verdict" : "",
                outcome->resumed_by_digest ? " (resumed by digest)" : "");
  }
  std::printf("submit: %zu/%zu resolved (%zu malicious), %zu retried, "
              "%zu early verdicts, %zu resumed by digest, %zu failed\n",
              resolved, bodies.size(), malicious, retried, early, resumed,
              failed);
  return failed == 0 ? 0 : 1;
}

void PrintUsage() {
  std::printf(
      "usage: apichecker <command> [flags]\n"
      "commands:\n"
      "  universe   print framework-model statistics\n"
      "  corpus     synthesize .apk files to a directory (--apps, --out)\n"
      "  study      run the track-all study and save a model (--apps, --model)\n"
      "  vet        scan .apk files with a saved model (--model, files...)\n"
      "  serve      replay a synthetic trace through the online vetting service\n"
      "             (--model, --apps, --shards, --batch, --linger-ms,\n"
      "              --farms M, --fault-rate P for multi-farm fault injection;\n"
      "              --store-dir D persists verdicts across restarts,\n"
      "              --fsync-policy every|group|buffered, --store-fault-rate P\n"
      "              injects store short-writes/fsync failures;\n"
      "              --fabric N spawns N farm worker processes and dispatches\n"
      "              over the fabric RPC transport, --fabric-kill-one SIGKILLs\n"
      "              one mid-trace to exercise heartbeat breakers + failover;\n"
      "              --shed turns on watermark load shedding (bulk first,\n"
      "              interactive never), --shard-capacity N per-class lane\n"
      "              depth, --class-weights I,R,B weighted-fair pop shares,\n"
      "              --slo-ms I,R,B per-class default deadlines (0 = none),\n"
      "              --spill-threshold-kb K spills blobs >= K KB to disk so\n"
      "              the blob pool bounds RSS under a storm;\n"
      "              --listen unix:/path|tcp:host:port skips the trace and\n"
      "              fronts the service with the network ingest gateway until\n"
      "              SIGTERM — tune with --read-deadline-ms, --idle-timeout-ms,\n"
      "              --min-bps (slow-loris floor), --max-uploads, --chunk-kb)\n"
      "  submit     upload .apk files (or --uploads N synthetic) to a gateway\n"
      "             (--connect unix:/path|tcp:host:port, --priority\n"
      "              interactive|rescan|bulk, --attempts N retries with capped\n"
      "              backoff + resume-by-digest; hostile-client fault plan:\n"
      "              --stall-at 2,5 --stall-ms 500 --stall-rate P\n"
      "              --disconnect-at 3 --torn-at 4 --corrupt-at 6\n"
      "              --throttle-from 1 --throttle-bps 1024, ordinals 1-based\n"
      "              per-chunk)\n"
      "  farm       run one fabric farm worker (--listen unix:/path|tcp:host:port,\n"
      "              --worker-id N; --apis/--seed must match the serve front end)\n"
      "  market     run the deployment simulation (--months, --apps)\n"
      "common flags: --apis N (default 30000), --seed S (default 42),\n"
      "              --metrics-out FILE (dump metrics JSON; .prom for Prometheus),\n"
      "              --rt-threads N (unified-runtime executor threads for\n"
      "              serve/farm; 0 = auto-size to cores with a farm-dispatch\n"
      "              floor)\n"
      "environment:  APICHECKER_LOG_LEVEL=debug|info|warn|error,\n"
      "              APICHECKER_LOG_FORMAT=text|json\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    PrintUsage();
    return 2;
  }
  const std::string command = argv[1];
  const CommonFlags flags = ParseFlags(argc, argv, 2);
  int exit_code = 2;
  if (command == "universe") {
    exit_code = CmdUniverse(flags);
  } else if (command == "corpus") {
    exit_code = CmdCorpus(flags);
  } else if (command == "study") {
    exit_code = CmdStudy(flags);
    PrintStatsSummary();
  } else if (command == "vet") {
    exit_code = CmdVet(flags);
    PrintStatsSummary();
  } else if (command == "serve") {
    exit_code = CmdServe(flags);
    PrintStatsSummary();
  } else if (command == "submit") {
    exit_code = CmdSubmit(flags);
    PrintStatsSummary();
  } else if (command == "farm") {
    exit_code = CmdFarm(flags);
  } else if (command == "market") {
    exit_code = CmdMarket(flags);
    PrintStatsSummary();
  } else {
    PrintUsage();
    return 2;
  }
  if (!MaybeWriteMetrics(flags) && exit_code == 0) {
    exit_code = 1;
  }
  return exit_code;
}
