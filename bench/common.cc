#include "bench/common.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/export.h"
#include "obs/metrics.h"
#include "stats/cdf.h"
#include "stats/descriptive.h"

namespace apichecker::bench {

namespace {

std::string* MetricsOutPath() {
  static std::string* path = new std::string();
  return path;
}

// atexit hook: every bench run ends with its metrics JSON, so a bench's
// output carries the pipeline's counters and latency histograms without
// per-bench code.
void EmitMetricsAtExit() {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  const std::string json = obs::ToJson(registry);
  if (!MetricsOutPath()->empty()) {
    auto written = obs::WriteMetricsFile(*MetricsOutPath(), registry);
    if (!written.ok()) {
      std::fprintf(stderr, "metrics dump failed: %s\n", written.error().c_str());
    }
  }
  std::printf("\n=== metrics json ===\n%s=== end metrics json ===\n", json.c_str());
}

}  // namespace

BenchArgs BenchArgs::Parse(int argc, char** argv) {
  BenchArgs args;
  if (const char* env_path = std::getenv("APICHECKER_METRICS_OUT")) {
    args.metrics_out = env_path;
  }
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      args.quick = true;
    } else if (std::strcmp(argv[i], "--apps") == 0 && i + 1 < argc) {
      args.apps = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--apis") == 0 && i + 1 < argc) {
      args.apis = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      args.metrics_out = argv[++i];
    } else if (std::strncmp(argv[i], "--metrics-out=", 14) == 0) {
      args.metrics_out = argv[i] + 14;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::printf("flags: --apps N --apis N --seed S --quick --metrics-out FILE\n");
      std::exit(0);
    }
  }
  if (args.quick && args.apis == 50'000) {
    args.apis = 10'000;
  }
  *MetricsOutPath() = args.metrics_out;
  std::atexit(EmitMetricsAtExit);
  return args;
}

StudyContext::StudyContext(const BenchArgs& args, size_t default_apps) : args_(args) {
  android::UniverseConfig universe_config;
  universe_config.num_apis = args_.apis;
  universe_config.seed = args_.seed ^ 0xA11D;
  universe_ = std::make_unique<android::ApiUniverse>(
      android::ApiUniverse::Generate(universe_config));

  synth::CorpusConfig corpus_config;
  corpus_config.seed = args_.seed;
  generator_ = std::make_unique<synth::CorpusGenerator>(*universe_, corpus_config);

  core::StudyConfig study_config;
  study_config.num_apps = args_.AppsOr(default_apps);
  study_ = core::RunStudy(*universe_, *generator_, study_config);
}

const std::vector<core::ApiCorrelation>& StudyContext::correlations() const {
  if (correlations_.empty()) {
    correlations_ = core::ComputeApiCorrelations(study_, universe_->num_apis());
  }
  return correlations_;
}

core::KeyApiSelection StudyContext::Selection() const {
  return core::SelectKeyApis(correlations(), *universe_, study_.size());
}

void PrintHeader(const std::string& experiment, const std::string& paper_summary,
                 const BenchArgs& args, size_t apps) {
  std::printf("==================================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("paper result: %s\n", paper_summary.c_str());
  std::printf("scale: %zu apps, %zu framework APIs, seed %llu%s\n", apps, args.apis,
              static_cast<unsigned long long>(args.seed), args.quick ? " (QUICK)" : "");
  std::printf("note: shapes/orderings are the reproduction target, not absolutes\n");
  std::printf("==================================================================\n");
}

void PrintComparison(const std::string& metric, const std::string& paper_value,
                     const std::string& measured_value) {
  std::printf("  %-44s paper: %-18s measured: %s\n", metric.c_str(), paper_value.c_str(),
              measured_value.c_str());
}

std::vector<apk::ApkFile> MaterializeApks(const StudyContext& context, size_t count,
                                          uint64_t salt) {
  synth::CorpusConfig corpus_config;
  corpus_config.seed = context.args().seed + salt;
  synth::CorpusGenerator generator(context.universe(), corpus_config);
  std::vector<apk::ApkFile> apks;
  apks.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    auto apk = apk::ParseApk(synth::BuildApkBytes(generator.Next(), context.universe()));
    if (apk.ok()) {
      apks.push_back(std::move(*apk));
    }
  }
  return apks;
}

std::vector<double> EmulationMinutes(const android::ApiUniverse& universe,
                                     const std::vector<apk::ApkFile>& apks,
                                     const emu::EngineConfig& engine_config,
                                     const emu::TrackedApiSet& tracked) {
  const emu::DynamicAnalysisEngine engine(universe, engine_config);
  std::vector<double> minutes;
  minutes.reserve(apks.size());
  for (const apk::ApkFile& apk : apks) {
    minutes.push_back(engine.Run(apk, tracked).emulation_minutes);
  }
  return minutes;
}

void PrintCdf(const std::string& label, const std::vector<double>& samples, size_t points) {
  const stats::EmpiricalCdf cdf(samples);
  const stats::Summary summary = stats::Summarize(samples);
  std::printf("%s: %s\n", label.c_str(), summary.ToString(2).c_str());
  for (const auto& [x, p] : cdf.Curve(points)) {
    std::printf("    %10.2f  %5.3f\n", x, p);
  }
}

}  // namespace apichecker::bench
