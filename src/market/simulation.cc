#include "market/simulation.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace apichecker::market {

MarketSimulation::MarketSimulation(android::ApiUniverse& universe, MarketConfig config)
    : universe_(universe),
      config_(config),
      generator_(universe, [&] {
        synth::CorpusConfig corpus_config;
        corpus_config.seed = config.seed;
        corpus_config.update_attack_rate = config.update_attack_rate;
        return corpus_config;
      }()),
      checker_(std::make_unique<core::ApiChecker>(universe, config.checker)),
      rng_(config.seed ^ 0x3a7) {}

std::vector<MonthlyStats> MarketSimulation::Run() {
  // Bootstrap: offline study on the pre-deployment corpus, first model.
  core::StudyConfig study_config;
  study_config.num_apps = config_.initial_study_apps;
  study_config.engine = config_.study_engine;
  training_corpus_ = core::RunStudy(universe_, generator_, study_config);
  checker_->TrainFromStudy(training_corpus_);
  APICHECKER_SLOG(Info, "market.initial_model")
      .With("key_apis", checker_->selection().key_apis.size())
      .With("corpus", training_corpus_.size());

  std::vector<MonthlyStats> months;
  for (size_t month = 1; month <= config_.months; ++month) {
    MonthlyStats stats;
    stats.month = month;
    scan_minutes_sum_ = 0.0;
    scans_ = 0;
    makespan_sum_ = 0.0;
    days_in_month_so_far_ = 0;

    for (size_t day = 0; day < config_.days_per_month; ++day) {
      RunDay(stats, (month - 1) * config_.days_per_month + day);
    }

    stats.key_api_count = checker_->selection().key_apis.size();
    stats.model_promoted = true;  // Overwritten below by the guard outcome.
    stats.avg_scan_minutes = scans_ == 0 ? 0.0 : scan_minutes_sum_ / static_cast<double>(scans_);
    stats.avg_makespan_minutes_per_day =
        days_in_month_so_far_ == 0
            ? 0.0
            : makespan_sum_ / static_cast<double>(days_in_month_so_far_);
    stats.sdk_level = universe_.sdk_level();
    stats.model_promoted = MonthlyEvolution(month);
    months.push_back(stats);
  }
  return months;
}

void MarketSimulation::RunDay(MonthlyStats& stats, size_t /*day_index*/) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Default();
  obs::Histogram& scan_minutes = metrics.histogram(obs::names::kMarketScanMinutes);
  const emu::DynamicAnalysisEngine production_engine(universe_, config_.production_engine);
  const emu::DynamicAnalysisEngine study_engine(universe_, config_.study_engine);
  const emu::TrackedApiSet tracked = checker_->MakeTrackedSet();
  const emu::TrackedApiSet track_all = emu::TrackedApiSet::All(universe_.num_apis());
  const core::StudyRecorder recorder(universe_, config_.study_engine);

  double day_minutes = 0.0;
  for (size_t a = 0; a < config_.apps_per_day; ++a) {
    const synth::AppProfile profile = generator_.Next();
    const std::vector<uint8_t> apk_bytes = synth::BuildApkBytes(profile, universe_);
    auto apk = apk::ParseApk(apk_bytes);
    if (!apk.ok()) {
      APICHECKER_SLOG(Error, "market.bad_submission").With("error", apk.error());
      continue;
    }
    ++stats.submitted;

    // Stage 1: fingerprint-based antivirus checking.
    const uint64_t fingerprint = CodeFingerprint(apk->dex);
    if (fingerprints_.IsKnownMalware(fingerprint)) {
      ++stats.caught_by_fingerprint;
      RecordReviewOutcome(ReviewOutcome::kRejectedFingerprint);
      continue;  // Rejected before emulation.
    }

    // Stage 2: APICHECKER — emulate with the key-API hooks, classify.
    const emu::EmulationReport report = production_engine.Run(*apk, tracked);
    const core::ApiChecker::Verdict verdict = checker_->Classify(report);
    scan_minutes_sum_ += report.emulation_minutes;
    day_minutes += report.emulation_minutes;
    scan_minutes.Observe(report.emulation_minutes);
    ++scans_;
    stats.checker_cm.Record(profile.malicious, verdict.malicious);
    if (profile.is_update_attack) {
      ++stats.update_attacks_submitted;
      stats.update_attacks_caught += verdict.malicious ? 1 : 0;
    }

    // Stage 3: manual loops.
    bool resolved_malicious = false;
    if (verdict.malicious) {
      ++stats.flagged_by_checker;
      if (profile.is_update) {
        ++stats.flagged_updates;  // Quick-vetted against the prior version.
      }
      if (profile.malicious) {
        resolved_malicious = true;  // Confirmed; quarantined.
        fingerprints_.AddMalware(fingerprint);
        RecordReviewOutcome(ReviewOutcome::kRejectedByChecker);
      } else {
        // Developer complaint -> manual inspection -> release. The paper
        // actively drives this queue to zero daily.
        ++stats.fp_complaints;
        RecordReviewOutcome(ReviewOutcome::kFalsePositiveReleased);
      }
    } else if (profile.malicious) {
      // False negative. §5.2 analysis: most FNs barely touch the key APIs
      // (stealthy-but-simple apps), so they pose mild threats.
      ++stats.fn_total;
      if (report.observed_apis.size() <= 10) {
        ++stats.fn_barely_uses_key_apis;
      }
      RecordReviewOutcome(ReviewOutcome::kPublished);  // Slipped through review.
      // Caught only if end users report it.
      if (rng_.Bernoulli(config_.fn_user_report_rate)) {
        ++stats.fn_user_reports;
        resolved_malicious = true;
        fingerprints_.AddMalware(fingerprint);
        metrics.counter(obs::names::kMarketFnReportedTotal).Increment();
      }
    } else {
      RecordReviewOutcome(ReviewOutcome::kPublished);
    }

    // Retraining sampler: replay a slice of the stream offline with all-API
    // hooks. Labels come from the pipeline's resolution, not ground truth:
    // unreported false negatives enter the corpus as (wrongly) benign.
    if (rng_.Bernoulli(config_.retrain_sample_rate)) {
      const emu::EmulationReport full_report = study_engine.Run(*apk, track_all);
      core::StudyRecord record = recorder.BuildRecord(*apk, full_report);
      record.label = resolved_malicious ? 1 : 0;
      record.is_update = profile.is_update ? 1 : 0;
      training_corpus_.records.push_back(std::move(record));
    }
  }
  const double day_makespan =
      day_minutes / static_cast<double>(std::max<size_t>(1, config_.num_emulators));
  makespan_sum_ += day_makespan;
  metrics.histogram(obs::names::kMarketDayMakespanMinutes).Observe(day_makespan);
  ++days_in_month_so_far_;
}

void MarketSimulation::SplitCorpus(core::StudyDataset& train,
                                   core::StudyDataset& holdout) const {
  const size_t stride = std::max<size_t>(2, config_.validation_stride);
  for (size_t i = 0; i < training_corpus_.size(); ++i) {
    ((i % stride == 0) ? holdout : train).records.push_back(training_corpus_.records[i]);
  }
}

double MarketSimulation::ValidationF1(const core::ApiChecker& checker,
                                      const core::StudyDataset& holdout) const {
  if (!checker.trained()) {
    return 0.0;
  }
  const ml::Dataset data = core::BuildDataset(holdout, checker.schema(), universe_);
  return checker.model().Evaluate(data).F1();
}

bool MarketSimulation::MonthlyEvolution(size_t month_index) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Default();
  obs::ScopedTimer retrain_timer(metrics.histogram(obs::names::kMarketRetrainMs));

  // Quarterly SDK growth: new framework APIs appear and newly generated apps
  // begin adopting them.
  if (config_.sdk_update_every_months > 0 &&
      month_index % config_.sdk_update_every_months == 0) {
    const uint16_t new_level = static_cast<uint16_t>(universe_.sdk_level() + 1);
    universe_.AddSdkLevel(new_level, config_.new_apis_per_sdk_update,
                          config_.seed ^ (0x5dull * new_level));
    // Rebuild templates with the SAME world seed: the ecosystem keeps its
    // identity but newly generated apps start adopting the new SDK APIs
    // (pool-append draws perturb families only incrementally).
    generator_.RefreshTemplates(generator_.config().template_seed);
    APICHECKER_SLOG(Info, "market.sdk_update")
        .With("level", new_level)
        .With("new_apis", config_.new_apis_per_sdk_update);
  }

  // Monthly re-selection + retraining on the cumulative corpus (§5.3), with
  // the promotion guard validating the candidate on a holdout slice first.
  core::StudyDataset train, holdout;
  SplitCorpus(train, holdout);

  core::ApiChecker candidate(universe_, config_.checker);
  candidate.TrainFromStudy(train);

  ModelRecord record;
  record.month = month_index;
  record.key_api_count = candidate.selection().key_apis.size();
  record.validation_f1 = ValidationF1(candidate, holdout);
  record.blob = core::SerializeChecker(candidate);

  bool promoted = true;
  if (config_.enable_model_guard && registry_.production() != nullptr) {
    // Re-validate the incumbent on the same holdout so the comparison is
    // current-month apples to apples (the stored score is a month old).
    const double incumbent_f1 = ValidationF1(*checker_, holdout);
    promoted = record.validation_f1 >= incumbent_f1 - config_.guard_tolerance;
  }
  registry_.Archive(std::move(record), promoted);

  if (promoted) {
    checker_ = std::make_unique<core::ApiChecker>(std::move(candidate));
    metrics.counter(obs::names::kMarketModelPromotionsTotal).Increment();
  } else {
    metrics.counter(obs::names::kMarketModelRollbacksTotal).Increment();
    APICHECKER_SLOG(Warning, "market.model_guard_rollback").With("month", month_index);
  }
  APICHECKER_SLOG(Info, "market.retrain")
      .With("month", month_index)
      .With("key_apis", checker_->selection().key_apis.size())
      .With("corpus", training_corpus_.size())
      .With("promoted", promoted);
  return promoted;
}

}  // namespace apichecker::market
