#include "core/checker.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace apichecker::core {

ApiChecker::ApiChecker(const android::ApiUniverse& universe, ApiCheckerConfig config)
    : universe_(universe), config_(config) {}

void ApiChecker::TrainFromStudy(const StudyDataset& study) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Default();
  obs::ScopedTimer timer(metrics.histogram(obs::names::kCoreTrainMs));
  {
    // Scoped so the per-API correlations are freed before the forest is fit.
    const std::vector<ApiCorrelation> correlations =
        ComputeApiCorrelations(study, universe_.num_apis());
    selection_ = SelectKeyApis(correlations, universe_, study.size(), config_.selection);
    schema_ = FeatureSchema(selection_.key_apis, universe_, config_.features);
  }

  const ml::Dataset data = BuildDataset(study, schema_, universe_);
  model_ = std::make_unique<ml::RandomForest>(config_.forest);
  model_->set_threshold(config_.threshold);
  model_->Train(data);

  metrics.gauge(obs::names::kCoreKeyApis).Set(static_cast<double>(selection_.key_apis.size()));
  metrics.gauge(obs::names::kCoreFeatures).Set(static_cast<double>(schema_.num_features()));
  APICHECKER_SLOG(Debug, "core.trained")
      .With("corpus", study.size())
      .With("key_apis", selection_.key_apis.size())
      .With("features", schema_.num_features());
}

void ApiChecker::RestoreTrained(KeyApiSelection selection, FeatureOptions features,
                                double threshold, ml::RandomForest forest) {
  selection_ = std::move(selection);
  config_.features = features;
  config_.threshold = threshold;
  schema_ = FeatureSchema(selection_.key_apis, universe_, features);
  model_ = std::make_unique<ml::RandomForest>(std::move(forest));
  model_->set_threshold(threshold);
}

emu::TrackedApiSet ApiChecker::MakeTrackedSet() const {
  return emu::TrackedApiSet(selection_.key_apis, universe_.num_apis());
}

ApiChecker::Verdict ApiChecker::Classify(const emu::EmulationReport& report) const {
  Verdict verdict;
  if (model_ == nullptr) {
    return verdict;
  }
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Default();
  obs::ScopedTimer timer(metrics.histogram(obs::names::kCoreClassifyLatencyUs),
                         obs::ScopedTimer::Unit::kMicros);
  const ml::SparseRow row = schema_.Encode(report);
  verdict.score = model_->PredictScore(row);
  verdict.malicious = verdict.score >= config_.threshold;
  metrics.histogram(obs::names::kCoreScore).Observe(verdict.score);
  metrics
      .counter(verdict.malicious ? obs::names::kCoreVerdictMaliciousTotal
                                 : obs::names::kCoreVerdictBenignTotal)
      .Increment();
  return verdict;
}

std::vector<std::pair<std::string, double>> ApiChecker::TopFeatures(size_t k) const {
  std::vector<std::pair<std::string, double>> top;
  if (model_ == nullptr) {
    return top;
  }
  const std::vector<double>& importance = model_->feature_importance();
  std::vector<uint32_t> order(importance.size());
  for (uint32_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return importance[a] != importance[b] ? importance[a] > importance[b] : a < b;
  });
  for (size_t i = 0; i < order.size() && top.size() < k; ++i) {
    top.emplace_back(schema_.FeatureName(order[i]), importance[order[i]]);
  }
  return top;
}

std::vector<android::ApiId> ApiChecker::KeyApisByImportance() const {
  std::vector<android::ApiId> apis;
  if (model_ == nullptr || !schema_.options().use_apis) {
    return apis;
  }
  const std::vector<double>& importance = model_->feature_importance();
  // API features occupy the schema's leading positions in tracked-API order.
  std::vector<std::pair<double, android::ApiId>> ranked;
  for (android::ApiId api : schema_.tracked_apis()) {
    const int64_t f = schema_.ApiFeature(api);
    const double imp =
        (f >= 0 && static_cast<size_t>(f) < importance.size()) ? importance[f] : 0.0;
    ranked.emplace_back(imp, api);
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  apis.reserve(ranked.size());
  for (const auto& [imp, api] : ranked) {
    apis.push_back(api);
  }
  return apis;
}

std::vector<uint8_t> ApiChecker::SerializeModel() const {
  return model_ == nullptr ? std::vector<uint8_t>{} : model_->Serialize();
}

}  // namespace apichecker::core
