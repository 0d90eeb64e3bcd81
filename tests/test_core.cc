// Unit tests for src/core: feature schema, study pipeline, SRC ranking,
// key-API selection, the ApiChecker facade, and the Table 1 baselines.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>

#include <gtest/gtest.h>

#include "core/baselines.h"
#include "core/checker.h"
#include "core/model_store.h"
#include "core/selection.h"
#include "core/study.h"
#include "synth/corpus.h"

namespace apichecker::core {
namespace {

const android::ApiUniverse& TestUniverse() {
  static const android::ApiUniverse universe = [] {
    android::UniverseConfig config;
    config.num_apis = 6'000;
    return android::ApiUniverse::Generate(config);
  }();
  return universe;
}

// One shared small study corpus for the heavier pipeline tests.
const StudyDataset& TestStudy() {
  static const StudyDataset study = [] {
    synth::CorpusConfig corpus_config;
    synth::CorpusGenerator generator(TestUniverse(), corpus_config);
    StudyConfig config;
    config.num_apps = 2'500;
    return RunStudy(TestUniverse(), generator, config);
  }();
  return study;
}

TEST(FeatureOptions, Labels) {
  EXPECT_EQ(FeatureOptions::All().Label(), "A+P+I");
  EXPECT_EQ(FeatureOptions::ApisOnly().Label(), "A");
  EXPECT_EQ((FeatureOptions{false, true, true}).Label(), "P+I");
}

TEST(FeatureSchema, LaysOutGroupsContiguously) {
  const std::vector<android::ApiId> tracked = {3, 8, 15};
  const FeatureSchema schema(tracked, TestUniverse());
  EXPECT_EQ(schema.num_features(),
            3u + TestUniverse().permissions().size() + TestUniverse().intents().size());
  EXPECT_EQ(schema.ApiFeature(3), 0);
  EXPECT_EQ(schema.ApiFeature(8), 1);
  EXPECT_EQ(schema.ApiFeature(999), -1);
  EXPECT_EQ(schema.PermissionFeatureById(0), 3);
  EXPECT_EQ(schema.IntentFeatureById(0),
            3 + static_cast<int64_t>(TestUniverse().permissions().size()));
  EXPECT_TRUE(schema.TracksApi(15));
  EXPECT_FALSE(schema.TracksApi(16));
}

TEST(FeatureSchema, NameLookupsMatchIdLookups) {
  const FeatureSchema schema({1}, TestUniverse());
  const std::string& perm = TestUniverse().permissions()[5].name;
  EXPECT_EQ(schema.PermissionFeature(perm), schema.PermissionFeatureById(5));
  const std::string& intent = TestUniverse().intents()[3];
  EXPECT_EQ(schema.IntentFeature(intent),
            schema.IntentFeatureById(3));
  EXPECT_EQ(schema.PermissionFeature("bogus"), -1);
}

TEST(FeatureSchema, FeatureNamesUsePaperAliases) {
  const auto sms = TestUniverse().FindByName("android.telephony.SmsManager.sendTextMessage");
  ASSERT_TRUE(sms.has_value());
  const FeatureSchema schema({*sms}, TestUniverse());
  EXPECT_EQ(schema.FeatureName(0), "API: SmsManager_sendTextMessage");
  const int64_t perm_feature = schema.PermissionFeature("android.permission.SEND_SMS");
  ASSERT_GE(perm_feature, 0);
  EXPECT_EQ(schema.FeatureName(static_cast<uint32_t>(perm_feature)), "Permission: SEND_SMS");
}

TEST(FeatureSchema, ApisOnlyExcludesAuxiliary) {
  const FeatureSchema schema({1, 2}, TestUniverse(), FeatureOptions::ApisOnly());
  EXPECT_EQ(schema.num_features(), 2u);
  EXPECT_EQ(schema.PermissionFeatureById(0), -1);
  EXPECT_EQ(schema.IntentFeatureById(0), -1);
}

TEST(Study, RecordsAreComplete) {
  const StudyDataset& study = TestStudy();
  ASSERT_EQ(study.size(), 2'500u);
  EXPECT_GT(study.NumPositive(), 100u);
  EXPECT_LT(study.NumPositive(), 400u);
  size_t with_apis = 0, updates = 0;
  for (const StudyRecord& r : study.records) {
    with_apis += r.observed_apis.empty() ? 0 : 1;
    updates += r.is_update;
    EXPECT_TRUE(std::is_sorted(r.observed_apis.begin(), r.observed_apis.end()));
    EXPECT_TRUE(std::is_sorted(r.static_apis.begin(), r.static_apis.end()));
    EXPECT_GT(r.total_invocations, 0u);
    EXPECT_FALSE(r.package_name.empty());
    // Dynamic observations are a subset of the static references.
    EXPECT_TRUE(std::includes(r.static_apis.begin(), r.static_apis.end(),
                              r.observed_apis.begin(), r.observed_apis.end()));
  }
  EXPECT_EQ(with_apis, study.size());
  EXPECT_GT(updates, study.size() / 2);
}

// FNV-1a (64-bit) over every field of every record, sizes first.
class RecordDigest {
 public:
  void Bytes(const void* data, size_t size) {
    const auto* p = static_cast<const uint8_t*>(data);
    for (size_t i = 0; i < size; ++i) {
      h_ = (h_ ^ p[i]) * 0x100000001b3ull;
    }
  }
  template <typename T>
  void Value(T v) { Bytes(&v, sizeof(v)); }
  template <typename T>
  void Vector(const std::vector<T>& v) {
    Value<uint64_t>(v.size());
    for (const T& x : v) Value(x);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

// The study for a fixed seed, pinned: its loop must stay the serial
// generate -> build -> parse -> emulate pass it has always been.
TEST(Study, RunStudyRecordsMatchPinnedDigest) {
  synth::CorpusConfig corpus_config;
  corpus_config.seed = 7;
  synth::CorpusGenerator generator(TestUniverse(), corpus_config);
  StudyConfig config;
  config.num_apps = 400;
  const StudyDataset study = RunStudy(TestUniverse(), generator, config);
  ASSERT_EQ(study.size(), 400u);
  RecordDigest digest;
  for (const StudyRecord& r : study.records) {
    digest.Vector(r.observed_apis);
    digest.Vector(r.observed_api_counts);
    digest.Vector(r.static_apis);
    digest.Vector(r.permissions);
    digest.Vector(r.manifest_intents);
    digest.Value<uint64_t>(r.runtime_intents.size());
    for (const auto& [intent, carrier] : r.runtime_intents) {
      digest.Value(intent);
      digest.Value(carrier);
    }
    digest.Value(r.label);
    digest.Value(r.is_update);
    digest.Value(r.total_invocations);
    digest.Value(std::bit_cast<uint32_t>(r.rac));
    digest.Value(std::bit_cast<uint32_t>(r.base_minutes));
    digest.Value<uint64_t>(r.package_name.size());
    digest.Bytes(r.package_name.data(), r.package_name.size());
  }
  EXPECT_EQ(digest.value(), 0xc1f2e6cc673882b9ull);
}

TEST(Selection, CorrelationsIdentifyAnchors) {
  const auto correlations = ComputeApiCorrelations(TestStudy(), TestUniverse().num_apis());
  ASSERT_EQ(correlations.size(), TestUniverse().num_apis());
  // Common-op plumbing correlates negatively (the 13-API cluster of §4.3).
  double common_src = 0.0;
  for (android::ApiId id : TestUniverse().CommonOpApis()) {
    common_src += correlations[id].src;
    EXPECT_GT(correlations[id].support, TestStudy().size() / 2);
  }
  EXPECT_LT(common_src / 13.0, -0.1);
  // Attacker-useful APIs skew positive.
  double useful_src = 0.0;
  for (android::ApiId id : TestUniverse().AttackerUsefulApis()) {
    useful_src += correlations[id].src;
  }
  EXPECT_GT(useful_src / static_cast<double>(TestUniverse().AttackerUsefulApis().size()), 0.05);
}

TEST(Selection, KeyApisAreUnionOfSets) {
  const auto correlations = ComputeApiCorrelations(TestStudy(), TestUniverse().num_apis());
  const KeyApiSelection sel =
      SelectKeyApis(correlations, TestUniverse(), TestStudy().size());
  EXPECT_EQ(sel.set_p.size(), 112u);
  EXPECT_EQ(sel.set_s.size(), 70u);
  EXPECT_FALSE(sel.set_c.empty());
  std::set<android::ApiId> expected;
  expected.insert(sel.set_c.begin(), sel.set_c.end());
  expected.insert(sel.set_p.begin(), sel.set_p.end());
  expected.insert(sel.set_s.begin(), sel.set_s.end());
  EXPECT_EQ(sel.key_apis.size(), expected.size());
  EXPECT_TRUE(std::is_sorted(sel.key_apis.begin(), sel.key_apis.end()));
  EXPECT_EQ(sel.key_apis.size(),
            sel.set_c.size() + sel.set_p.size() + sel.set_s.size() - sel.total_overlapped());
}

TEST(Selection, SetCHonorsThresholds) {
  const auto correlations = ComputeApiCorrelations(TestStudy(), TestUniverse().num_apis());
  SelectionConfig config;
  const KeyApiSelection sel =
      SelectKeyApis(correlations, TestUniverse(), TestStudy().size(), config);
  for (android::ApiId id : sel.set_c) {
    const ApiCorrelation& c = correlations[id];
    EXPECT_GE(static_cast<double>(c.support), 0.001 * TestStudy().size());
    if (c.src < 0) {
      EXPECT_LE(c.src, -config.src_threshold);
      EXPECT_GE(static_cast<double>(c.support), 0.5 * TestStudy().size());
    } else {
      EXPECT_GE(c.src, config.src_threshold);
    }
  }
}

TEST(Selection, TopCorrelatedPrefersNotSeldom) {
  const auto correlations = ComputeApiCorrelations(TestStudy(), TestUniverse().num_apis());
  const auto top = TopCorrelatedApis(correlations, TestStudy().size(), 100);
  ASSERT_EQ(top.size(), 100u);
  // The head of the priority order is never a seldom-invoked API.
  for (android::ApiId id : top) {
    EXPECT_GE(static_cast<double>(correlations[id].support), 0.001 * TestStudy().size());
  }
  // |SRC| is non-increasing along the head.
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(std::fabs(correlations[top[i - 1]].src) + 1e-12,
              std::fabs(correlations[top[i]].src));
  }
}

TEST(BuildDatasetX, MatchesSchemaEncodeOnProductionPath) {
  // The study projection (id-based) and the production Encode (string-based)
  // must produce identical feature vectors for the same app.
  synth::CorpusConfig corpus_config;
  corpus_config.seed = 1234;
  synth::CorpusGenerator generator(TestUniverse(), corpus_config);
  StudyConfig study_config;
  study_config.num_apps = 64;
  // Use a fresh generator stream for both paths.
  const StudyDataset study = RunStudy(TestUniverse(), generator, study_config);

  const auto correlations = ComputeApiCorrelations(study, TestUniverse().num_apis());
  const KeyApiSelection sel = SelectKeyApis(correlations, TestUniverse(), study.size());
  const FeatureSchema schema(sel.key_apis, TestUniverse());
  const ml::Dataset projected = BuildDataset(study, schema, TestUniverse());

  // Re-run the same apps through the engine with the key tracked set (the
  // production path) and Encode the reports.
  synth::CorpusGenerator generator2(TestUniverse(), corpus_config);
  const emu::DynamicAnalysisEngine engine(TestUniverse(), {});
  const emu::TrackedApiSet tracked(sel.key_apis, TestUniverse().num_apis());
  for (size_t i = 0; i < 64; ++i) {
    const synth::AppProfile profile = generator2.Next();
    auto apk = apk::ParseApk(synth::BuildApkBytes(profile, TestUniverse()));
    ASSERT_TRUE(apk.ok());
    const emu::EmulationReport report = engine.Run(*apk, tracked);
    EXPECT_EQ(schema.Encode(report), projected.rows[i]) << "app " << i;
  }
}

TEST(ApiChecker, TrainsAndClassifies) {
  ApiCheckerConfig config;
  config.forest.num_trees = 24;
  ApiChecker checker(TestUniverse(), config);
  EXPECT_FALSE(checker.trained());
  checker.TrainFromStudy(TestStudy());
  ASSERT_TRUE(checker.trained());
  EXPECT_GT(checker.selection().key_apis.size(), 150u);

  // Production classification: emulate fresh apps with the key hooks.
  synth::CorpusConfig corpus_config;
  corpus_config.seed = 777;
  synth::CorpusGenerator generator(TestUniverse(), corpus_config);
  const emu::DynamicAnalysisEngine engine(TestUniverse(), {});
  const emu::TrackedApiSet tracked = checker.MakeTrackedSet();
  ml::ConfusionMatrix cm;
  for (int i = 0; i < 300; ++i) {
    const synth::AppProfile profile = generator.Next();
    auto apk = apk::ParseApk(synth::BuildApkBytes(profile, TestUniverse()));
    ASSERT_TRUE(apk.ok());
    const auto verdict = checker.Classify(engine.Run(*apk, tracked));
    EXPECT_GE(verdict.score, 0.0);
    EXPECT_LE(verdict.score, 1.0);
    cm.Record(profile.malicious, verdict.malicious);
  }
  EXPECT_GT(cm.Precision(), 0.8) << cm.ToString();
  EXPECT_GT(cm.Recall(), 0.7) << cm.ToString();
}

TEST(ApiChecker, TopFeaturesAreNamedAndRanked) {
  ApiCheckerConfig config;
  config.forest.num_trees = 16;
  ApiChecker checker(TestUniverse(), config);
  checker.TrainFromStudy(TestStudy());
  const auto top = checker.TopFeatures(20);
  ASSERT_EQ(top.size(), 20u);
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].second, top[i].second);
  }
  for (const auto& [name, importance] : top) {
    EXPECT_TRUE(name.rfind("API: ", 0) == 0 || name.rfind("Permission: ", 0) == 0 ||
                name.rfind("Intent: ", 0) == 0)
        << name;
  }
}

TEST(ApiChecker, KeyApisByImportanceIsPermutation) {
  ApiCheckerConfig config;
  config.forest.num_trees = 16;
  ApiChecker checker(TestUniverse(), config);
  checker.TrainFromStudy(TestStudy());
  const auto ranked = checker.KeyApisByImportance();
  EXPECT_EQ(ranked.size(), checker.selection().key_apis.size());
  std::set<android::ApiId> a(ranked.begin(), ranked.end());
  std::set<android::ApiId> b(checker.selection().key_apis.begin(),
                             checker.selection().key_apis.end());
  EXPECT_EQ(a, b);
}

TEST(ApiChecker, ModelSerializes) {
  ApiCheckerConfig config;
  config.forest.num_trees = 8;
  ApiChecker checker(TestUniverse(), config);
  checker.TrainFromStudy(TestStudy());
  const auto bytes = checker.SerializeModel();
  EXPECT_FALSE(bytes.empty());
  auto restored = ml::RandomForest::Deserialize(bytes);
  ASSERT_TRUE(restored.ok());
}

// The decision threshold is a bit-cast double: NaN (which would make every
// verdict benign), an infinity or anything outside [0, 1] is rejected at
// decode; the bounds themselves are valid.
TEST(ModelStore, DeserializeRejectsThresholdOutsideUnitInterval) {
  ApiCheckerConfig config;
  config.forest.num_trees = 4;
  ApiChecker checker(TestUniverse(), config);
  checker.TrainFromStudy(TestStudy());
  const std::vector<uint8_t> valid = SerializeChecker(checker);
  ASSERT_TRUE(DeserializeChecker(TestUniverse(), valid).ok());

  // magic (4) + version (2) + four option bytes, then the threshold.
  constexpr size_t kThresholdAt = 10;
  auto with_threshold = [&valid](double threshold) {
    std::vector<uint8_t> bytes = valid;
    const uint64_t bits = std::bit_cast<uint64_t>(threshold);
    std::memcpy(bytes.data() + kThresholdAt, &bits, sizeof(bits));
    return bytes;
  };
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity(), -0.25, 1.5}) {
    EXPECT_FALSE(DeserializeChecker(TestUniverse(), with_threshold(bad)).ok())
        << "threshold " << bad;
  }
  for (double good : {0.0, 1.0}) {
    auto restored = DeserializeChecker(TestUniverse(), with_threshold(good));
    ASSERT_TRUE(restored.ok()) << "threshold " << good;
    EXPECT_EQ(restored->config().threshold, good);
  }
}

TEST(FeatureSchema, FrequencyBucketsAreLogScaled) {
  EXPECT_EQ(FeatureSchema::FrequencyBucket(0, 4), 0u);
  EXPECT_EQ(FeatureSchema::FrequencyBucket(9, 4), 0u);
  EXPECT_EQ(FeatureSchema::FrequencyBucket(10, 4), 1u);
  EXPECT_EQ(FeatureSchema::FrequencyBucket(99, 4), 1u);
  EXPECT_EQ(FeatureSchema::FrequencyBucket(100, 4), 2u);
  EXPECT_EQ(FeatureSchema::FrequencyBucket(1'000'000, 4), 3u);  // Clamped to top.
  EXPECT_EQ(FeatureSchema::FrequencyBucket(12'345, 1), 0u);
}

TEST(FeatureSchema, HistogramEncodingWidensApiGroups) {
  core::FeatureOptions options = core::FeatureOptions::Histogram(4);
  const FeatureSchema schema({3, 8}, TestUniverse(), options);
  EXPECT_EQ(schema.num_features(),
            2u * 4u + TestUniverse().permissions().size() + TestUniverse().intents().size());
  EXPECT_EQ(schema.ApiFeature(3), 0);
  EXPECT_EQ(schema.ApiFeature(8), 4);
  EXPECT_EQ(schema.ApiFeatureForCount(3, 5), 0);
  EXPECT_EQ(schema.ApiFeatureForCount(3, 50), 1);
  EXPECT_EQ(schema.ApiFeatureForCount(8, 5'000), 4 + 3);
  EXPECT_NE(schema.FeatureName(0).find("[freq0]"), std::string::npos);
  EXPECT_EQ(options.Label(), "A(hist4)+P+I");
}

TEST(FeatureSchema, HistogramDatasetMatchesProductionEncode) {
  // The id-based projection and the string-based production Encode must
  // also agree under histogram encoding.
  synth::CorpusConfig corpus_config;
  corpus_config.seed = 4321;
  synth::CorpusGenerator generator(TestUniverse(), corpus_config);
  StudyConfig study_config;
  study_config.num_apps = 32;
  const StudyDataset study = RunStudy(TestUniverse(), generator, study_config);
  const auto correlations = ComputeApiCorrelations(study, TestUniverse().num_apis());
  const KeyApiSelection sel = SelectKeyApis(correlations, TestUniverse(), study.size());
  const FeatureSchema schema(sel.key_apis, TestUniverse(), FeatureOptions::Histogram(4));
  const ml::Dataset projected = BuildDataset(study, schema, TestUniverse());

  synth::CorpusGenerator generator2(TestUniverse(), corpus_config);
  const emu::DynamicAnalysisEngine engine(TestUniverse(), {});
  const emu::TrackedApiSet all = emu::TrackedApiSet::All(TestUniverse().num_apis());
  for (size_t i = 0; i < 32; ++i) {
    const synth::AppProfile profile = generator2.Next();
    auto apk = apk::ParseApk(synth::BuildApkBytes(profile, TestUniverse()));
    ASSERT_TRUE(apk.ok());
    // Track-all run, like the study, so counts are available for key APIs.
    const emu::EmulationReport full = engine.Run(*apk, all);
    // Restrict the report to key APIs the way a key-hook run would see it.
    emu::EmulationReport restricted = full;
    restricted.observed_apis.clear();
    restricted.observed_api_counts.clear();
    for (size_t j = 0; j < full.observed_apis.size(); ++j) {
      if (schema.TracksApi(full.observed_apis[j])) {
        restricted.observed_apis.push_back(full.observed_apis[j]);
        restricted.observed_api_counts.push_back(full.observed_api_counts[j]);
      }
    }
    restricted.observed_intents.clear();
    for (const auto& observed : full.observed_intents) {
      if (schema.TracksApi(observed.carrier)) {
        restricted.observed_intents.push_back(observed);
      }
    }
    EXPECT_EQ(schema.Encode(restricted), projected.rows[i]) << "app " << i;
  }
}

TEST(Baselines, RosterMatchesTable1) {
  const auto specs = StandardBaselines();
  ASSERT_EQ(specs.size(), 7u);
  std::set<std::string> names;
  for (const auto& spec : specs) {
    names.insert(spec.name);
  }
  EXPECT_TRUE(names.count("DREBIN"));
  EXPECT_TRUE(names.count("DroidAPIMiner"));
  EXPECT_TRUE(names.count("DroidCat"));
  EXPECT_TRUE(names.count("Yang et al."));
}

TEST(Baselines, TrainEvaluateAndRespectApiBudget) {
  const auto specs = StandardBaselines();
  // DREBIN-like hybrid: decent accuracy on the synthetic corpus.
  BaselineDetector drebin(TestUniverse(), specs[6], 5);
  drebin.Train(TestStudy());
  EXPECT_LE(drebin.selected_apis().size(), specs[6].num_apis);
  const ml::ConfusionMatrix cm = drebin.Evaluate(TestStudy());
  EXPECT_GT(cm.F1(), 0.6) << cm.ToString();

  util::Rng rng(1);
  const double minutes = drebin.SampleAnalysisMinutes(rng);
  EXPECT_GT(minutes, 0.0);
  EXPECT_LT(minutes, 5.0);  // DREBIN is a fast static recipe.
}

TEST(Baselines, TinyApiBudgetLimitsRecall) {
  // Control for the classifier: the same random forest with a starved API
  // budget and no auxiliary features recalls less than a generous recipe.
  BaselineSpec starved;
  starved.name = "starved";
  starved.mode = BaselineSpec::Mode::kDynamic;
  starved.classifier = ml::ClassifierKind::kRandomForest;
  starved.num_apis = 8;
  BaselineSpec generous = starved;
  generous.name = "generous";
  generous.num_apis = 300;
  generous.use_permissions = true;
  generous.use_intents = true;

  BaselineDetector small(TestUniverse(), starved, 5);
  BaselineDetector large(TestUniverse(), generous, 5);
  small.Train(TestStudy());
  large.Train(TestStudy());
  EXPECT_LE(small.selected_apis().size(), 8u);
  const ml::ConfusionMatrix small_cm = small.Evaluate(TestStudy());
  const ml::ConfusionMatrix large_cm = large.Evaluate(TestStudy());
  EXPECT_GT(large_cm.Recall(), small_cm.Recall());

  // All seven Table 1 recipes remain usable detectors on this corpus.
  for (const auto& spec : StandardBaselines()) {
    BaselineDetector detector(TestUniverse(), spec, 5);
    detector.Train(TestStudy());
    EXPECT_GT(detector.Evaluate(TestStudy()).F1(), 0.55) << spec.name;
  }
}

}  // namespace
}  // namespace apichecker::core
