// Unit tests for src/ml: dataset handling, metrics, all nine classifiers
// (parameterized), cross-validation, serialization, and Gini importance.

#include <bit>
#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include "ml/cart.h"
#include "ml/classifier.h"
#include "ml/cross_validation.h"
#include "ml/dataset.h"
#include "ml/metrics.h"
#include "ml/random_forest.h"
#include "util/rng.h"

namespace apichecker::ml {
namespace {

// Synthetic binary-feature task: the label depends on a combination of a few
// "signal" features among many noise features — the same structure as the
// malware problem.
Dataset MakeLearnableDataset(size_t n, uint32_t num_features, uint64_t seed,
                             double positive_rate = 0.3) {
  util::Rng rng(seed);
  Dataset data;
  data.num_features = num_features;
  for (size_t i = 0; i < n; ++i) {
    const bool positive = rng.Bernoulli(positive_rate);
    SparseRow row;
    // Signal features 0..4: strongly class-dependent.
    for (uint32_t f = 0; f < 5 && f < num_features; ++f) {
      if (rng.Bernoulli(positive ? 0.8 : 0.1)) {
        row.push_back(f);
      }
    }
    // Noise features.
    for (uint32_t f = 5; f < num_features; ++f) {
      if (rng.Bernoulli(0.05)) {
        row.push_back(f);
      }
    }
    data.Add(std::move(row), positive ? 1 : 0);
  }
  return data;
}

TEST(Dataset, RowHasFeatureBinarySearches) {
  const SparseRow row = {1, 5, 9};
  EXPECT_TRUE(RowHasFeature(row, 5));
  EXPECT_FALSE(RowHasFeature(row, 4));
  EXPECT_FALSE(RowHasFeature({}, 0));
}

TEST(Dataset, SelectColumnsRemaps) {
  Dataset data;
  data.num_features = 10;
  data.Add({1, 3, 7}, 1);
  data.Add({0, 7}, 0);
  const std::vector<uint32_t> cols = {7, 3};
  const Dataset projected = data.SelectColumns(cols);
  EXPECT_EQ(projected.num_features, 2u);
  EXPECT_EQ(projected.rows[0], (SparseRow{0, 1}));  // 7 -> 0, 3 -> 1, sorted.
  EXPECT_EQ(projected.rows[1], (SparseRow{0}));
  EXPECT_EQ(projected.labels, data.labels);
}

TEST(Dataset, SubsetPicksRows) {
  Dataset data;
  data.num_features = 4;
  data.Add({0}, 0);
  data.Add({1}, 1);
  data.Add({2}, 0);
  const std::vector<uint32_t> idx = {2, 0};
  const Dataset sub = data.Subset(idx);
  EXPECT_EQ(sub.size(), 2u);
  EXPECT_EQ(sub.rows[0], (SparseRow{2}));
  EXPECT_EQ(sub.labels[1], 0);
}

TEST(Dataset, DenseRowAndFeatureCounts) {
  Dataset data;
  data.num_features = 4;
  data.Add({0, 2}, 1);
  data.Add({2}, 0);
  const auto dense = data.DenseRow(0);
  EXPECT_EQ(dense, (std::vector<float>{1, 0, 1, 0}));
  EXPECT_EQ(data.FeatureCounts(), (std::vector<uint32_t>{1, 0, 2, 0}));
  EXPECT_EQ(data.NumPositive(), 1u);
}

TEST(Dataset, DeduplicateAgainstDropsSharedVectors) {
  Dataset train;
  train.num_features = 4;
  train.Add({0, 1}, 1);
  Dataset test;
  test.num_features = 4;
  test.Add({0, 1}, 1);  // Duplicate of a training row.
  test.Add({2}, 0);
  test.Add({2}, 0);  // Duplicate within the test set.
  const Dataset deduped = DeduplicateAgainst(test, train);
  EXPECT_EQ(deduped.size(), 1u);
  EXPECT_EQ(deduped.rows[0], (SparseRow{2}));
}

TEST(Metrics, ConfusionMath) {
  ConfusionMatrix cm;
  cm.tp = 90;
  cm.fp = 10;
  cm.fn = 30;
  cm.tn = 870;
  EXPECT_DOUBLE_EQ(cm.Precision(), 0.9);
  EXPECT_DOUBLE_EQ(cm.Recall(), 0.75);
  EXPECT_NEAR(cm.F1(), 2 * 0.9 * 0.75 / (0.9 + 0.75), 1e-12);
  EXPECT_DOUBLE_EQ(cm.Accuracy(), 0.96);
  EXPECT_NEAR(cm.FalsePositiveRate(), 10.0 / 880.0, 1e-12);
  ConfusionMatrix sum;
  sum += cm;
  sum += cm;
  EXPECT_EQ(sum.tp, 180u);
  EXPECT_FALSE(sum.ToString().empty());
}

TEST(Metrics, EmptyIsZeroNotNan) {
  const ConfusionMatrix cm;
  EXPECT_EQ(cm.Precision(), 0.0);
  EXPECT_EQ(cm.Recall(), 0.0);
  EXPECT_EQ(cm.F1(), 0.0);
}

// ---- All nine classifiers must learn the combination task. ----

class ClassifierLearns : public ::testing::TestWithParam<ClassifierKind> {};

TEST_P(ClassifierLearns, SeparatesSignalFromNoise) {
  const Dataset train = MakeLearnableDataset(1200, 40, 1);
  const Dataset test = MakeLearnableDataset(400, 40, 2);
  auto model = MakeClassifier(GetParam(), 7);
  ASSERT_NE(model, nullptr);
  model->Train(train);
  const ConfusionMatrix cm = model->Evaluate(test);
  EXPECT_GT(cm.F1(), 0.8) << ClassifierKindName(GetParam()) << ": " << cm.ToString();
}

TEST_P(ClassifierLearns, ScoresAreProbabilities) {
  const Dataset train = MakeLearnableDataset(400, 20, 3);
  auto model = MakeClassifier(GetParam(), 7);
  model->Train(train);
  for (size_t i = 0; i < 50; ++i) {
    const double score = model->PredictScore(train.rows[i]);
    EXPECT_GE(score, 0.0);
    EXPECT_LE(score, 1.0);
  }
}

TEST_P(ClassifierLearns, DeterministicGivenSeed) {
  const Dataset train = MakeLearnableDataset(400, 20, 5);
  auto a = MakeClassifier(GetParam(), 77);
  auto b = MakeClassifier(GetParam(), 77);
  a->Train(train);
  b->Train(train);
  for (size_t i = 0; i < 60; ++i) {
    EXPECT_DOUBLE_EQ(a->PredictScore(train.rows[i]), b->PredictScore(train.rows[i]))
        << ClassifierKindName(GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllNine, ClassifierLearns,
    ::testing::Values(ClassifierKind::kNaiveBayes, ClassifierKind::kLogisticRegression,
                      ClassifierKind::kSvm, ClassifierKind::kGbdt, ClassifierKind::kKnn,
                      ClassifierKind::kCart, ClassifierKind::kAnn, ClassifierKind::kDnn,
                      ClassifierKind::kRandomForest),
    [](const ::testing::TestParamInfo<ClassifierKind>& info) {
      std::string name = ClassifierKindName(info.param);
      std::erase(name, ' ');
      return name;
    });

TEST(ClassifierFactory, NamesMatchTable2) {
  EXPECT_EQ(ClassifierKindName(ClassifierKind::kRandomForest), "Random Forest");
  EXPECT_EQ(ClassifierKindName(ClassifierKind::kNaiveBayes), "Naive Bayes");
  EXPECT_EQ(MakeClassifier(ClassifierKind::kSvm, 1)->name(), "SVM");
  EXPECT_EQ(MakeClassifier(ClassifierKind::kDnn, 1)->name(), "DNN");
}

TEST(CartTree, PureLeafStopsEarly) {
  Dataset data;
  data.num_features = 4;
  for (int i = 0; i < 10; ++i) {
    data.Add({0}, 1);
    data.Add({1}, 0);
  }
  CartTree tree;
  tree.Train(data);
  EXPECT_LE(tree.depth(), 2u);
  EXPECT_GT(tree.PredictScore({0}), 0.9);
  EXPECT_LT(tree.PredictScore({1}), 0.1);
}

TEST(CartTree, EmptyDatasetYieldsLeaf) {
  Dataset data;
  data.num_features = 4;
  CartTree tree;
  tree.Train(data);
  EXPECT_EQ(tree.num_nodes(), 1u);
  EXPECT_EQ(tree.PredictScore({1, 2}), 0.0);
}

TEST(CartTree, SerializationRoundTrips) {
  const Dataset data = MakeLearnableDataset(300, 20, 11);
  CartTree tree;
  tree.Train(data);
  util::ByteWriter w;
  tree.SerializeInto(w);
  const auto bytes = w.TakeBytes();
  util::ByteReader r(bytes);
  auto restored = CartTree::Deserialize(r);
  ASSERT_TRUE(restored.ok());
  for (size_t i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(tree.PredictScore(data.rows[i]), restored->PredictScore(data.rows[i]));
  }
}

TEST(CartTree, DeserializeRejectsGarbage) {
  const std::vector<uint8_t> junk = {9, 9, 9};
  util::ByteReader r(junk);
  EXPECT_FALSE(CartTree::Deserialize(r).ok());
}

TEST(RandomForest, ImportanceConcentratesOnSignal) {
  const Dataset data = MakeLearnableDataset(1500, 40, 13);
  RandomForestConfig config;
  config.num_trees = 24;
  RandomForest forest(config);
  forest.Train(data);
  const auto& imp = forest.feature_importance();
  ASSERT_EQ(imp.size(), 40u);
  double signal = 0.0, total = 0.0;
  for (size_t f = 0; f < imp.size(); ++f) {
    total += imp[f];
    if (f < 5) {
      signal += imp[f];
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_GT(signal, 0.7);  // The 5 signal features dominate 35 noise features.
}

TEST(RandomForest, DeterministicGivenSeed) {
  const Dataset data = MakeLearnableDataset(500, 20, 17);
  RandomForestConfig config;
  config.num_trees = 8;
  config.seed = 99;
  RandomForest a(config), b(config);
  a.Train(data);
  b.Train(data);
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.PredictScore(data.rows[i]), b.PredictScore(data.rows[i]));
  }
}

// The serialized forest (trees, then importances as raw doubles) for a fixed
// seed, pinned: parallel training must stay bit-identical to the serial
// tree-by-tree loop, importance fold order included, whatever runs it.
TEST(RandomForest, TrainMatchesPinnedDigest) {
  const Dataset data = MakeLearnableDataset(800, 30, 23);
  RandomForestConfig config;
  config.num_trees = 16;
  config.seed = 7;
  RandomForest forest(config);
  forest.Train(data);
  uint64_t fnv1a = 0xcbf29ce484222325ull;
  for (uint8_t byte : forest.Serialize()) {
    fnv1a = (fnv1a ^ byte) * 0x100000001b3ull;
  }
  EXPECT_EQ(fnv1a, 0xe941c46d9deafdfcull);
}

TEST(RandomForest, SerializationRoundTrips) {
  const Dataset data = MakeLearnableDataset(500, 20, 19);
  RandomForestConfig config;
  config.num_trees = 12;
  RandomForest forest(config);
  forest.Train(data);
  const auto bytes = forest.Serialize();
  auto restored = RandomForest::Deserialize(bytes);
  ASSERT_TRUE(restored.ok());
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(forest.PredictScore(data.rows[i]), restored->PredictScore(data.rows[i]));
  }
  EXPECT_EQ(restored->feature_importance().size(), 20u);
}

TEST(RandomForest, DeserializeRejectsBadMagic) {
  std::vector<uint8_t> bytes = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};
  EXPECT_FALSE(RandomForest::Deserialize(bytes).ok());
}

// Little-endian in-place overwrite of one u32 field of a serialized model.
void SetU32(std::vector<uint8_t>& bytes, size_t offset, uint32_t value) {
  ASSERT_LE(offset + 4, bytes.size());
  for (size_t i = 0; i < 4; ++i) {
    bytes[offset + i] = static_cast<uint8_t>(value >> (8 * i));
  }
}

// A count in a model blob is untrusted: one the bytes left cannot hold is an
// error before it drives a reserve (2^32 - 1 trees, nodes or importance
// entries would otherwise ask for tens of GB and throw std::bad_alloc).
TEST(RandomForest, DeserializeRejectsCountsBeyondTheBlob) {
  const Dataset data = MakeLearnableDataset(200, 8, 29);
  RandomForestConfig config;
  config.num_trees = 2;
  RandomForest forest(config);
  forest.Train(data);
  const std::vector<uint8_t> valid = forest.Serialize();
  ASSERT_TRUE(RandomForest::Deserialize(valid).ok());

  // Header: magic, num_features, num_trees; then the first tree's node count.
  // The blob ends with the importance count and its 8 doubles.
  const size_t importance_count_at = valid.size() - 8 * 8 - 4;
  for (size_t offset : {size_t{8}, size_t{12}, importance_count_at}) {
    for (uint32_t count : {0xFFFF'FFFFu, 1u << 28}) {
      std::vector<uint8_t> hostile = valid;
      SetU32(hostile, offset, count);
      EXPECT_FALSE(RandomForest::Deserialize(hostile).ok())
          << "count " << count << " at offset " << offset;
    }
  }
}

TEST(CartTree, DeserializeRejectsNodeCountBeyondTheBlob) {
  util::ByteWriter writer;
  writer.PutU32(1);  // One node (16 bytes): a valid leaf.
  for (uint32_t field : {0xFFFF'FFFFu, 0u, 0u, std::bit_cast<uint32_t>(0.5f)}) {
    writer.PutU32(field);
  }
  const std::vector<uint8_t> exact = writer.TakeBytes();
  util::ByteReader exact_reader(exact);
  EXPECT_TRUE(CartTree::Deserialize(exact_reader).ok());

  for (uint32_t count : {2u, 0xFFFF'FFFFu}) {
    std::vector<uint8_t> hostile = exact;
    SetU32(hostile, 0, count);
    util::ByteReader reader(hostile);
    EXPECT_FALSE(CartTree::Deserialize(reader).ok()) << "count " << count;
  }
}

// Node scores and importances are bit-cast floats: NaN or an infinity must be
// rejected at decode, not carried into every later score.
TEST(RandomForest, DeserializeRejectsNonFiniteScoresAndImportances) {
  const Dataset data = MakeLearnableDataset(200, 8, 31);
  RandomForestConfig config;
  config.num_trees = 2;
  RandomForest forest(config);
  forest.Train(data);
  const std::vector<uint8_t> valid = forest.Serialize();
  ASSERT_TRUE(RandomForest::Deserialize(valid).ok());

  const double kBad[] = {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()};
  for (double bad : kBad) {
    // The first node's score: after the 12-byte header, the node count and
    // the node's feature and two child indices.
    std::vector<uint8_t> score = valid;
    SetU32(score, 12 + 4 + 12, std::bit_cast<uint32_t>(static_cast<float>(bad)));
    EXPECT_FALSE(RandomForest::Deserialize(score).ok()) << "score " << bad;

    // The last importance entry.
    std::vector<uint8_t> importance = valid;
    const uint64_t bits = std::bit_cast<uint64_t>(bad);
    std::memcpy(importance.data() + importance.size() - 8, &bits, 8);
    EXPECT_FALSE(RandomForest::Deserialize(importance).ok()) << "importance " << bad;
  }
}

TEST(CrossValidation, StratifiedFoldsBalanceClasses) {
  const Dataset data = MakeLearnableDataset(1000, 10, 23, 0.2);
  const auto folds = StratifiedFoldAssignment(data, 5, 3);
  std::array<int, 5> pos{}, total{};
  for (size_t i = 0; i < data.size(); ++i) {
    ++total[folds[i]];
    pos[folds[i]] += data.labels[i];
  }
  for (int f = 0; f < 5; ++f) {
    EXPECT_NEAR(static_cast<double>(total[f]), 200.0, 1.0);
    EXPECT_NEAR(static_cast<double>(pos[f]) / total[f], 0.2, 0.02);
  }
}

TEST(CrossValidation, RunsAllFoldsAndPools) {
  const Dataset data = MakeLearnableDataset(600, 20, 29);
  const auto result = CrossValidate(data, 4, 7, [] {
    return MakeClassifier(ClassifierKind::kCart, 5);
  });
  EXPECT_EQ(result.folds.size(), 4u);
  EXPECT_GT(result.Precision(), 0.7);
  EXPECT_GT(result.Recall(), 0.7);
  EXPECT_GT(result.total_train_seconds, 0.0);
  uint64_t pooled_total = 0;
  for (const auto& fold : result.folds) {
    pooled_total += fold.total();
  }
  EXPECT_EQ(result.pooled.total(), pooled_total);
}

TEST(SplitTrainTest, PartitionsAllRows) {
  const Dataset data = MakeLearnableDataset(500, 10, 31);
  const auto split = SplitTrainTest(data, 0.2, 3);
  EXPECT_EQ(split.train.size() + split.test.size(), 500u);
  EXPECT_NEAR(static_cast<double>(split.test.size()), 100.0, 2.0);
}

}  // namespace
}  // namespace apichecker::ml
