// Random forest: bagged CART trees with per-node feature subsampling. This is
// the classifier APICHECKER deploys (paper §4.3/Table 2: best precision, good
// recall, small training time, good interpretability via Gini importance).

#ifndef APICHECKER_ML_RANDOM_FOREST_H_
#define APICHECKER_ML_RANDOM_FOREST_H_

#include <memory>
#include <vector>

#include "ml/cart.h"
#include "ml/classifier.h"
#include "util/byte_io.h"
#include "util/result.h"

namespace apichecker::ml {

struct RandomForestConfig {
  size_t num_trees = 48;
  size_t max_depth = 24;
  size_t min_samples_leaf = 1;
  // Per-node candidate features; 0 selects sqrt(num_features).
  size_t features_per_split = 0;
  uint64_t seed = 1;
};

class RandomForest : public Classifier {
 public:
  explicit RandomForest(RandomForestConfig config = {}) : config_(config) {}

  void Train(const Dataset& data) override;
  double PredictScore(const SparseRow& row) const override;
  std::string name() const override { return "RandomForest"; }

  // Normalized Gini importance per feature (sums to 1 unless all zero).
  // Valid after Train().
  const std::vector<double>& feature_importance() const { return importance_; }

  size_t num_trees() const { return trees_.size(); }

  // Model persistence: the production system stores the monthly retrained
  // model (§5.3). The format is a versioned flat byte stream.
  std::vector<uint8_t> Serialize() const;
  static util::Result<RandomForest> Deserialize(std::span<const uint8_t> bytes);

 private:
  RandomForestConfig config_;
  std::vector<CartTree> trees_;
  std::vector<double> importance_;
  uint32_t num_features_ = 0;
};

}  // namespace apichecker::ml

#endif  // APICHECKER_ML_RANDOM_FOREST_H_
