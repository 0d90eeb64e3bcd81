#include "ml/random_forest.h"

#include <bit>
#include <cmath>

#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace apichecker::ml {

namespace {
constexpr uint32_t kModelMagic = 0x52464d31;  // "RFM1"
}  // namespace

void RandomForest::Train(const Dataset& data) {
  trees_.clear();
  num_features_ = data.num_features;
  importance_.assign(data.num_features, 0.0);
  if (data.size() == 0) {
    return;
  }

  size_t mtry = config_.features_per_split;
  if (mtry == 0) {
    mtry = static_cast<size_t>(std::lround(std::sqrt(static_cast<double>(data.num_features))));
    mtry = std::max<size_t>(1, mtry);
  }

  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Default();
  obs::ScopedTimer forest_timer(metrics.histogram(obs::names::kMlForestTrainMs));
  obs::Histogram& tree_train_ms = metrics.histogram(obs::names::kMlTreeTrainMs);

  // Trees train in parallel. Rng::Fork is a pure function of the seed lineage
  // and the stream id, so every tree's randomness is fixed up front and the
  // result is identical to the historical serial loop. Each tree records Gini
  // importance into its own buffer; buffers are folded in tree order below so
  // the floating-point accumulation order stays deterministic too.
  const util::Rng rng(config_.seed);
  trees_.resize(config_.num_trees);
  std::vector<std::vector<double>> tree_importance(
      config_.num_trees, std::vector<double>(data.num_features, 0.0));
  util::ThreadPool pool(config_.train_threads);
  pool.ParallelFor(0, config_.num_trees, [&](size_t t) {
    obs::ScopedTimer tree_timer(tree_train_ms);
    // Bootstrap bag: n draws with replacement.
    util::Rng bag_rng = rng.Fork(t * 2 + 1);
    std::vector<uint32_t> bag(data.size());
    for (auto& idx : bag) {
      idx = static_cast<uint32_t>(bag_rng.NextBounded(data.size()));
    }
    CartConfig tree_config;
    tree_config.max_depth = config_.max_depth;
    tree_config.min_samples_leaf = config_.min_samples_leaf;
    tree_config.min_samples_split = std::max<size_t>(2, config_.min_samples_leaf * 2);
    tree_config.features_per_split = mtry;
    tree_config.seed = rng.Fork(t * 2 + 2).Next();
    CartTree tree(tree_config);
    tree.TrainOnRows(data, bag, &tree_importance[t]);
    trees_[t] = std::move(tree);
  });
  for (const std::vector<double>& per_tree : tree_importance) {
    for (size_t f = 0; f < importance_.size(); ++f) {
      importance_[f] += per_tree[f];
    }
  }
  metrics.counter(obs::names::kMlForestTrainsTotal).Increment();

  double total = 0.0;
  for (double v : importance_) {
    total += v;
  }
  if (total > 0.0) {
    for (double& v : importance_) {
      v /= total;
    }
  }
}

double RandomForest::PredictScore(const SparseRow& row) const {
  if (trees_.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (const CartTree& tree : trees_) {
    sum += tree.PredictScore(row);
  }
  return sum / static_cast<double>(trees_.size());
}

std::vector<uint8_t> RandomForest::Serialize() const {
  util::ByteWriter writer;
  writer.PutU32(kModelMagic);
  writer.PutU32(num_features_);
  writer.PutU32(static_cast<uint32_t>(trees_.size()));
  for (const CartTree& tree : trees_) {
    tree.SerializeInto(writer);
  }
  writer.PutU32(static_cast<uint32_t>(importance_.size()));
  for (double v : importance_) {
    writer.PutU64(std::bit_cast<uint64_t>(v));
  }
  return writer.TakeBytes();
}

util::Result<RandomForest> RandomForest::Deserialize(std::span<const uint8_t> bytes) {
  util::ByteReader reader(bytes);
  auto magic = reader.ReadU32();
  if (!magic.ok() || *magic != kModelMagic) {
    return util::Err("bad random forest model magic");
  }
  auto num_features = reader.ReadU32();
  auto num_trees = reader.ReadU32();
  if (!num_features.ok() || !num_trees.ok()) {
    return util::Err("truncated random forest header");
  }
  // Counts are untrusted: bound each by what the bytes left could hold at the
  // element's minimum encoded size before reserving for it (a tree is at
  // least its 4-byte node count, an importance entry 8 bytes).
  if (*num_trees > reader.remaining() / 4) {
    return util::Err("random forest tree count exceeds the blob");
  }
  RandomForest forest;
  forest.num_features_ = *num_features;
  forest.trees_.reserve(*num_trees);
  for (uint32_t t = 0; t < *num_trees; ++t) {
    auto tree = CartTree::Deserialize(reader);
    if (!tree.ok()) {
      return util::Err(tree.error());
    }
    forest.trees_.push_back(std::move(tree.value()));
  }
  auto importance_size = reader.ReadU32();
  if (!importance_size.ok()) {
    return util::Err("truncated importance vector");
  }
  if (*importance_size > reader.remaining() / 8) {
    return util::Err("importance count exceeds the blob");
  }
  forest.importance_.reserve(*importance_size);
  for (uint32_t i = 0; i < *importance_size; ++i) {
    auto v = reader.ReadU64();
    if (!v.ok()) {
      return util::Err("truncated importance entry");
    }
    const double importance = std::bit_cast<double>(*v);
    if (!std::isfinite(importance)) {
      return util::Err("non-finite importance entry");
    }
    forest.importance_.push_back(importance);
  }
  return forest;
}

}  // namespace apichecker::ml
