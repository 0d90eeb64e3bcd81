#include "ml/cart.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>

namespace apichecker::ml {

namespace {

double GiniImpurity(double positives, double total) {
  if (total <= 0.0) {
    return 0.0;
  }
  const double q = positives / total;
  return 2.0 * q * (1.0 - q);
}

uint32_t FloatBits(float f) { return std::bit_cast<uint32_t>(f); }
float BitsFloat(uint32_t u) { return std::bit_cast<float>(u); }

}  // namespace

void CartTree::Train(const Dataset& data) {
  std::vector<uint32_t> indices(data.size());
  std::iota(indices.begin(), indices.end(), 0u);
  TrainOnRows(data, indices, nullptr);
}

void CartTree::TrainOnRows(const Dataset& data, std::span<const uint32_t> row_indices,
                           std::vector<double>* importance_out) {
  nodes_.clear();
  depth_ = 0;
  total_rows_ = row_indices.size();
  rng_ = util::Rng(config_.seed);
  stamp_.assign(data.num_features, 0);
  count_.assign(data.num_features, 0);
  pos_count_.assign(data.num_features, 0);
  allowed_stamp_.assign(data.num_features, 0);
  epoch_ = 0;

  if (row_indices.empty()) {
    nodes_.push_back(Node{.feature = -1, .score = 0.0f});
    return;
  }
  std::vector<uint32_t> rows(row_indices.begin(), row_indices.end());
  Build(data, rows, 0, rows.size(), 0, importance_out);
}

uint32_t CartTree::Build(const Dataset& data, std::vector<uint32_t>& row_indices, size_t begin,
                         size_t end, size_t depth, std::vector<double>* importance_out) {
  const size_t n = end - begin;
  size_t npos = 0;
  for (size_t i = begin; i < end; ++i) {
    npos += data.labels[row_indices[i]];
  }

  const uint32_t node_index = static_cast<uint32_t>(nodes_.size());
  nodes_.push_back(Node{});
  nodes_[node_index].score = static_cast<float>(static_cast<double>(npos) /
                                                static_cast<double>(n));
  depth_ = std::max(depth_, depth);

  if (depth >= config_.max_depth || n < config_.min_samples_split || npos == 0 || npos == n) {
    return node_index;
  }

  // Per-node candidate feature subset (random forest mtry sampling).
  ++epoch_;
  const bool use_subset =
      config_.features_per_split > 0 && config_.features_per_split < data.num_features;
  if (use_subset) {
    for (uint32_t f : rng_.SampleWithoutReplacement(data.num_features,
                                                    config_.features_per_split)) {
      allowed_stamp_[f] = epoch_;
    }
  }

  // Histogram candidate features present in this node's rows.
  std::vector<uint32_t> touched;
  for (size_t i = begin; i < end; ++i) {
    const uint32_t row = row_indices[i];
    const uint8_t label = data.labels[row];
    for (uint32_t f : data.rows[row]) {
      if (use_subset && allowed_stamp_[f] != epoch_) {
        continue;
      }
      if (stamp_[f] != epoch_) {
        stamp_[f] = epoch_;
        count_[f] = 0;
        pos_count_[f] = 0;
        touched.push_back(f);
      }
      ++count_[f];
      pos_count_[f] += label;
    }
  }

  const double parent_impurity = GiniImpurity(static_cast<double>(npos), static_cast<double>(n));
  double best_gain = 1e-12;
  int64_t best_feature = -1;
  for (uint32_t f : touched) {
    const size_t n1 = count_[f];
    const size_t n0 = n - n1;
    if (n1 < config_.min_samples_leaf || n0 < config_.min_samples_leaf) {
      continue;
    }
    const size_t p1 = pos_count_[f];
    const size_t p0 = npos - p1;
    const double child_impurity =
        (static_cast<double>(n1) * GiniImpurity(static_cast<double>(p1),
                                                static_cast<double>(n1)) +
         static_cast<double>(n0) * GiniImpurity(static_cast<double>(p0),
                                                static_cast<double>(n0))) /
        static_cast<double>(n);
    const double gain = parent_impurity - child_impurity;
    if (gain > best_gain) {
      best_gain = gain;
      best_feature = f;
    }
  }

  if (best_feature < 0) {
    return node_index;
  }
  if (importance_out != nullptr) {
    (*importance_out)[static_cast<size_t>(best_feature)] +=
        best_gain * static_cast<double>(n) / static_cast<double>(total_rows_);
  }

  const uint32_t split_feature = static_cast<uint32_t>(best_feature);
  const auto mid_it = std::stable_partition(
      row_indices.begin() + static_cast<ptrdiff_t>(begin),
      row_indices.begin() + static_cast<ptrdiff_t>(end),
      [&](uint32_t row) { return !RowHasFeature(data.rows[row], split_feature); });
  const size_t mid = static_cast<size_t>(mid_it - row_indices.begin());

  // Children are built after the parent; fix up indices afterwards because
  // recursion may reallocate nodes_.
  const uint32_t absent = Build(data, row_indices, begin, mid, depth + 1, importance_out);
  const uint32_t present = Build(data, row_indices, mid, end, depth + 1, importance_out);
  nodes_[node_index].feature = static_cast<int32_t>(split_feature);
  nodes_[node_index].absent_child = absent;
  nodes_[node_index].present_child = present;
  return node_index;
}

double CartTree::PredictScore(const SparseRow& row) const {
  if (nodes_.empty()) {
    return 0.0;
  }
  uint32_t index = 0;
  for (;;) {
    const Node& node = nodes_[index];
    if (node.feature < 0) {
      return node.score;
    }
    index = RowHasFeature(row, static_cast<uint32_t>(node.feature)) ? node.present_child
                                                                    : node.absent_child;
  }
}

void CartTree::SerializeInto(util::ByteWriter& writer) const {
  writer.PutU32(static_cast<uint32_t>(nodes_.size()));
  for (const Node& node : nodes_) {
    writer.PutU32(static_cast<uint32_t>(node.feature));
    writer.PutU32(node.absent_child);
    writer.PutU32(node.present_child);
    writer.PutU32(FloatBits(node.score));
  }
}

util::Result<CartTree> CartTree::Deserialize(util::ByteReader& reader) {
  auto count = reader.ReadU32();
  if (!count.ok()) {
    return util::Err(count.error());
  }
  // Untrusted count: every node takes 16 bytes, so a count the bytes left
  // cannot hold is rejected before it drives a reserve.
  if (*count > reader.remaining() / 16) {
    return util::Err("CART node count exceeds the blob");
  }
  CartTree tree;
  tree.nodes_.reserve(*count);
  for (uint32_t i = 0; i < *count; ++i) {
    auto feature = reader.ReadU32();
    auto absent = reader.ReadU32();
    auto present = reader.ReadU32();
    auto score = reader.ReadU32();
    if (!feature.ok() || !absent.ok() || !present.ok() || !score.ok()) {
      return util::Err("truncated CART node");
    }
    Node node;
    node.feature = static_cast<int32_t>(*feature);
    node.absent_child = *absent;
    node.present_child = *present;
    node.score = BitsFloat(*score);
    if (!std::isfinite(node.score)) {
      return util::Err("non-finite CART score");
    }
    if (node.feature >= 0 && (node.absent_child >= *count || node.present_child >= *count ||
                              node.absent_child <= i || node.present_child <= i)) {
      return util::Err("malformed CART topology");
    }
    tree.nodes_.push_back(node);
  }
  return tree;
}

}  // namespace apichecker::ml
