// The trained similarity classifier bundled with its feature normalizer.
//
// score(a, b) is the probability that two binary functions come from the
// same source code (the paper's Stage-1 detector). The normalizer fitted on
// the training corpus travels with the network so inference applies the
// identical transform.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dl/network.h"
#include "features/static_features.h"

namespace patchecko {

class SimilarityModel {
 public:
  SimilarityModel() = default;
  SimilarityModel(Network network, FeatureNormalizer normalizer)
      : network_(std::move(network)), normalizer_(std::move(normalizer)) {}

  /// Probability in [0,1] that `a` and `b` are same-source. Raw (untrans-
  /// formed) feature vectors in. One QueryScorer call: scoring many targets
  /// against one query should hold a QueryScorer instead.
  float score(const StaticFeatureVector& a,
              const StaticFeatureVector& b) const;

  const Network& network() const { return network_; }
  Network& network() { return network_; }
  const FeatureNormalizer& normalizer() const { return normalizer_; }

  /// Binary serialization (weights + normalizer). Returns false on I/O error.
  bool save(const std::string& path) const;
  /// nullopt, with the reason in `error`, unless the file is a consistent
  /// model (DESIGN.md §8, "The model file").
  static std::optional<SimilarityModel> load(const std::string& path,
                                             std::string* error = nullptr);

 private:
  Network network_;
  FeatureNormalizer normalizer_;
};

/// The model's only inference path for pairs: one query scored against many
/// targets. score(target) returns SimilarityModel::score(query, target) bit
/// for bit — the mean of the sigmoid outputs for the (query, target) and
/// (target, query) inputs — with the per-query work done once:
///   * the query is normalized once;
///   * layer 1's partial sums over the query half (bias plus inputs 0..47)
///     are cached for the (query, target) order, so that order adds only
///     the 48 target terms per target;
///   * every activation lives in scratch owned by the scorer, so scoring a
///     target allocates nothing.
/// Every per-output sum keeps DenseLayer::forward's order (DESIGN.md §14.1).
/// Holds references to the model, which must outlive it. Not thread-safe:
/// one scorer per thread.
class QueryScorer {
 public:
  /// Throws std::invalid_argument unless the network takes the 96-wide
  /// pair input.
  QueryScorer(const SimilarityModel& model, const StaticFeatureVector& query);

  float score(const StaticFeatureVector& target);

  /// One nonzero input of a dense layer: its value and its weight row.
  struct Term {
    float x;
    std::uint32_t row;
  };

 private:
  /// Runs layers 2.. on the layer-1 pre-activations in act_ and returns the
  /// sigmoid of the network's output.
  float finish();

  const std::vector<DenseLayer>& layers_;
  const FeatureNormalizer& normalizer_;
  std::vector<Term> query_terms_;     ///< nonzero normalized query inputs
  std::vector<Term> target_terms_;    ///< same for the current target
  std::vector<Term> hidden_terms_;    ///< nonzero ReLU outputs, layers 2..
  std::vector<float> query_partial_;  ///< layer-1 bias + query half
  std::vector<float> act_;            ///< current layer's outputs
};

}  // namespace patchecko
