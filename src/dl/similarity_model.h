// The trained similarity classifier bundled with its feature normalizer.
//
// score(a, b) is the probability that two binary functions come from the
// same source code (the paper's Stage-1 detector). The normalizer fitted on
// the training corpus travels with the network so inference applies the
// identical transform.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
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
/// targets. score_batch returns SimilarityModel::score(query, target) bit
/// for bit for every target — the mean of the sigmoid outputs for the
/// (query, target) and (target, query) inputs — with the shared work done
/// once:
///   * the query is normalized once, and layer 1's partial sums over the
///     query half (bias plus inputs 0..47) are cached for the (query,
///     target) order, so that order adds only the target's terms;
///   * targets are scored in tiles of kTile. Each target's used inputs are
///     compacted into a term list without a branch, and a layer pass runs
///     over blocks of output columns outermost: a block's weight columns
///     come from memory once per tile and serve every target of the tile
///     from L1, with 8 partial sums per target held in registers;
///   * every activation lives in scratch owned by the scorer, so scoring
///     allocates nothing.
/// Every per-output sum keeps DenseLayer::forward's terms and order
/// (DESIGN.md §14.1). score(target) is a batch of one. Holds references to
/// the model, which must outlive it. Not thread-safe: one scorer per thread.
class QueryScorer {
 public:
  /// Targets per pass over a layer's weights.
  static constexpr std::size_t kTile = 4;

  /// Throws std::invalid_argument unless the network takes the 96-wide
  /// pair input.
  QueryScorer(const SimilarityModel& model, const StaticFeatureVector& query);

  /// out[k] = score(*targets[k]) for every k; the spans have equal sizes.
  void score_batch(std::span<const StaticFeatureVector* const> targets,
                   std::span<float> out);
  float score(const StaticFeatureVector& target);

  /// One input DenseLayer::forward does not skip: its value and where its
  /// weight row starts (input index * out_dim).
  struct Term {
    float x;
    std::uint32_t offset;
  };

 private:
  /// Runs layers 2.. on the tile of layer-1 pre-activations in `act`
  /// (kTile rows of act_stride_ floats) for its first `lanes` targets.
  void finish(float* act, std::size_t lanes);

  const std::vector<DenseLayer>& layers_;
  const FeatureNormalizer& normalizer_;
  std::size_t act_stride_ = 0;   ///< widest layer output
  std::size_t term_stride_ = 0;  ///< widest layer input
  std::vector<Term> query_terms_;     ///< nonzero normalized query inputs
  std::vector<float> query_partial_;  ///< layer-1 bias + query half
  std::vector<Term> terms_;           ///< each target's terms, per layer
  std::vector<float> forward_, backward_;  ///< the tile's two pair orders
};

}  // namespace patchecko
