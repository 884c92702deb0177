// Stage-1 retrieval: a clustered inverted index over quantized function
// features.
//
// PATCHECKO's stage 1 scores every (CVE query, target function) pair with
// the 6-layer similarity network — O(CVEs x functions), the dominant cost
// of fleet-scale scans. Functions the network accepts have features close
// to the query's in compressed feature space (that proximity is what the
// network learned), so a cheap approximate-nearest-neighbour pass can
// shortlist top-K candidates per query and the network runs only on the
// shortlist. This is the VulMatch/AI-BFSD prefilter shape adapted to the
// 48-dim static feature vectors:
//
//   build:  quantize every function (quantizer.h), pick C ~ sqrt(N)
//           centroids by deterministic farthest-point seeding, refine with
//           a few Lloyd rounds, store one ascending inverted list per
//           centroid. Seeding and Lloyd run over the distinct codes, each
//           weighted by how many functions share it; the result is the
//           one a per-function build gives (DESIGN.md §22). No RNG
//           anywhere: the same features produce the bit-identical index
//           at any --jobs value.
//   query:  rank centroids by distance to the quantized query, scan the
//           nearest lists until the probe budget is met, and return the K
//           closest scanned functions — ties broken toward the lower
//           function index, result sorted ascending so the detect loop
//           visits candidates in the same order the exact scan would.
//
// The index is approximate by construction (a true neighbour can hide in
// an unprobed list); bench_retrieval measures recall against the exact
// all-pairs scan (as does an `on` scan read against an `off` one), and the
// defaults below are sized to hold >= 99% on the synthetic corpora.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "retrieval/quantizer.h"

namespace patchecko::retrieval {

/// Stage-1 prefilter switch, threaded from the CLI down to detect():
///   off — exact all-pairs scoring (the paper's behaviour),
///   on  — score only the index's top-K shortlist.
enum class PrefilterMode : std::uint8_t { off = 0, on = 1 };

std::optional<PrefilterMode> parse_prefilter_mode(std::string_view text);

struct IndexConfig {
  /// Inverted-list count; 0 = auto (ceil(sqrt(N)), clamped to [1, N]).
  std::size_t clusters = 0;
  /// Lloyd refinement rounds after farthest-point seeding.
  std::size_t lloyd_iterations = 4;
  /// Probing scans nearest lists until at least `probe_budget_factor * K`
  /// candidates were examined (and at least `min_probe_clusters` lists).
  /// Larger = better recall, more distance computations.
  std::size_t probe_budget_factor = 8;
  std::size_t min_probe_clusters = 4;
};

struct IndexStats {
  std::size_t vectors = 0;
  std::size_t distinct_codes = 0;  ///< points the clustering ran over
  std::size_t clusters = 0;
  std::size_t memory_bytes = 0;
  double build_seconds = 0.0;
};

class FunctionIndex {
 public:
  /// Builds the index over one library's feature vectors. Deterministic:
  /// identical features (in order) produce an identical index.
  static FunctionIndex build(const std::vector<StaticFeatureVector>& features,
                             const IndexConfig& config = {});
  static std::shared_ptr<const FunctionIndex> build_shared(
      const std::vector<StaticFeatureVector>& features,
      const IndexConfig& config = {});

  /// The K indexed functions nearest to `query` (all of them when K >= N),
  /// sorted ascending by function index. Every returned index is < size().
  std::vector<std::uint32_t> top_k(const QuantizedVector& query,
                                   std::size_t k) const;
  std::vector<std::uint32_t> top_k(const StaticFeatureVector& query,
                                   std::size_t k) const {
    return top_k(quantize(query), k);
  }

  std::size_t size() const { return codes_.size(); }
  std::size_t cluster_count() const { return centroids_.size(); }
  const IndexStats& stats() const { return stats_; }
  /// Stored code of function `i` (tests and round-trip checks).
  const QuantizedVector& code(std::size_t i) const { return codes_[i]; }
  /// Centroid and ascending member functions of inverted list `c` (tests).
  const QuantizedVector& centroid(std::size_t c) const {
    return centroids_[c];
  }
  const std::vector<std::uint32_t>& list(std::size_t c) const {
    return lists_[c];
  }

 private:
  IndexConfig config_;
  std::vector<QuantizedVector> codes_;      ///< one per indexed function
  std::vector<QuantizedVector> centroids_;  ///< one per inverted list
  std::vector<std::vector<std::uint32_t>> lists_;  ///< ascending members
  IndexStats stats_;
};

}  // namespace patchecko::retrieval
