#include "retrieval/index.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "util/byte_classes.h"
#include "util/timer.h"

namespace patchecko::retrieval {
namespace {

std::uint32_t nearest_centroid(const QuantizedVector& code,
                               const std::vector<QuantizedVector>& centroids) {
  std::uint32_t best = 0;
  std::uint32_t best_dist = std::numeric_limits<std::uint32_t>::max();
  for (std::uint32_t c = 0; c < centroids.size(); ++c) {
    const std::uint32_t dist = quantized_distance_sq(code, centroids[c]);
    if (dist < best_dist) {  // strict: ties keep the lowest cluster id
      best_dist = dist;
      best = c;
    }
  }
  return best;
}

// Squared distance from each centroid to its nearest other centroid; the
// largest value when there is no other.
void centroid_separation(const std::vector<QuantizedVector>& centroids,
                         std::vector<std::uint32_t>& separation) {
  separation.assign(centroids.size(),
                    std::numeric_limits<std::uint32_t>::max());
  for (std::size_t a = 0; a < centroids.size(); ++a)
    for (std::size_t b = a + 1; b < centroids.size(); ++b) {
      const std::uint32_t dist =
          quantized_distance_sq(centroids[a], centroids[b]);
      separation[a] = std::min(separation[a], dist);
      separation[b] = std::min(separation[b], dist);
    }
}

}  // namespace

std::optional<PrefilterMode> parse_prefilter_mode(std::string_view text) {
  if (text == "off") return PrefilterMode::off;
  if (text == "on") return PrefilterMode::on;
  return std::nullopt;
}

FunctionIndex FunctionIndex::build(
    const std::vector<StaticFeatureVector>& features,
    const IndexConfig& config) {
  Stopwatch timer;
  FunctionIndex index;
  index.config_ = config;

  const std::size_t n = features.size();
  index.codes_.reserve(n);
  for (const StaticFeatureVector& vec : features)
    index.codes_.push_back(quantize(vec));

  // Clustering runs over the distinct codes ("points") in first-occurrence
  // order, each with its multiplicity. Every step below sees a function
  // only through its code, so all copies of a code take the path of their
  // first occurrence, and a first-occurrence walk keeps "lowest function
  // index" tie-breaks intact.
  const ByteClasses distinct = classify_by_bytes(index.codes_);
  const std::size_t u = distinct.representatives.size();
  std::vector<QuantizedVector> points;
  points.reserve(u);
  for (const std::uint32_t first : distinct.representatives)
    points.push_back(index.codes_[first]);
  std::vector<std::uint32_t> multiplicity(u, 0);
  for (const std::uint32_t point : distinct.class_of) ++multiplicity[point];
  index.stats_.distinct_codes = u;

  if (n > 0) {
    // The cluster count is a function of N, not of the distinct count.
    std::size_t clusters = config.clusters;
    if (clusters == 0)
      clusters = static_cast<std::size_t>(
          std::ceil(std::sqrt(static_cast<double>(n))));
    clusters = std::clamp<std::size_t>(clusters, 1, n);

    // Farthest-point seeding from function 0: maximally spread, no RNG.
    // Ties (equal max-min distance) go to the lowest function index, which
    // is the lowest point: points are in first-occurrence order.
    //
    // Both loops below skip distances the triangle inequality settles
    // exactly. With d = sqrt(D), d(x,c) >= d(g,c) - d(x,g), so
    // D(g,c) >= 4 D(x,g) gives D(x,c) >= D(x,g): c cannot come strictly
    // closer to x than g. The test stays in integers.
    std::vector<QuantizedVector>& centroids = index.centroids_;
    centroids.push_back(points[0]);
    std::vector<std::uint32_t> min_dist(u);
    // nearest[p]: a centroid at distance min_dist[p] from point p.
    std::vector<std::uint32_t> nearest(u, 0);
    std::vector<std::uint32_t> to_added;
    for (std::size_t p = 0; p < u; ++p)
      min_dist[p] = quantized_distance_sq(points[p], centroids[0]);
    while (centroids.size() < clusters) {
      std::size_t far = 0;
      for (std::size_t p = 1; p < u; ++p)
        if (min_dist[p] > min_dist[far]) far = p;
      centroids.push_back(points[far]);
      const auto added = static_cast<std::uint32_t>(centroids.size() - 1);
      to_added.resize(centroids.size());
      for (std::size_t c = 0; c < centroids.size(); ++c)
        to_added[c] = quantized_distance_sq(centroids[c], centroids[added]);
      for (std::size_t p = 0; p < u; ++p) {
        // The added centroid cannot lower min_dist[p].
        if (to_added[nearest[p]] >= 4 * min_dist[p]) continue;
        const std::uint32_t dist =
            quantized_distance_sq(points[p], centroids[added]);
        if (dist < min_dist[p]) {
          min_dist[p] = dist;
          nearest[p] = added;
        }
      }
    }

    // A few Lloyd rounds sharpen the seeds; assignment and the rounded-mean
    // update are both deterministic, and empty clusters keep their previous
    // centroid so the cluster count never shrinks. The update is the
    // member mean in integers: per dimension sum(mult * code) over
    // sum(mult), rounded half-up via +denominator/2 on non-negative sums,
    // so it equals the mean over every member function exactly.
    std::vector<std::array<std::uint64_t, static_feature_count>> sums;
    std::vector<std::uint64_t> weights;
    std::vector<std::uint32_t> separation;
    for (std::size_t round = 0; round <= config.lloyd_iterations; ++round) {
      centroid_separation(centroids, separation);
      for (std::uint32_t p = 0; p < u; ++p) {
        // nearest[p] is the last assignment (the seeding's at first). When
        // 4 D(x,g) < separation[g], the bound above holds strictly for
        // every other centroid, so g is the unique nearest: the centroid
        // the full scan returns.
        const std::uint32_t guess = nearest[p];
        if (4 * quantized_distance_sq(points[p], centroids[guess]) >=
            separation[guess])
          nearest[p] = nearest_centroid(points[p], centroids);
      }
      if (round == config.lloyd_iterations) break;  // final assignment stands
      sums.assign(centroids.size(), {});
      weights.assign(centroids.size(), 0);
      for (std::size_t p = 0; p < u; ++p) {
        auto& sum = sums[nearest[p]];
        for (std::size_t d = 0; d < static_feature_count; ++d)
          sum[d] += std::uint64_t{multiplicity[p]} * points[p].codes[d];
        weights[nearest[p]] += multiplicity[p];
      }
      for (std::size_t c = 0; c < centroids.size(); ++c) {
        const std::uint64_t w = weights[c];
        if (w == 0) continue;
        for (std::size_t d = 0; d < static_feature_count; ++d)
          centroids[c].codes[d] =
              static_cast<std::uint8_t>((sums[c][d] + w / 2) / w);
      }
    }

    // Inverted lists hold functions, ascending.
    index.lists_.assign(centroids.size(), {});
    for (std::uint32_t i = 0; i < n; ++i)
      index.lists_[nearest[distinct.class_of[i]]].push_back(i);
  }

  index.stats_.vectors = n;
  index.stats_.clusters = index.centroids_.size();
  std::size_t bytes = (index.codes_.size() + index.centroids_.size()) *
                      sizeof(QuantizedVector);
  for (const auto& list : index.lists_)
    bytes += list.size() * sizeof(std::uint32_t);
  index.stats_.memory_bytes = bytes;
  index.stats_.build_seconds = timer.elapsed_seconds();
  return index;
}

std::shared_ptr<const FunctionIndex> FunctionIndex::build_shared(
    const std::vector<StaticFeatureVector>& features,
    const IndexConfig& config) {
  return std::make_shared<const FunctionIndex>(build(features, config));
}

std::vector<std::uint32_t> FunctionIndex::top_k(const QuantizedVector& query,
                                                std::size_t k) const {
  const std::size_t n = codes_.size();
  if (k == 0 || n == 0) return {};

  // Rank clusters by centroid distance; ties by cluster id so probe order
  // is total and deterministic.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> order;
  order.reserve(centroids_.size());
  for (std::uint32_t c = 0; c < centroids_.size(); ++c)
    order.emplace_back(quantized_distance_sq(query, centroids_[c]), c);
  std::sort(order.begin(), order.end());

  const std::size_t budget =
      std::max(k * std::max<std::size_t>(config_.probe_budget_factor, 1), k);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> scanned;  // (dist, idx)
  scanned.reserve(std::min(n, budget + budget / 2));
  std::size_t probed = 0;
  for (const auto& [unused_dist, c] : order) {
    if (probed >= config_.min_probe_clusters && scanned.size() >= budget) break;
    for (const std::uint32_t i : lists_[c])
      scanned.emplace_back(quantized_distance_sq(query, codes_[i]), i);
    ++probed;
  }

  if (scanned.size() > k) {
    // Total order (dist, idx): the selected set is unique, so nth_element
    // is deterministic even though it leaves the tail unordered.
    std::nth_element(scanned.begin(), scanned.begin() + k, scanned.end());
    scanned.resize(k);
  }
  std::vector<std::uint32_t> out;
  out.reserve(scanned.size());
  for (const auto& [unused_dist, i] : scanned) out.push_back(i);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace patchecko::retrieval
