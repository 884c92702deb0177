#include "retrieval/index.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/timer.h"

namespace patchecko::retrieval {
namespace {

// Accumulates member codes per dimension and emits the rounded mean code —
// the quantized-space analogue of a k-means centroid update. Ties round
// half-up via the +denominator/2 trick on non-negative sums, so the result
// is pure integer arithmetic and identical everywhere.
QuantizedVector mean_code(const std::vector<QuantizedVector>& codes,
                          const std::vector<std::uint32_t>& members) {
  QuantizedVector out;
  if (members.empty()) return out;
  const std::uint64_t n = members.size();
  for (std::size_t d = 0; d < static_feature_count; ++d) {
    std::uint64_t sum = 0;
    for (const std::uint32_t m : members) sum += codes[m].codes[d];
    out.codes[d] = static_cast<std::uint8_t>((sum + n / 2) / n);
  }
  return out;
}

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

std::string_view prefilter_mode_name(PrefilterMode mode) {
  switch (mode) {
    case PrefilterMode::on:
      return "on";
    case PrefilterMode::verify:
      return "verify";
    case PrefilterMode::off:
      break;
  }
  return "off";
}

std::optional<PrefilterMode> parse_prefilter_mode(std::string_view text) {
  if (text == "off") return PrefilterMode::off;
  if (text == "on") return PrefilterMode::on;
  if (text == "verify") return PrefilterMode::verify;
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

  if (n > 0) {
    std::size_t clusters = config.clusters;
    if (clusters == 0)
      clusters = static_cast<std::size_t>(
          std::ceil(std::sqrt(static_cast<double>(n))));
    clusters = std::clamp<std::size_t>(clusters, 1, n);

    // Farthest-point seeding from function 0: maximally spread, no RNG.
    // Ties (equal max-min distance) go to the lowest function index.
    //
    // Both loops below skip distances the triangle inequality settles
    // exactly. With d = sqrt(D), d(x,c) >= d(g,c) - d(x,g), so
    // D(g,c) >= 4 D(x,g) gives D(x,c) >= D(x,g): c cannot come strictly
    // closer to x than g. The test stays in integers.
    std::vector<QuantizedVector>& centroids = index.centroids_;
    centroids.push_back(index.codes_[0]);
    std::vector<std::uint32_t> min_dist(n);
    // nearest[i]: a centroid at distance min_dist[i] from function i.
    std::vector<std::uint32_t> nearest(n, 0);
    std::vector<std::uint32_t> to_added;
    for (std::size_t i = 0; i < n; ++i)
      min_dist[i] = quantized_distance_sq(index.codes_[i], centroids[0]);
    while (centroids.size() < clusters) {
      std::size_t far = 0;
      for (std::size_t i = 1; i < n; ++i)
        if (min_dist[i] > min_dist[far]) far = i;
      centroids.push_back(index.codes_[far]);
      const auto added = static_cast<std::uint32_t>(centroids.size() - 1);
      to_added.resize(centroids.size());
      for (std::size_t c = 0; c < centroids.size(); ++c)
        to_added[c] = quantized_distance_sq(centroids[c], centroids[added]);
      for (std::size_t i = 0; i < n; ++i) {
        // The added centroid cannot lower min_dist[i].
        if (to_added[nearest[i]] >= 4 * min_dist[i]) continue;
        const std::uint32_t dist =
            quantized_distance_sq(index.codes_[i], centroids[added]);
        if (dist < min_dist[i]) {
          min_dist[i] = dist;
          nearest[i] = added;
        }
      }
    }

    // A few Lloyd rounds sharpen the seeds; assignment and the rounded-mean
    // update are both deterministic, and empty clusters keep their previous
    // centroid so the cluster count never shrinks.
    std::vector<std::vector<std::uint32_t>>& lists = index.lists_;
    lists.assign(centroids.size(), {});
    std::vector<std::uint32_t> separation;
    for (std::size_t round = 0; round <= config.lloyd_iterations; ++round) {
      for (auto& list : lists) list.clear();
      centroid_separation(centroids, separation);
      for (std::uint32_t i = 0; i < n; ++i) {
        // nearest[i] is the last assignment (the seeding's at first). When
        // 4 D(x,g) < separation[g], the bound above holds strictly for
        // every other centroid, so g is the unique nearest: the centroid
        // the full scan returns.
        const std::uint32_t guess = nearest[i];
        if (4 * quantized_distance_sq(index.codes_[i], centroids[guess]) >=
            separation[guess])
          nearest[i] = nearest_centroid(index.codes_[i], centroids);
        lists[nearest[i]].push_back(i);
      }
      if (round == config.lloyd_iterations) break;  // final assignment stands
      for (std::size_t c = 0; c < centroids.size(); ++c)
        if (!lists[c].empty()) centroids[c] = mean_code(index.codes_, lists[c]);
    }
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
