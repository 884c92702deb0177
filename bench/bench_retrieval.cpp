// Stage-1 retrieval acceptance bench: exact all-pairs NN scoring vs the
// quantized shortlist prefilter, at corpus scales spanning 100x.
//
// For each scale N the bench builds a clustered synthetic feature corpus
// (heavy-tailed counts around library-family prototypes — the shape real
// Table-I features take), indexes it, and measures per query:
//
//   exact:      the trained similarity network scores each distinct
//               feature vector of the N functions through one QueryScorer
//               per query, a tile at a time — what detect() does with the
//               prefilter off;
//   prefilter:  index.top_k(query, K) probe + K network scores through the
//               same scorer — what detect() does with the prefilter on.
//
// Recall is the fraction of the exact quantized top-K found in the
// shortlist (the index's contract; an `on` scan's decision records read
// against an `off` scan's show the same loss on real scans). The bench FAILS (nonzero exit) unless
// the largest scale shows >= 10x stage-1 speedup and every row holds
// >= 99% recall. Scales shrink under PATCHECKO_SCALE < 1 for fast CI runs.
//
// The `nN` corpora never repeat a vector. Real libraries do: 13,324 and
// 12,579 of the 31,436 functions of the scale-1.0 Things and Pixel images
// are distinct. The `nN_repeats` row keeps that share at the middle scale,
// so its exact path and index build show the work a real scan does.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "harness.h"
#include "retrieval/index.h"
#include "retrieval/quantizer.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/timer.h"

using namespace patchecko;

namespace {

constexpr std::size_t kTopK = 32;
constexpr int kQueries = 8;
constexpr double kRealDistinctShare = 0.41;

StaticFeatureVector random_feature_vector(Rng& rng) {
  StaticFeatureVector out{};
  for (double& value : out)
    value = std::floor(std::exp(rng.uniform_real(0.0, 9.0)));
  return out;
}

/// `distinct_share` of the n vectors are drawn around the prototypes; the
/// rest repeat one of those, as identical small functions do.
std::vector<StaticFeatureVector> clustered_corpus(std::size_t n,
                                                  std::uint64_t seed,
                                                  double distinct_share) {
  Rng rng(seed);
  const std::size_t distinct = std::max<std::size_t>(
      static_cast<std::size_t>(static_cast<double>(n) * distinct_share), 1);
  const std::size_t prototypes = std::max<std::size_t>(distinct / 40, 4);
  std::vector<StaticFeatureVector> centers;
  for (std::size_t c = 0; c < prototypes; ++c)
    centers.push_back(random_feature_vector(rng));
  std::vector<StaticFeatureVector> corpus;
  corpus.reserve(n);
  for (std::size_t i = 0; i < distinct; ++i) {
    StaticFeatureVector vec = rng.pick(centers);
    for (double& value : vec)
      value = std::floor(value * rng.uniform_real(0.7, 1.4));
    corpus.push_back(vec);
  }
  while (corpus.size() < n)
    corpus.push_back(
        corpus[static_cast<std::size_t>(rng.uniform(
            0, static_cast<std::int64_t>(distinct) - 1))]);
  return corpus;
}

/// Exact top-K under the index metric: ground truth for recall.
std::vector<std::uint32_t> exact_top_k(
    const std::vector<retrieval::QuantizedVector>& codes,
    const retrieval::QuantizedVector& query, std::size_t k) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> scored;
  scored.reserve(codes.size());
  for (std::uint32_t i = 0; i < codes.size(); ++i)
    scored.emplace_back(retrieval::quantized_distance_sq(query, codes[i]), i);
  const std::size_t take = std::min(k, scored.size());
  std::partial_sort(scored.begin(), scored.begin() + take, scored.end());
  std::vector<std::uint32_t> out;
  for (std::size_t i = 0; i < take; ++i) out.push_back(scored[i].second);
  std::sort(out.begin(), out.end());
  return out;
}

/// Sum of the scores of corpus[rows] against `query`, through one
/// QueryScorer a tile at a time, as detect() scores.
float score_rows(const SimilarityModel& model, const StaticFeatureVector& query,
                 const std::vector<StaticFeatureVector>& corpus,
                 const std::vector<std::uint32_t>& rows) {
  QueryScorer scorer(model, query);
  std::array<const StaticFeatureVector*, QueryScorer::kTile> tile{};
  std::array<float, QueryScorer::kTile> scores{};
  float sum = 0.0f;
  for (std::size_t j = 0; j < rows.size(); j += tile.size()) {
    const std::size_t n = std::min(tile.size(), rows.size() - j);
    for (std::size_t k = 0; k < n; ++k) tile[k] = &corpus[rows[j + k]];
    scorer.score_batch({tile.data(), n}, {scores.data(), n});
    for (std::size_t k = 0; k < n; ++k) sum += scores[k];
  }
  return sum;
}

struct ScaleResult {
  std::string name;
  std::size_t n = 0;
  std::size_t distinct_codes = 0;
  double exact_ms_per_query = 0.0;
  double prefilter_ms_per_query = 0.0;
  double speedup = 0.0;
  double recall = 0.0;
  double index_build_ms = 0.0;
  double index_mb = 0.0;
};

ScaleResult run_scale(const SimilarityModel& model, std::size_t n,
                      std::uint64_t seed, double distinct_share = 1.0) {
  ScaleResult result;
  char name[40];
  std::snprintf(name, sizeof(name), "n%zu%s", n,
                distinct_share < 1.0 ? "_repeats" : "");
  result.name = name;
  result.n = n;
  const std::vector<StaticFeatureVector> corpus =
      clustered_corpus(n, seed, distinct_share);
  const retrieval::FunctionIndex index = retrieval::FunctionIndex::build(corpus);
  result.index_build_ms = index.stats().build_seconds * 1e3;
  result.distinct_codes = index.stats().distinct_codes;
  // Built once per library in a scan, so outside the per-query timer.
  const FeatureClasses classes = classify_by_bytes(corpus);
  result.index_mb =
      static_cast<double>(index.stats().memory_bytes) / (1024.0 * 1024.0);

  std::vector<retrieval::QuantizedVector> codes;
  codes.reserve(n);
  for (const StaticFeatureVector& vec : corpus)
    codes.push_back(retrieval::quantize(vec));

  Rng rng(seed * 31 + 5);
  std::vector<StaticFeatureVector> queries;
  for (int q = 0; q < kQueries; ++q) {
    StaticFeatureVector query =
        corpus[static_cast<std::size_t>(rng.uniform(0, n - 1))];
    for (double& value : query)
      value = std::floor(value * rng.uniform_real(0.85, 1.2));
    queries.push_back(query);
  }

  // `sink` defeats dead-code elimination of the score loops.
  volatile float sink = 0.0f;

  Stopwatch timer;
  for (const StaticFeatureVector& query : queries)
    sink = sink + score_rows(model, query, corpus, classes.representatives);
  result.exact_ms_per_query = timer.elapsed_seconds() * 1e3 / kQueries;

  std::size_t recalled = 0, expected = 0;
  timer.restart();
  for (const StaticFeatureVector& query : queries) {
    sink = sink + score_rows(model, query, corpus, index.top_k(query, kTopK));
  }
  result.prefilter_ms_per_query = timer.elapsed_seconds() * 1e3 / kQueries;
  result.speedup = result.exact_ms_per_query / result.prefilter_ms_per_query;

  // Recall measured outside the timers: the shortlist must contain the
  // exact quantized top-K.
  for (const StaticFeatureVector& query : queries) {
    const retrieval::QuantizedVector code = retrieval::quantize(query);
    const std::vector<std::uint32_t> shortlist = index.top_k(code, kTopK);
    const std::vector<std::uint32_t> exact = exact_top_k(codes, code, kTopK);
    expected += exact.size();
    for (const std::uint32_t i : exact)
      if (std::binary_search(shortlist.begin(), shortlist.end(), i))
        ++recalled;
  }
  result.recall =
      expected == 0 ? 1.0
                    : static_cast<double>(recalled) /
                          static_cast<double>(expected);
  (void)sink;
  return result;
}

}  // namespace

int main() {
  const Stopwatch setup_watch;
  const SimilarityModel& model = bench::shared_model();
  const double setup_seconds = setup_watch.elapsed_seconds();

  double scale = 1.0;
  if (const char* env = std::getenv("PATCHECKO_SCALE"))
    scale = std::atof(env) > 0 ? std::atof(env) : 1.0;
  const auto scaled = [scale](std::size_t n) {
    return std::max<std::size_t>(static_cast<std::size_t>(n * scale), 256);
  };
  // 1x / 10x / 100x: sub-linearity shows as speedup growing with N.
  const std::vector<std::size_t> sizes{scaled(1000), scaled(10000),
                                       scaled(100000)};

  std::printf("=== Stage-1 retrieval: exact all-pairs vs top-%zu prefilter ===\n",
              kTopK);
  TextTable table({"row", "distinct codes", "exact ms/q",
                   "prefilter ms/q", "speedup", "recall", "build ms",
                   "index MB"});
  std::vector<bench::BenchRow> rows;
  std::vector<ScaleResult> results;
  for (std::size_t i = 0; i < sizes.size(); ++i)
    results.push_back(run_scale(model, sizes[i], 97 + i));
  results.push_back(run_scale(model, sizes[1], 97 + sizes.size(),
                              kRealDistinctShare));
  for (const ScaleResult& r : results) {
    table.add_row({r.name, std::to_string(r.distinct_codes),
                   fmt_double(r.exact_ms_per_query, 2),
                   fmt_double(r.prefilter_ms_per_query, 3),
                   fmt_double(r.speedup, 1) + "x", fmt_double(r.recall, 4),
                   fmt_double(r.index_build_ms, 1),
                   fmt_double(r.index_mb, 2)});
    rows.emplace_back(r.name,
                      std::vector<std::pair<std::string, double>>{
                          {"distinct_codes",
                           static_cast<double>(r.distinct_codes)},
                          {"exact_ms_per_query", r.exact_ms_per_query},
                          {"prefilter_ms_per_query", r.prefilter_ms_per_query},
                          {"speedup", r.speedup},
                          {"recall", r.recall},
                          {"index_build_ms", r.index_build_ms}});
  }
  std::printf("%s\n", table.render().c_str());

  // Setup note: model acquisition cost (trained cold or served from the
  // harness disk cache) — recorded so setup-cost changes are visible in
  // the bench trajectory alongside the per-scale rows.
  rows.emplace_back("setup", std::vector<std::pair<std::string, double>>{
                                 {"model_seconds", setup_seconds}});

  bool ok = bench::write_bench_json("retrieval", rows, {"speedup", "recall"});
  for (const ScaleResult& r : results) {
    if (r.recall < 0.99) {
      std::printf("FAIL: recall %.4f < 0.99 at %s\n", r.recall,
                  r.name.c_str());
      ok = false;
    }
  }
  const ScaleResult& largest = results[sizes.size() - 1];
  if (largest.speedup < 10.0) {
    std::printf("FAIL: stage-1 speedup %.1fx < 10x at n=%zu\n",
                largest.speedup, largest.n);
    ok = false;
  }
  if (ok)
    std::printf(
        "stage-1 speedup %.1fx at n=%zu with %.2f%% recall; prefilter cost "
        "stays flat while the exact scan grows linearly.\n",
        largest.speedup, largest.n, largest.recall * 100.0);
  return ok ? 0 : 1;
}
