// Tests for the stage-1 retrieval prefilter (src/retrieval): quantizer
// round-trip bounds, index build determinism (including across analyze
// worker counts), shortlist recall against the exact all-pairs scan on
// seeded synthetic corpora, top-K tie-break stability, and robustness on
// degenerate / adversarial inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "blob/blob_store.h"  // Digest
#include "core/pipeline.h"
#include "firmware/firmware.h"
#include "retrieval/index.h"
#include "retrieval/quantizer.h"
#include "retrieval/query_catalog.h"
#include "util/rng.h"

namespace patchecko {
namespace {

using retrieval::FunctionIndex;
using retrieval::IndexConfig;
using retrieval::QuantizedVector;

// --- synthetic feature corpora ---------------------------------------------
// Real Table-I features are heavy-tailed counts; model them as exp-uniform
// magnitudes grouped around cluster prototypes (functions from the same
// library family have similar shapes), with queries as noisy copies of
// corpus members — the shape a CVE reference takes relative to its target.

StaticFeatureVector random_feature_vector(Rng& rng) {
  StaticFeatureVector out{};
  for (double& value : out)
    value = std::floor(std::exp(rng.uniform_real(0.0, 9.0)));
  return out;
}

std::vector<StaticFeatureVector> clustered_corpus(std::size_t n,
                                                  std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t prototypes = std::max<std::size_t>(n / 40, 4);
  std::vector<StaticFeatureVector> centers;
  for (std::size_t c = 0; c < prototypes; ++c)
    centers.push_back(random_feature_vector(rng));
  std::vector<StaticFeatureVector> corpus;
  corpus.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    StaticFeatureVector vec = rng.pick(centers);
    for (double& value : vec)
      value = std::floor(value * rng.uniform_real(0.7, 1.4));
    corpus.push_back(vec);
  }
  return corpus;
}

StaticFeatureVector noisy_copy(const StaticFeatureVector& base, Rng& rng) {
  StaticFeatureVector out = base;
  for (double& value : out)
    value = std::floor(value * rng.uniform_real(0.85, 1.2));
  return out;
}

/// Exact top-K under the index's own metric: (quantized distance, index)
/// total order, result sorted ascending by index — the ground truth the
/// approximate shortlist is measured against.
std::vector<std::uint32_t> exact_top_k(
    const std::vector<StaticFeatureVector>& corpus,
    const StaticFeatureVector& query, std::size_t k) {
  const QuantizedVector query_code = retrieval::quantize(query);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> scored;
  scored.reserve(corpus.size());
  for (std::uint32_t i = 0; i < corpus.size(); ++i)
    scored.emplace_back(retrieval::quantized_distance_sq(
                            query_code, retrieval::quantize(corpus[i])),
                        i);
  std::sort(scored.begin(), scored.end());
  std::vector<std::uint32_t> out;
  for (std::size_t i = 0; i < std::min(k, scored.size()); ++i)
    out.push_back(scored[i].second);
  std::sort(out.begin(), out.end());
  return out;
}

void expect_valid_shortlist(const std::vector<std::uint32_t>& shortlist,
                            std::size_t corpus_size, std::size_t k) {
  EXPECT_LE(shortlist.size(), std::min(k, corpus_size));
  EXPECT_TRUE(std::is_sorted(shortlist.begin(), shortlist.end()));
  const std::set<std::uint32_t> unique(shortlist.begin(), shortlist.end());
  EXPECT_EQ(unique.size(), shortlist.size()) << "duplicate indices";
  for (const std::uint32_t index : shortlist) EXPECT_LT(index, corpus_size);
}

// --- quantizer --------------------------------------------------------------

TEST(Quantizer, RoundTripBoundHoldsInCompressedSpace) {
  Rng rng(7);
  for (int trial = 0; trial < 20000; ++trial) {
    // Log-uniform magnitudes across the whole grid, both signs, plus zero.
    double value;
    if (trial % 50 == 0) {
      value = 0.0;
    } else {
      const double magnitude =
          std::expm1(rng.uniform_real(0.0, retrieval::kGridHi));
      value = rng.chance(0.5) ? -magnitude : magnitude;
    }
    const double compressed = retrieval::compress_feature(value);
    ASSERT_GE(compressed, retrieval::kGridLo);
    ASSERT_LE(compressed, retrieval::kGridHi);
    const std::uint8_t code = retrieval::quantize_feature(value);
    const double recovered =
        retrieval::compress_feature(retrieval::dequantize_feature(code));
    EXPECT_LE(std::fabs(recovered - compressed),
              retrieval::kGridStep / 2 + 1e-9)
        << "value=" << value;
  }
}

TEST(Quantizer, ClampsOutsideGridAndAbsorbsNonFinite) {
  EXPECT_EQ(retrieval::quantize_feature(1e300), 255);
  EXPECT_EQ(retrieval::quantize_feature(-1e300), 0);
  EXPECT_EQ(
      retrieval::quantize_feature(std::numeric_limits<double>::infinity()),
      255);
  EXPECT_EQ(
      retrieval::quantize_feature(-std::numeric_limits<double>::infinity()),
      0);
  // NaN maps to the same code as zero: degenerate features cluster together
  // instead of poisoning distances.
  EXPECT_EQ(
      retrieval::quantize_feature(std::numeric_limits<double>::quiet_NaN()),
      retrieval::quantize_feature(0.0));
}

TEST(Quantizer, CodesAreMonotonicInTheInput) {
  Rng rng(11);
  std::vector<double> values{0.0};
  for (int i = 0; i < 2000; ++i) {
    const double magnitude = std::expm1(rng.uniform_real(0.0, 15.0));
    values.push_back(magnitude);
    values.push_back(-magnitude);
  }
  std::sort(values.begin(), values.end());
  for (std::size_t i = 1; i < values.size(); ++i)
    EXPECT_LE(retrieval::quantize_feature(values[i - 1]),
              retrieval::quantize_feature(values[i]));
}

TEST(Quantizer, DistanceIsAnExactSquaredMetric) {
  Rng rng(13);
  for (int trial = 0; trial < 500; ++trial) {
    const QuantizedVector a = retrieval::quantize(random_feature_vector(rng));
    const QuantizedVector b = retrieval::quantize(random_feature_vector(rng));
    EXPECT_EQ(retrieval::quantized_distance_sq(a, a), 0u);
    EXPECT_EQ(retrieval::quantized_distance_sq(a, b),
              retrieval::quantized_distance_sq(b, a));
    std::uint32_t expected = 0;
    for (std::size_t d = 0; d < static_feature_count; ++d) {
      const std::int32_t delta = static_cast<std::int32_t>(a.codes[d]) -
                                 static_cast<std::int32_t>(b.codes[d]);
      expected += static_cast<std::uint32_t>(delta * delta);
    }
    EXPECT_EQ(retrieval::quantized_distance_sq(a, b), expected);
  }
}

// --- index build determinism ------------------------------------------------

TEST(Index, IdenticalInputsProduceIdenticalIndexAndShortlists) {
  const auto corpus = clustered_corpus(600, 17);
  const FunctionIndex first = FunctionIndex::build(corpus);
  const FunctionIndex second = FunctionIndex::build(corpus);
  ASSERT_EQ(first.size(), second.size());
  ASSERT_EQ(first.cluster_count(), second.cluster_count());
  for (std::size_t i = 0; i < first.size(); ++i)
    EXPECT_EQ(first.code(i), second.code(i));
  Rng rng(23);
  for (int q = 0; q < 32; ++q) {
    const StaticFeatureVector query = random_feature_vector(rng);
    EXPECT_EQ(first.top_k(query, 16), second.top_k(query, 16));
  }
}

TEST(Index, BuildIsIndependentOfAnalyzeWorkerCount) {
  // The engine builds the index over features extracted at any --jobs value;
  // the shortlists (and the stored codes) must not depend on thread count.
  EvalConfig eval;
  eval.scale = 0.03;
  const EvalCorpus corpus(eval);
  const LibraryBinary library =
      corpus.compile_for_device(0, android_things_device());
  AnalyzedLibrary sequential = analyze_library(library, /*worker_threads=*/1);
  AnalyzedLibrary parallel = analyze_library(library, /*worker_threads=*/4);
  ensure_retrieval_index(sequential);
  ensure_retrieval_index(parallel);
  ASSERT_NE(sequential.index, nullptr);
  ASSERT_NE(parallel.index, nullptr);
  ASSERT_EQ(sequential.index->size(), parallel.index->size());
  ASSERT_EQ(sequential.index->size(), sequential.features.size());
  for (std::size_t i = 0; i < sequential.index->size(); ++i)
    EXPECT_EQ(sequential.index->code(i), parallel.index->code(i));
  for (std::size_t i = 0; i < sequential.features.size(); ++i)
    EXPECT_EQ(sequential.index->top_k(sequential.features[i], 8),
              parallel.index->top_k(parallel.features[i], 8));
}

// Recorded from the index build that ran every seeding and assignment
// distance; the triangle-inequality skips must not change a single list.
TEST(Index, ShortlistsMatchRecordedDigest) {
  Digest digest;
  const auto absorb_shortlists = [&](const FunctionIndex& index,
                                     const std::vector<StaticFeatureVector>&
                                         queries) {
    digest.absorb_u64(index.cluster_count());
    for (const StaticFeatureVector& query : queries) {
      const std::vector<std::uint32_t> shortlist = index.top_k(query, 16);
      digest.absorb_u64(shortlist.size());
      for (const std::uint32_t i : shortlist) digest.absorb_u64(i);
    }
  };

  // Synthetic corpora at the default, one, and many clusters, plus one
  // with every vector duplicated (equal centroids, tied distances).
  const std::vector<StaticFeatureVector> half = clustered_corpus(300, 37);
  std::vector<StaticFeatureVector> duplicated = half;
  duplicated.insert(duplicated.end(), half.begin(), half.end());
  for (const auto& corpus : {clustered_corpus(3000, 31), duplicated}) {
    Rng rng(41);
    std::vector<StaticFeatureVector> queries;
    for (int q = 0; q < 48; ++q) {
      queries.push_back(random_feature_vector(rng));
      queries.push_back(noisy_copy(rng.pick(corpus), rng));
    }
    for (const std::size_t clusters :
         {std::size_t{0}, std::size_t{1}, std::size_t{400}}) {
      IndexConfig config;
      config.clusters = clusters;
      absorb_shortlists(FunctionIndex::build(corpus, config), queries);
    }
  }

  // Real features: every library of a Things image, each function a query.
  EvalConfig eval;
  eval.scale = 0.1;
  eval.seed = 1;
  const FirmwareImage image =
      EvalCorpus(eval).build_firmware(android_things_device());
  for (const LibraryBinary& library : image.libraries) {
    AnalyzedLibrary analyzed = analyze_library(library, 1);
    ensure_retrieval_index(analyzed);
    absorb_shortlists(*analyzed.index, analyzed.features);
  }
  EXPECT_EQ(digest.hex(), "390fc7a2a05fb982cf99863ea117f48c");
}

// --- recall vs exact all-pairs ----------------------------------------------

TEST(Index, RecallAgainstExactTopKExceeds99Percent) {
  constexpr std::size_t kTopK = 32;
  for (const std::size_t scale : {std::size_t{300}, std::size_t{1000},
                                  std::size_t{2500}}) {
    for (const std::uint64_t seed :
         {std::uint64_t{101}, std::uint64_t{202}, std::uint64_t{303}}) {
      const auto corpus = clustered_corpus(scale, seed);
      const FunctionIndex index = FunctionIndex::build(corpus);
      Rng rng(seed * 7 + 1);
      std::size_t recalled = 0, expected = 0;
      for (int q = 0; q < 40; ++q) {
        const std::size_t base = static_cast<std::size_t>(
            rng.uniform(0, static_cast<std::int64_t>(scale) - 1));
        const StaticFeatureVector query = noisy_copy(corpus[base], rng);
        const auto exact = exact_top_k(corpus, query, kTopK);
        const auto shortlist = index.top_k(query, kTopK);
        expect_valid_shortlist(shortlist, scale, kTopK);
        expected += exact.size();
        for (const std::uint32_t i : exact)
          if (std::binary_search(shortlist.begin(), shortlist.end(), i))
            ++recalled;
      }
      const double recall =
          static_cast<double>(recalled) / static_cast<double>(expected);
      EXPECT_GE(recall, 0.99)
          << "scale=" << scale << " seed=" << seed << " recall=" << recall;
    }
  }
}

// --- tie-breaks and edge cases ----------------------------------------------

TEST(Index, TiesBreakTowardLowestFunctionIndex) {
  // All-identical corpus: every distance ties, so top-K must be exactly the
  // K lowest indices — the same candidates the exact scan visits first.
  Rng rng(31);
  const std::vector<StaticFeatureVector> same(100, random_feature_vector(rng));
  const FunctionIndex index = FunctionIndex::build(same);
  const auto shortlist = index.top_k(same.front(), 10);
  ASSERT_EQ(shortlist.size(), 10u);
  for (std::uint32_t i = 0; i < 10; ++i) EXPECT_EQ(shortlist[i], i);

  // Two interleaved duplicate groups: the shortlist must prefer the nearer
  // group and, within it, the lowest indices.
  const StaticFeatureVector near_vec = random_feature_vector(rng);
  StaticFeatureVector far_vec = near_vec;
  for (double& value : far_vec) value = value * 8 + 1000;
  std::vector<StaticFeatureVector> mixed;
  for (int i = 0; i < 40; ++i)
    mixed.push_back(i % 2 == 0 ? near_vec : far_vec);
  const FunctionIndex mixed_index = FunctionIndex::build(mixed);
  const auto nearest = mixed_index.top_k(near_vec, 8);
  ASSERT_EQ(nearest.size(), 8u);
  for (std::uint32_t i = 0; i < 8; ++i) EXPECT_EQ(nearest[i], i * 2);
}

TEST(Index, EmptyAndDegenerateCorporaBehave) {
  const FunctionIndex empty = FunctionIndex::build({});
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_TRUE(empty.top_k(StaticFeatureVector{}, 5).empty());
  EXPECT_EQ(empty.stats().clusters, 0u);

  const FunctionIndex single = FunctionIndex::build({StaticFeatureVector{}});
  EXPECT_EQ(single.size(), 1u);
  EXPECT_EQ(single.top_k(StaticFeatureVector{}, 5),
            std::vector<std::uint32_t>{0});
  EXPECT_TRUE(single.top_k(StaticFeatureVector{}, 0).empty());

  // k >= n returns every index, ascending.
  const auto corpus = clustered_corpus(12, 41);
  const FunctionIndex small = FunctionIndex::build(corpus);
  const auto all = small.top_k(corpus.front(), 50);
  ASSERT_EQ(all.size(), 12u);
  for (std::uint32_t i = 0; i < 12; ++i) EXPECT_EQ(all[i], i);
}

TEST(Index, AdversarialVectorsNeverCrashOrEscapeRange) {
  Rng rng(43);
  std::vector<std::vector<StaticFeatureVector>> corpora;

  // Extreme magnitudes (clamped to the grid edges): huge, tiny, and
  // sign-alternating patterns.
  std::vector<StaticFeatureVector> extreme;
  for (int i = 0; i < 64; ++i) {
    StaticFeatureVector vec{};
    for (std::size_t d = 0; d < static_feature_count; ++d) {
      const double magnitude = (d + i) % 3 == 0   ? 1e300
                               : (d + i) % 3 == 1 ? 1e-300
                                                  : 0.0;
      vec[d] = (d + i) % 2 == 0 ? magnitude : -magnitude;
    }
    extreme.push_back(vec);
  }
  corpora.push_back(std::move(extreme));
  corpora.push_back(
      std::vector<StaticFeatureVector>(200, random_feature_vector(rng)));
  corpora.push_back({random_feature_vector(rng)});  // single function

  for (const auto& corpus : corpora) {
    for (const std::size_t clusters :
         {std::size_t{0}, std::size_t{1}, std::size_t{1000}}) {
      IndexConfig config;
      config.clusters = clusters;
      const FunctionIndex index = FunctionIndex::build(corpus, config);
      EXPECT_EQ(index.size(), corpus.size());
      EXPECT_LE(index.cluster_count(), corpus.size());
      for (const std::size_t k : {std::size_t{0}, std::size_t{1},
                                  std::size_t{16}, corpus.size() + 7}) {
        expect_valid_shortlist(index.top_k(corpus.front(), k), corpus.size(),
                               k);
        expect_valid_shortlist(index.top_k(random_feature_vector(rng), k),
                               corpus.size(), k);
      }
    }
  }
}

// --- distinct-code build vs per-function reference --------------------------

/// The index as a per-function build produces it: farthest-point seeding,
/// Lloyd rounds and the final lists over every function's code, each
/// distance computed in full, centroids the rounded member mean. The
/// distinct-code build must equal it exactly.
struct ReferenceIndex {
  std::vector<QuantizedVector> codes;
  std::vector<QuantizedVector> centroids;
  std::vector<std::vector<std::uint32_t>> lists;

  ReferenceIndex(const std::vector<StaticFeatureVector>& features,
                 const IndexConfig& config) {
    for (const StaticFeatureVector& vec : features)
      codes.push_back(retrieval::quantize(vec));
    const std::size_t n = codes.size();
    if (n == 0) return;
    std::size_t clusters = config.clusters;
    if (clusters == 0)
      clusters = static_cast<std::size_t>(
          std::ceil(std::sqrt(static_cast<double>(n))));
    clusters = std::clamp<std::size_t>(clusters, 1, n);
    centroids.push_back(codes[0]);
    std::vector<std::uint32_t> min_dist(n);
    for (std::size_t i = 0; i < n; ++i)
      min_dist[i] = retrieval::quantized_distance_sq(codes[i], centroids[0]);
    while (centroids.size() < clusters) {
      std::size_t far = 0;
      for (std::size_t i = 1; i < n; ++i)
        if (min_dist[i] > min_dist[far]) far = i;
      centroids.push_back(codes[far]);
      for (std::size_t i = 0; i < n; ++i)
        min_dist[i] = std::min(min_dist[i], retrieval::quantized_distance_sq(
                                                codes[i], centroids.back()));
    }
    for (std::size_t round = 0; round <= config.lloyd_iterations; ++round) {
      lists.assign(centroids.size(), {});
      for (std::uint32_t i = 0; i < n; ++i) {
        std::uint32_t best = 0;
        std::uint32_t best_dist =
            retrieval::quantized_distance_sq(codes[i], centroids[0]);
        for (std::uint32_t c = 1; c < centroids.size(); ++c) {
          const std::uint32_t dist =
              retrieval::quantized_distance_sq(codes[i], centroids[c]);
          if (dist < best_dist) {
            best = c;
            best_dist = dist;
          }
        }
        lists[best].push_back(i);
      }
      if (round == config.lloyd_iterations) break;
      for (std::size_t c = 0; c < centroids.size(); ++c) {
        const std::uint64_t members = lists[c].size();
        if (members == 0) continue;
        for (std::size_t d = 0; d < static_feature_count; ++d) {
          std::uint64_t sum = 0;
          for (const std::uint32_t m : lists[c]) sum += codes[m].codes[d];
          centroids[c].codes[d] =
              static_cast<std::uint8_t>((sum + members / 2) / members);
        }
      }
    }
  }

  /// FunctionIndex::top_k's probe and selection over this index.
  std::vector<std::uint32_t> top_k(const QuantizedVector& query,
                                   std::size_t k,
                                   const IndexConfig& config) const {
    if (k == 0 || codes.empty()) return {};
    std::vector<std::pair<std::uint32_t, std::uint32_t>> order;
    for (std::uint32_t c = 0; c < centroids.size(); ++c)
      order.emplace_back(retrieval::quantized_distance_sq(query, centroids[c]),
                         c);
    std::sort(order.begin(), order.end());
    const std::size_t budget = k * config.probe_budget_factor;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> scanned;
    std::size_t probed = 0;
    for (const auto& [unused_dist, c] : order) {
      if (probed >= config.min_probe_clusters && scanned.size() >= budget)
        break;
      for (const std::uint32_t i : lists[c])
        scanned.emplace_back(retrieval::quantized_distance_sq(query, codes[i]),
                             i);
      ++probed;
    }
    std::sort(scanned.begin(), scanned.end());
    if (scanned.size() > k) scanned.resize(k);
    std::vector<std::uint32_t> out;
    for (const auto& [unused_dist, i] : scanned) out.push_back(i);
    std::sort(out.begin(), out.end());
    return out;
  }
};

/// Centroids, lists and shortlists of `features` equal the reference's.
void expect_matches_reference(const std::vector<StaticFeatureVector>& features,
                              const IndexConfig& config,
                              const std::vector<StaticFeatureVector>& queries,
                              const std::string& where) {
  const FunctionIndex index = FunctionIndex::build(features, config);
  const ReferenceIndex reference(features, config);
  ASSERT_EQ(index.cluster_count(), reference.centroids.size()) << where;
  for (std::size_t c = 0; c < index.cluster_count(); ++c) {
    EXPECT_EQ(index.centroid(c), reference.centroids[c]) << where << " c=" << c;
    EXPECT_EQ(index.list(c), reference.lists[c]) << where << " c=" << c;
  }
  for (const StaticFeatureVector& query : queries) {
    const QuantizedVector code = retrieval::quantize(query);
    for (const std::size_t k : {std::size_t{1}, std::size_t{16},
                                std::size_t{32}})
      EXPECT_EQ(index.top_k(code, k), reference.top_k(code, k, config))
          << where << " k=" << k;
  }
}

TEST(Retrieval, DistinctCodeBuildMatchesPerFunctionBuild) {
  // Real features: every library of a Things image, each function a query.
  EvalConfig eval;
  eval.scale = 0.05;
  eval.seed = 2;
  const FirmwareImage image =
      EvalCorpus(eval).build_firmware(android_things_device());
  std::size_t functions = 0, distinct = 0;
  for (const LibraryBinary& library : image.libraries) {
    const AnalyzedLibrary analyzed = analyze_library(library);
    const FunctionIndex index = FunctionIndex::build(analyzed.features);
    functions += index.stats().vectors;
    distinct += index.stats().distinct_codes;
    expect_matches_reference(analyzed.features, IndexConfig{},
                             analyzed.features, library.name);
  }
  EXPECT_LT(distinct, functions);  // real libraries repeat codes

  // Heavily duplicated: 2400 functions over 60 prototypes, each copied
  // exactly or with one feature nudged by far less than a code step, so
  // about 60 codes cover 2400 functions (and many distinct vectors share
  // a code). Cluster counts below, at and above the distinct count.
  Rng rng(53);
  std::vector<StaticFeatureVector> prototypes;
  for (int p = 0; p < 60; ++p) prototypes.push_back(random_feature_vector(rng));
  std::vector<StaticFeatureVector> duplicated;
  for (int i = 0; i < 2400; ++i) {
    StaticFeatureVector vec = rng.pick(prototypes);
    if (i % 3 == 0) vec[i % static_feature_count] *= 1.0001;
    duplicated.push_back(vec);
  }
  const FunctionIndex heavy = FunctionIndex::build(duplicated);
  EXPECT_GE(heavy.stats().distinct_codes, 60u);
  EXPECT_LT(heavy.stats().distinct_codes, 120u);
  std::vector<StaticFeatureVector> queries;
  for (int q = 0; q < 40; ++q) {
    queries.push_back(random_feature_vector(rng));
    queries.push_back(noisy_copy(rng.pick(prototypes), rng));
  }
  for (const std::size_t clusters :
       {std::size_t{0}, std::size_t{7}, std::size_t{60}, std::size_t{200}}) {
    IndexConfig config;
    config.clusters = clusters;
    expect_matches_reference(duplicated, config, queries,
                             "duplicated clusters=" + std::to_string(clusters));
  }
}

// --- query catalog -----------------------------------------------------------

TEST(QueryCatalog, FindsEntriesByIdAndMatchesDirectQuantization) {
  EvalConfig eval;
  eval.scale = 0.03;
  const EvalCorpus corpus(eval);
  const CveDatabase database(corpus, DatabaseConfig{});
  const retrieval::QueryCatalog catalog = build_query_catalog(database);
  ASSERT_EQ(catalog.entries.size(), database.entries().size());
  EXPECT_GT(catalog.memory_bytes(), 0u);
  for (const CveEntry& entry : database.entries()) {
    const auto* found = catalog.find(entry.spec.cve_id);
    ASSERT_NE(found, nullptr) << entry.spec.cve_id;
    EXPECT_EQ(found->vulnerable,
              retrieval::quantize(entry.vulnerable_features));
    EXPECT_EQ(found->patched, retrieval::quantize(entry.patched_features));
  }
  EXPECT_EQ(catalog.find("CVE-0000-0000"), nullptr);
}

}  // namespace
}  // namespace patchecko
