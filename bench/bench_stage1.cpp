// Stage-1 kernel bench: the cost of one scored (query, target) pair.
//
// The target is a real library: CVE-2018-9498's host library compiled for
// the Android Things device at PATCHECKO_SCALE, scored on one representative
// per distinct feature vector, as the exact scan does. The query batch is
// the database's first kQueryEntries CVE entries in both directions
// (vulnerable and patched features). Each query scores the representatives the way
// Patchecko::detect does: one QueryScorer per stage1_chunk_pairs chunk,
// then score_batch over the chunk.
//
// Rows:
//   batch:  ns per pair through score_batch (median and minimum of the
//           repeats), the pair count, and `mismatches`: pairs whose score
//           bits differ from Network::predict on the two ordered 96-wide
//           rows, averaged — the model's definition. The bench FAILS
//           (nonzero exit) on any mismatch.
//   single: ns per pair through score(), one target per call (a batch of
//           one), for the callers that score a lone pair.
//   setup:  model acquisition and library build seconds (untimed above).
//
// It also prints an FNV-1a digest of every score's bits in order, so two
// builds' runs can be checked for identical scores with `grep digest`.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "harness.h"
#include "util/timer.h"

using namespace patchecko;

namespace {

constexpr int kRepeats = 11;
constexpr std::size_t kQueryEntries = 8;

/// The exact scan's stage 1 for one query: chunks of stage1_chunk_pairs
/// with a scorer each, every chunk scored as one batch.
void score_query(const SimilarityModel& model, const StaticFeatureVector& query,
                 const std::vector<const StaticFeatureVector*>& targets,
                 float* out) {
  for (std::size_t begin = 0; begin < targets.size();
       begin += stage1_chunk_pairs) {
    const std::size_t n = std::min(stage1_chunk_pairs, targets.size() - begin);
    QueryScorer scorer(model, query);
    scorer.score_batch({targets.data() + begin, n}, {out + begin, n});
  }
}

/// SimilarityModel::score by its definition: both ordered rows through
/// Network::predict, averaged.
std::vector<float> reference_scores(
    const SimilarityModel& model, const StaticFeatureVector& query,
    const std::vector<const StaticFeatureVector*>& targets) {
  constexpr std::size_t n = static_feature_count;
  const StaticFeatureVector q = model.normalizer().transform(query);
  Matrix x(2 * targets.size(), 2 * n);
  for (std::size_t k = 0; k < targets.size(); ++k) {
    const StaticFeatureVector t = model.normalizer().transform(*targets[k]);
    for (std::size_t i = 0; i < n; ++i) {
      x.at(2 * k, i) = static_cast<float>(q[i]);
      x.at(2 * k, n + i) = static_cast<float>(t[i]);
      x.at(2 * k + 1, i) = static_cast<float>(t[i]);
      x.at(2 * k + 1, n + i) = static_cast<float>(q[i]);
    }
  }
  const std::vector<float> p = model.network().predict(x);
  std::vector<float> out(targets.size());
  for (std::size_t k = 0; k < targets.size(); ++k)
    out[k] = 0.5f * (p[2 * k] + p[2 * k + 1]);
  return out;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

std::uint32_t fnv1a(std::uint32_t hash, float value) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  for (int byte = 0; byte < 4; ++byte) {
    hash ^= (bits >> (8 * byte)) & 0xffu;
    hash *= 16777619u;
  }
  return hash;
}

}  // namespace

int main() {
  const Stopwatch model_watch;
  const SimilarityModel& model = bench::shared_model();
  const double model_seconds = model_watch.elapsed_seconds();

  const Stopwatch library_watch;
  const bench::HarnessConfig config = bench::harness_config();
  const EvalCorpus corpus(config.eval);
  const CveDatabase database(corpus, config.database);
  const std::size_t library_index =
      database.by_id("CVE-2018-9498").library_index;
  const LibraryBinary library =
      corpus.compile_for_device(library_index, android_things_device());
  const AnalyzedLibrary analyzed = analyze_library(library);
  const double library_seconds = library_watch.elapsed_seconds();

  std::vector<const StaticFeatureVector*> targets;
  for (const std::uint32_t i : analyzed.feature_classes().representatives)
    targets.push_back(&analyzed.features[i]);
  std::vector<const StaticFeatureVector*> queries;
  for (const CveEntry& entry : database.entries()) {
    if (queries.size() == 2 * kQueryEntries) break;
    queries.push_back(&entry.vulnerable_features);
    queries.push_back(&entry.patched_features);
  }
  const std::size_t pairs = queries.size() * targets.size();
  std::printf("=== Stage 1: %s, %zu functions, %zu representatives, "
              "%zu queries, %zu pairs ===\n",
              library.name.c_str(), analyzed.features.size(), targets.size(),
              queries.size(), pairs);

  // The two ways alternate within each repeat, so a slow spell of the
  // machine lands on both.
  std::vector<float> scores(pairs);
  std::vector<double> batch_ns, single_ns;
  volatile float sink = 0.f;  // keeps the single-pair loop's scores live
  for (int r = 0; r < kRepeats; ++r) {
    Stopwatch watch;
    for (std::size_t q = 0; q < queries.size(); ++q)
      score_query(model, *queries[q], targets,
                  scores.data() + q * targets.size());
    batch_ns.push_back(watch.elapsed_seconds() * 1e9 /
                       static_cast<double>(pairs));
    watch.restart();
    for (const StaticFeatureVector* query : queries) {
      QueryScorer scorer(model, *query);
      for (const StaticFeatureVector* target : targets)
        sink = sink + scorer.score(*target);
    }
    single_ns.push_back(watch.elapsed_seconds() * 1e9 /
                        static_cast<double>(pairs));
  }

  // The bits, outside the timers.
  std::size_t mismatches = 0;
  std::uint32_t digest = 2166136261u;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const std::vector<float> expected =
        reference_scores(model, *queries[q], targets);
    for (std::size_t k = 0; k < targets.size(); ++k) {
      const float got = scores[q * targets.size() + k];
      if (std::memcmp(&got, &expected[k], sizeof got) != 0) ++mismatches;
      digest = fnv1a(digest, got);
    }
  }

  const double batch_median = median(batch_ns);
  const double single_median = median(single_ns);
  std::printf("score_batch: %.1f ns/pair (min %.1f)\n", batch_median,
              *std::min_element(batch_ns.begin(), batch_ns.end()));
  std::printf("score:       %.1f ns/pair (min %.1f)\n", single_median,
              *std::min_element(single_ns.begin(), single_ns.end()));
  std::printf("score digest %08x over %zu pairs, %zu mismatches against "
              "Network::predict\n",
              digest, pairs, mismatches);

  const std::vector<bench::BenchRow> rows{
      {"batch",
       {{"ns_per_pair", batch_median},
        {"ns_per_pair_min",
         *std::min_element(batch_ns.begin(), batch_ns.end())},
        {"pairs", static_cast<double>(pairs)},
        {"mismatches", static_cast<double>(mismatches)}}},
      {"single",
       {{"ns_per_pair", single_median},
        {"ns_per_pair_min",
         *std::min_element(single_ns.begin(), single_ns.end())}}},
      {"setup",
       {{"model_seconds", model_seconds},
        {"library_seconds", library_seconds}}}};
  const bool written = bench::write_bench_json("stage1", rows);
  if (mismatches != 0) {
    std::printf("FAIL: %zu scores differ from Network::predict\n", mismatches);
    return 1;
  }
  return written ? 0 : 1;
}
