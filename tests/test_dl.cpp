// Tests for the neural-network stack: numerical gradient checking, learning
// on synthetic separable data, metrics, model serialization, and the
// bit-exactness of the query-bound pair scorer.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <span>
#include <vector>

#include "blob/blob_store.h"
#include "core/cve_database.h"
#include "core/pipeline.h"
#include "dl/network.h"
#include "dl/similarity_model.h"
#include "dl/trainer.h"
#include "obs/metrics.h"
#include "obs/resource.h"
#include "obs/trace.h"

namespace patchecko {
namespace {

/// An untransformed normalizer: signed log1p only (mean 0, stddev 1).
FeatureNormalizer identity_normalizer() {
  FeatureNormalizer normalizer;
  normalizer.fit({});
  return normalizer;
}

TEST(Matrix, IndexingRowMajor) {
  Matrix m(2, 3);
  m.at(1, 2) = 5.f;
  EXPECT_EQ(m.data[1 * 3 + 2], 5.f);
  EXPECT_EQ(m.rows, 2u);
  EXPECT_EQ(m.cols, 3u);
}

TEST(DenseLayer, ForwardComputesAffine) {
  Rng rng(1);
  DenseLayer layer(2, 1, rng);
  layer.weights() = {2.f, 3.f};  // w[0][0]=2 (in0->out0), w[1][0]=3
  layer.biases() = {1.f};
  Matrix x(1, 2);
  x.data = {4.f, 5.f};
  const Matrix y = layer.forward(x);
  EXPECT_FLOAT_EQ(y.data[0], 2.f * 4.f + 3.f * 5.f + 1.f);
}

TEST(DenseLayer, ForwardRejectsBadShape) {
  Rng rng(1);
  DenseLayer layer(3, 2, rng);
  Matrix x(1, 4);
  EXPECT_THROW(layer.forward(x), std::invalid_argument);
}

TEST(Network, GradientMatchesNumericalEstimate) {
  // Single-layer logistic regression: analytic gradient from train_epoch's
  // backward pass must match the numeric derivative of the BCE loss.
  Rng rng(7);
  Network net({3, 1}, 7);
  Matrix x(4, 3);
  std::vector<float> y{1.f, 0.f, 1.f, 0.f};
  Rng data_rng(9);
  for (float& v : x.data)
    v = static_cast<float>(data_rng.uniform_real(-1, 1));

  auto loss_of = [&](Network& n) {
    return n.evaluate(x, y).loss;
  };

  // Numeric gradient wrt the first weight.
  const float eps = 1e-3f;
  Network plus = net, minus = net;
  plus.layers()[0].weights()[0] += eps;
  minus.layers()[0].weights()[0] -= eps;
  const double numeric =
      (loss_of(plus) - loss_of(minus)) / (2.0 * eps);

  // Analytic gradient: run one batch backward by hand via train_epoch with
  // zero learning rate is not possible; instead approximate using a tiny
  // learning-rate SGD-like probe: the Adam first step moves opposite in
  // sign to the gradient.
  Network probe = net;
  TrainConfig config;
  config.learning_rate = 1e-4f;
  config.batch_size = 4;
  Rng shuffle(1);
  const float before = probe.layers()[0].weights()[0];
  (void)probe.train_epoch(x, y, config, shuffle);
  const float after = probe.layers()[0].weights()[0];
  if (std::abs(numeric) > 1e-4) {
    EXPECT_LT((after - before) * numeric, 0.0)
        << "Adam must step against the gradient";
  }
}

TEST(Network, LearnsLinearlySeparableData) {
  Rng data_rng(11);
  const std::size_t n = 600;
  Matrix x(n, 4);
  std::vector<float> y(n);
  for (std::size_t r = 0; r < n; ++r) {
    float sum = 0;
    for (std::size_t c = 0; c < 4; ++c) {
      const float v = static_cast<float>(data_rng.uniform_real(-1, 1));
      x.at(r, c) = v;
      sum += v;
    }
    y[r] = sum > 0 ? 1.f : 0.f;
  }
  Network net({4, 16, 8, 1}, 3);
  TrainConfig config;
  Rng shuffle(5);
  EpochStats stats;
  for (int epoch = 0; epoch < 30; ++epoch)
    stats = net.train_epoch(x, y, config, shuffle);
  EXPECT_GT(stats.accuracy, 0.95);
}

TEST(Network, LearnsXorNonlinearity) {
  Matrix x(4, 2);
  x.data = {0, 0, 0, 1, 1, 0, 1, 1};
  std::vector<float> y{0.f, 1.f, 1.f, 0.f};
  Network net({2, 8, 8, 1}, 21);
  TrainConfig config;
  config.learning_rate = 5e-3f;
  config.batch_size = 4;
  Rng shuffle(2);
  for (int epoch = 0; epoch < 800; ++epoch)
    (void)net.train_epoch(x, y, config, shuffle);
  const auto preds = net.predict(x);
  EXPECT_LT(preds[0], 0.5f);
  EXPECT_GT(preds[1], 0.5f);
  EXPECT_GT(preds[2], 0.5f);
  EXPECT_LT(preds[3], 0.5f);
}

TEST(Network, PatcheckoModelShape) {
  const Network net = Network::make_patchecko_model(1);
  EXPECT_EQ(net.layers().size(), 6u);  // the paper's 6-layer sequential
  EXPECT_EQ(net.layers().front().in_dim(), 96u);
  EXPECT_EQ(net.layers().back().out_dim(), 1u);
}

TEST(Network, DeterministicFromSeed) {
  const SimilarityModel a(Network::make_patchecko_model(5),
                          identity_normalizer());
  const SimilarityModel b(Network::make_patchecko_model(5),
                          identity_normalizer());
  StaticFeatureVector x{}, y{};
  x.fill(0.3);
  y.fill(4.0);
  EXPECT_EQ(a.score(x, y), b.score(x, y));
}

TEST(Metrics, AucPerfectAndInverted) {
  const std::vector<float> labels{0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(auc_score({0.1f, 0.2f, 0.8f, 0.9f}, labels), 1.0);
  EXPECT_DOUBLE_EQ(auc_score({0.9f, 0.8f, 0.2f, 0.1f}, labels), 0.0);
}

TEST(Metrics, AucTiesGiveHalf) {
  const std::vector<float> labels{0, 1};
  EXPECT_DOUBLE_EQ(auc_score({0.5f, 0.5f}, labels), 0.5);
}

TEST(Metrics, AucDegenerateClasses) {
  EXPECT_DOUBLE_EQ(auc_score({0.2f, 0.4f}, {1.f, 1.f}), 0.5);
}

TEST(Metrics, AccuracyThreshold) {
  const std::vector<float> labels{0, 1, 1};
  EXPECT_DOUBLE_EQ(accuracy_score({0.2f, 0.9f, 0.4f}, labels), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(accuracy_score({0.2f, 0.9f, 0.4f}, labels, 0.3f), 1.0);
}

TEST(SimilarityModel, ScoreIsSymmetric) {
  const SimilarityModel model(Network::make_patchecko_model(13),
                              identity_normalizer());
  StaticFeatureVector a{}, b{};
  a.fill(3.0);
  b.fill(8.0);
  EXPECT_FLOAT_EQ(model.score(a, b), model.score(b, a));
}

TEST(SimilarityModel, SaveLoadRoundTrip) {
  Network net = Network::make_patchecko_model(17);
  std::vector<StaticFeatureVector> corpus(10);
  Rng rng(2);
  for (auto& v : corpus)
    for (double& x : v) x = rng.uniform_real(0, 20);
  FeatureNormalizer normalizer;
  normalizer.fit(corpus);
  const SimilarityModel model(std::move(net), normalizer);

  const std::string path = "/tmp/pk_test_model.bin";
  ASSERT_TRUE(model.save(path));
  const blob::Bytes saved = blob::read_file(path).value();
  const auto loaded = SimilarityModel::load(path);
  ASSERT_TRUE(loaded.has_value());
  // The loaded model saves the same bytes and scores every pair bit for
  // bit like the original.
  ASSERT_TRUE(loaded->save(path));
  EXPECT_EQ(blob::read_file(path).value(), saved);
  for (const StaticFeatureVector& a : corpus)
    for (const StaticFeatureVector& b : corpus) {
      const float want = model.score(a, b);
      const float got = loaded->score(a, b);
      EXPECT_EQ(std::memcmp(&want, &got, sizeof(want)), 0);
    }
  std::filesystem::remove(path);
}

TEST(SimilarityModel, LoadRejectsMissingAndCorrupt) {
  EXPECT_FALSE(SimilarityModel::load("/tmp/definitely_missing_model.bin")
                   .has_value());
  const std::string path = "/tmp/pk_corrupt_model.bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("not a model", f);
  std::fclose(f);
  EXPECT_FALSE(SimilarityModel::load(path).has_value());
  std::filesystem::remove(path);
}

/// The shape of one PKML layer record: its header and how many weights and
/// biases follow it.
struct LayerRecord {
  std::uint32_t in_dim, out_dim;
  std::size_t weights, biases;
};

/// A PKML file in the layout SimilarityModel::save writes, with unit
/// normalizer parameters and every weight and bias 0.01.
blob::Bytes pkml(const std::vector<LayerRecord>& layers) {
  blob::Bytes out;
  blob::append_u32(out, 0x504b4d4c);  // "PKML"
  for (std::size_t i = 0; i < 2 * static_feature_count; ++i)
    blob::append_double(out, i < static_feature_count ? 0.0 : 1.0);
  blob::append_u32(out, static_cast<std::uint32_t>(layers.size()));
  for (const LayerRecord& layer : layers) {
    blob::append_u32(out, layer.in_dim);
    blob::append_u32(out, layer.out_dim);
    for (std::size_t i = 0; i < layer.weights + layer.biases; ++i) {
      const float value = 0.01f;
      blob::append_bytes(out, &value, sizeof(value));
    }
  }
  return out;
}

/// `bytes` with the value at `offset` replaced by `value`.
template <typename T>
blob::Bytes with_value(blob::Bytes bytes, std::size_t offset, T value) {
  std::memcpy(bytes.data() + offset, &value, sizeof(value));
  return bytes;
}

TEST(SimilarityModel, LoadRejectsHostileInputWithoutAllocatingForIt) {
  // A consistent 96 -> 4 -> 1 model: the normalizer's means end at 388 and
  // its stddevs at 772; layer 1's weights start at 784 and its biases at
  // 2320; layer 2's header is at 2336.
  const blob::Bytes valid = pkml({{96, 4, 384, 4}, {4, 1, 4, 1}});
  // The probe that read past a layer's weights: the paper-shaped model
  // with layer 2's header changed from (96, 64) to (1, 64) and its weights
  // cut to 64 floats.
  const blob::Bytes probe = pkml({{96, 96, 96 * 96, 96},
                                  {1, 64, 64, 64},
                                  {64, 48, 64 * 48, 48},
                                  {48, 32, 48 * 32, 32},
                                  {32, 16, 32 * 16, 16},
                                  {16, 1, 16, 1}});
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  blob::Bytes trailing = valid;
  trailing.push_back(0);
  struct Case {
    std::string name;
    blob::Bytes bytes;
    const char* reason;
  };
  std::vector<Case> cases = {
      {"layer 2 header (1, 64)", probe, "input width"},
      {"input width 5 after output 4", pkml({{96, 4, 384, 4}, {5, 1, 5, 1}}),
       "input width"},
      {"last out_dim 2", pkml({{96, 4, 384, 4}, {4, 2, 8, 2}}),
       "more than one output"},
      {"NaN weight", with_value(valid, 784, nan), "non-finite weight"},
      {"NaN bias", with_value(valid, 2320, nan), "non-finite weight"},
      {"infinite mean", with_value(valid, 4, inf), "non-finite normalizer"},
      {"infinite stddev", with_value(valid, 764, -inf),
       "non-finite normalizer"},
      {"one trailing byte", trailing, "trail"},
      {"wrong magic", with_value(valid, 0, std::uint32_t{0x504b4d4d}),
       "not a PKML"},
      {"no layers", with_value(blob::Bytes(valid.begin(), valid.begin() + 776),
                               772, std::uint32_t{0}),
       "layer count"},
      {"65 layers", with_value(valid, 772, std::uint32_t{65}), "layer count"},
      {"in_dim 0", with_value(valid, 776, std::uint32_t{0}), "dimension"},
      {"out_dim 4097", with_value(valid, 780, std::uint32_t{4097}),
       "dimension"},
      {"4096 x 4096 weights past EOF", pkml({{4096, 4096, 0, 0}}),
       "truncated"},
  };
  // Truncation at every field end of the valid file, and one byte short of
  // it: inside the magic, each normalizer value, the layer count, each
  // header word, the weights and the biases.
  std::vector<std::size_t> field_ends = {4, 772, 776, 780, 784, 2320,
                                         2336, 2340, 2344, 2360};
  for (std::size_t v = 1; v <= 2 * static_feature_count; ++v)
    field_ends.push_back(4 + 8 * v);
  ASSERT_EQ(valid.size(), 2364u);
  for (const std::size_t end : field_ends)
    for (const std::size_t cut : {end - 1, end})
      cases.push_back({"truncated to " + std::to_string(cut),
                       blob::Bytes(valid.begin(), valid.begin() + cut),
                       cut < 4 ? "not a PKML" : "truncated"});

  const std::string path = testing::TempDir() + "pk_hostile_model.bin";
  ASSERT_TRUE(blob::write_file(path, valid));
  ASSERT_TRUE(SimilarityModel::load(path).has_value());
  const bool counting = obs::allocation_counting_available();
  const obs::EnabledScope on(true);
  for (const Case& c : cases) {
    ASSERT_TRUE(blob::write_file(path, c.bytes)) << c.name;
    std::string error;
    // A cleared tracer keeps its capacity: the setup.model span allocates
    // nothing, and what is counted is the loader's.
    obs::Tracer::global().clear();
    const std::uint64_t before = obs::thread_allocation_bytes();
    EXPECT_FALSE(SimilarityModel::load(path, &error).has_value()) << c.name;
    if (counting) {
      // The file's bytes, and weights only once the file holds them.
      EXPECT_LE(obs::thread_allocation_bytes() - before,
                3 * c.bytes.size() + 4096)
          << c.name;
    }
    EXPECT_NE(error.find(c.reason), std::string::npos)
        << c.name << ": " << error;
  }
  std::filesystem::remove(path);
}

// --- QueryScorer: bit-exact against the batch network ----------------------

/// SimilarityModel::score by its definition: the (a, b) and (b, a) rows of
/// normalized float features through Network::predict, averaged.
float reference_score(const SimilarityModel& model,
                      const StaticFeatureVector& a,
                      const StaticFeatureVector& b) {
  const StaticFeatureVector na = model.normalizer().transform(a);
  const StaticFeatureVector nb = model.normalizer().transform(b);
  constexpr std::size_t n = static_feature_count;
  Matrix x(2, 2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    x.at(0, i) = static_cast<float>(na[i]);
    x.at(0, n + i) = static_cast<float>(nb[i]);
    x.at(1, i) = static_cast<float>(nb[i]);
    x.at(1, n + i) = static_cast<float>(na[i]);
  }
  const std::vector<float> p = model.network().predict(x);
  return 0.5f * (p[0] + p[1]);
}

bool same_bits(float a, float b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Scores every target against `query` with one scorer (and with score())
/// and counts results whose bits differ from the reference.
std::size_t mismatches(const SimilarityModel& model,
                       const StaticFeatureVector& query,
                       const std::vector<StaticFeatureVector>& targets) {
  QueryScorer scorer(model, query);
  std::size_t bad = 0;
  for (const StaticFeatureVector& target : targets) {
    const float expected = reference_score(model, query, target);
    if (!same_bits(scorer.score(target), expected)) ++bad;
    if (!same_bits(model.score(query, target), expected)) ++bad;
  }
  return bad;
}

TEST(QueryScorer, BitIdenticalOnEvalLibraryBothQueryDirections) {
  TrainerConfig trainer;
  trainer.dataset.library_count = 8;
  trainer.dataset.functions_per_library = 10;
  trainer.epochs = 3;
  const SimilarityModel model = train_similarity_model(trainer).model;
  ASSERT_TRUE(model.normalizer().fitted());

  EvalConfig eval;
  eval.scale = 0.05;
  const EvalCorpus corpus(eval);
  const CveDatabase database(corpus, DatabaseConfig{});
  const std::size_t library = database.entries().front().library_index;
  const LibraryBinary binary =
      corpus.compile_for_device(library, android_things_device());
  const AnalyzedLibrary analyzed = analyze_library(binary);
  ASSERT_FALSE(analyzed.features.empty());

  std::size_t queries = 0;
  for (const CveEntry& entry : database.entries()) {
    if (entry.library_index != library) continue;
    for (const StaticFeatureVector* query :
         {&entry.vulnerable_features, &entry.patched_features}) {
      EXPECT_EQ(mismatches(model, *query, analyzed.features), 0u)
          << entry.spec.cve_id;
      ++queries;
    }
  }
  EXPECT_GE(queries, 2u);
}

TEST(QueryScorer, BitIdenticalOnEdgeVectors) {
  // Identity normalization keeps zeros at zero, so the all-zero vector
  // exercises DenseLayer::forward's zero skip on the pair input.
  const SimilarityModel model(Network::make_patchecko_model(29),
                              identity_normalizer());
  StaticFeatureVector zero{}, negative{}, huge{}, mixed{};
  negative.fill(-7.5);
  huge.fill(std::numeric_limits<double>::max());
  for (std::size_t i = 0; i < static_feature_count; ++i)
    mixed[i] = i % 3 == 0 ? 0.0 : (i % 3 == 1 ? -0.0 : 1e6 * double(i));
  const std::vector<StaticFeatureVector> vectors = {zero, negative, huge,
                                                    mixed};
  for (const StaticFeatureVector& query : vectors) {
    EXPECT_EQ(mismatches(model, query, vectors), 0u);  // includes query==target
  }

  // 0 * inf is NaN, so infinite weights on inputs 0 and 48 — exactly zero
  // in both pair orders below — show whether zeros are skipped.
  Network net = Network::make_patchecko_model(29);
  DenseLayer& first = net.layers().front();
  for (std::size_t o = 0; o < first.out_dim(); ++o) {
    first.weights()[o] = std::numeric_limits<float>::infinity();
    first.weights()[static_feature_count * first.out_dim() + o] =
        -std::numeric_limits<float>::infinity();
  }
  const SimilarityModel inf_model(std::move(net), identity_normalizer());
  EXPECT_EQ(mismatches(inf_model, mixed, {mixed, zero}), 0u);
  EXPECT_FALSE(std::isnan(inf_model.score(mixed, zero)));
}

TEST(QueryScorer, BitIdenticalWithWidthsOffTheBlockSize) {
  // 20 and 7 outputs leave remainders after the 8-wide blocks.
  std::vector<StaticFeatureVector> corpus(40);
  Rng rng(31);
  for (auto& v : corpus)
    for (double& x : v) x = rng.uniform_real(-50, 400);
  FeatureNormalizer normalizer;
  normalizer.fit(corpus);
  const SimilarityModel model(Network({96, 20, 7, 1}, 37), normalizer);
  for (std::size_t q = 0; q < corpus.size(); q += 7)
    EXPECT_EQ(mismatches(model, corpus[q], corpus), 0u) << q;
}

TEST(QueryScorer, RejectsNetworkWithoutPairInput) {
  const SimilarityModel model(Network({48, 8, 1}, 3), identity_normalizer());
  EXPECT_THROW(QueryScorer(model, StaticFeatureVector{}),
               std::invalid_argument);
}

TEST(QueryScorer, ScoringTargetsMakesNoHeapAllocations) {
  if (!obs::allocation_counting_available())
    GTEST_SKIP() << "allocation hook compiled out (sanitizer build)";
  const obs::EnabledScope on(true);
  const SimilarityModel model(Network::make_patchecko_model(41),
                              identity_normalizer());
  std::vector<StaticFeatureVector> targets(1000);
  Rng rng(43);
  for (auto& v : targets)
    for (double& x : v) x = rng.uniform_real(-10, 1000);
  QueryScorer scorer(model, targets.front());
  const std::uint64_t before = obs::thread_allocation_count();
  float sum = 0.f;
  for (const StaticFeatureVector& target : targets) sum += scorer.score(target);
  EXPECT_EQ(obs::thread_allocation_count() - before, 0u);
  EXPECT_GT(sum, 0.f);
}

/// Scores `targets` against `query` through one score_batch call and
/// counts results whose bits differ from the reference.
std::size_t batch_mismatches(QueryScorer& scorer, const SimilarityModel& model,
                             const StaticFeatureVector& query,
                             const std::vector<StaticFeatureVector>& targets) {
  std::vector<const StaticFeatureVector*> pointers;
  for (const StaticFeatureVector& target : targets) pointers.push_back(&target);
  std::vector<float> out(targets.size());
  scorer.score_batch(pointers, out);
  std::size_t bad = 0;
  for (std::size_t k = 0; k < targets.size(); ++k)
    if (!same_bits(out[k], reference_score(model, query, targets[k]))) ++bad;
  return bad;
}

std::vector<StaticFeatureVector> random_vectors(std::size_t n,
                                                std::uint64_t seed) {
  std::vector<StaticFeatureVector> out(n);
  Rng rng(seed);
  for (auto& v : out)
    for (double& x : v) x = rng.uniform_real(-50, 400);
  return out;
}

TEST(QueryScorer, BatchesOfEveryTileRemainderAreBitIdentical) {
  constexpr std::size_t tile = QueryScorer::kTile;
  const std::vector<StaticFeatureVector> corpus = random_vectors(64, 47);
  FeatureNormalizer normalizer;
  normalizer.fit(corpus);
  // The paper's widths, and widths that leave column remainders.
  for (const std::vector<std::size_t>& dims :
       {std::vector<std::size_t>{96, 96, 64, 48, 32, 16, 1},
        std::vector<std::size_t>{96, 20, 7, 1}}) {
    const SimilarityModel model(Network(dims, 53), normalizer);
    // One scorer across every batch: scratch reused by ragged tiles.
    QueryScorer scorer(model, corpus[0]);
    std::size_t begin = 1;
    for (const std::size_t n :
         {std::size_t{0}, std::size_t{1}, tile - 1, tile, tile + 1,
          2 * tile + 3}) {
      const std::vector<StaticFeatureVector> batch(
          corpus.begin() + begin, corpus.begin() + begin + n);
      EXPECT_EQ(batch_mismatches(scorer, model, corpus[0], batch), 0u)
          << "batch of " << n << ", " << dims.size() << " layers";
      begin += n;
    }
  }
}

TEST(QueryScorer, BatchRejectsMismatchedSpans) {
  const SimilarityModel model(Network::make_patchecko_model(3),
                              identity_normalizer());
  const StaticFeatureVector target{};
  const StaticFeatureVector* targets[] = {&target, &target};
  float out[1];
  QueryScorer scorer(model, target);
  EXPECT_THROW(scorer.score_batch(targets, out), std::invalid_argument);
}

TEST(QueryScorer, SkippedHiddenInputsMeetInfiniteWeights) {
  // Layer-1 units 0, 1 and 2 have zero weights, so their pre-activations
  // are exactly +0, -0 and -1 for every pair; ReLU zeroes all three, so
  // DenseLayer::forward skips them. Their layer-2 rows hold +-inf: adding
  // 0 * inf would turn every score into NaN.
  Network net = Network::make_patchecko_model(59);
  DenseLayer& first = net.layers()[0];
  DenseLayer& second = net.layers()[1];
  const float biases[] = {0.f, -0.f, -1.f};
  for (std::size_t unit = 0; unit < 3; ++unit) {
    for (std::size_t i = 0; i < first.in_dim(); ++i)
      first.weights()[i * first.out_dim() + unit] = 0.f;
    first.biases()[unit] = biases[unit];
    for (std::size_t o = 0; o < second.out_dim(); ++o)
      second.weights()[unit * second.out_dim() + o] =
          (o % 2 == 0 ? 1 : -1) * std::numeric_limits<float>::infinity();
  }
  const std::vector<StaticFeatureVector> corpus = random_vectors(11, 61);
  FeatureNormalizer normalizer;
  normalizer.fit(corpus);
  const SimilarityModel model(std::move(net), normalizer);
  for (std::size_t q = 0; q < corpus.size(); q += 5) {
    QueryScorer scorer(model, corpus[q]);
    EXPECT_EQ(batch_mismatches(scorer, model, corpus[q], corpus), 0u) << q;
    EXPECT_FALSE(std::isnan(scorer.score(corpus[(q + 1) % corpus.size()])));
  }
}

TEST(QueryScorer, NonFiniteTargetFeaturesAreBitIdentical) {
  const std::vector<StaticFeatureVector> corpus = random_vectors(8, 67);
  FeatureNormalizer normalizer;
  normalizer.fit(corpus);
  const SimilarityModel model(Network::make_patchecko_model(71), normalizer);
  std::vector<StaticFeatureVector> targets(corpus.begin(), corpus.begin() + 6);
  targets[1][3] = std::numeric_limits<double>::quiet_NaN();
  targets[2][5] = std::numeric_limits<double>::infinity();
  targets[3][7] = -std::numeric_limits<double>::infinity();
  targets[4][0] = std::numeric_limits<double>::quiet_NaN();
  targets[4][47] = std::numeric_limits<double>::infinity();
  for (const StaticFeatureVector& query : {corpus[6], targets[4]}) {
    QueryScorer scorer(model, query);
    EXPECT_EQ(batch_mismatches(scorer, model, query, targets), 0u);
    EXPECT_EQ(mismatches(model, query, targets), 0u);
  }
}

TEST(QueryScorer, ScoringBatchesMakesNoHeapAllocations) {
  if (!obs::allocation_counting_available())
    GTEST_SKIP() << "allocation hook compiled out (sanitizer build)";
  const obs::EnabledScope on(true);
  const SimilarityModel model(Network::make_patchecko_model(73),
                              identity_normalizer());
  std::vector<StaticFeatureVector> targets(1000);
  Rng rng(79);
  for (auto& v : targets)
    for (double& x : v) x = rng.uniform_real(-10, 1000);
  std::vector<const StaticFeatureVector*> pointers;
  for (const StaticFeatureVector& target : targets) pointers.push_back(&target);
  std::vector<float> out(targets.size());
  QueryScorer scorer(model, targets.front());
  const std::uint64_t before = obs::thread_allocation_count();
  // Whole, ragged and single-target batches.
  scorer.score_batch(pointers, out);
  scorer.score_batch(std::span(pointers).first(QueryScorer::kTile + 3),
                     std::span(out).first(QueryScorer::kTile + 3));
  scorer.score_batch(std::span(pointers).first(1), std::span(out).first(1));
  EXPECT_EQ(obs::thread_allocation_count() - before, 0u);
  EXPECT_GT(out[1], 0.f);
}

}  // namespace
}  // namespace patchecko
