#include "dl/similarity_model.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "blob/blob_store.h"
#include "obs/trace.h"

namespace patchecko {

float SimilarityModel::score(const StaticFeatureVector& a,
                             const StaticFeatureVector& b) const {
  return QueryScorer(*this, a).score(b);
}

namespace {

/// Four floats: one SSE register on x86-64, one NEON register on AArch64.
/// GCC/Clang vector extensions keep one kernel source for every target;
/// arithmetic on them is lane-wise IEEE float arithmetic, contracted into
/// FMA only under -ffp-contract, which the build turns off.
using f32x4 = float __attribute__((vector_size(16)));
constexpr std::size_t kWidth = 4;  ///< floats per vector
/// Partial sums a pass keeps in registers: 8 of the 16 SSE registers, so
/// 8 independent add chains hide the add latency.
constexpr std::size_t kSums = 8;
constexpr std::size_t kTile = QueryScorer::kTile;

f32x4 load(const float* p) {
  f32x4 v{};
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store(float* p, f32x4 v) { std::memcpy(p, &v, sizeof v); }

using Term = QueryScorer::Term;
/// One target's inputs to a layer: its terms, in ascending input order.
using Lane = std::span<const Term>;

/// Writes to terms[0..count) the inputs of x[0..n) that `uses` keeps, in
/// ascending order, and returns count. Branch-free: every input is written
/// at terms[count], and count advances when it is kept.
template <class Uses>
std::size_t collect_terms(const float* x, std::size_t n, Uses uses,
                          std::size_t out, Term* terms) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const float v = x[i];
    terms[count] = {v, static_cast<std::uint32_t>(i * out)};
    count += uses(v) ? 1 : 0;
  }
  return count;
}

/// The inputs DenseLayer::forward does not skip: nonzero ones, and for a
/// ReLU output exactly the positive pre-activations (NaN is neither).
constexpr auto nonzero = [](float v) { return v != 0.f; };
constexpr auto positive = [](float v) { return v > 0.f; };

/// y[o] += term.x * w[term][o] for o < 4 * kVectors and each term in order:
/// DenseLayer::forward's per-output sequence of separately rounded
/// multiplies and adds. `w` is offset to the block's first column.
template <std::size_t kVectors>
void accumulate_block(float* y, const float* w, Lane lane) {
  f32x4 acc[kVectors];
#pragma GCC unroll 8
  for (std::size_t v = 0; v < kVectors; ++v) acc[v] = load(y + v * kWidth);
  for (const Term& term : lane) {
    const float* const wrow = w + term.offset;
    const f32x4 x{term.x, term.x, term.x, term.x};
#pragma GCC unroll 8
    for (std::size_t v = 0; v < kVectors; ++v)
      acc[v] += x * load(wrow + v * kWidth);
  }
#pragma GCC unroll 8
  for (std::size_t v = 0; v < kVectors; ++v) store(y + v * kWidth, acc[v]);
}

/// One layer pass for a tile: slot t < lanes adds lane[t]'s terms to its
/// outputs y[t * stride + 0..out). `w` is the layer's row-major (in x out)
/// weight matrix. The loop runs over column blocks outermost, so a block's
/// weight columns are read from memory once and reused from L1 by every
/// target of the tile.
void accumulate(float* y, std::size_t stride, const float* w, std::size_t out,
                const Lane* lane, std::size_t lanes) {
  std::size_t o = 0;
  for (; o + kSums * kWidth <= out; o += kSums * kWidth)
    for (std::size_t t = 0; t < lanes; ++t)
      accumulate_block<kSums>(y + t * stride + o, w + o, lane[t]);
  for (; o + kSums / 2 * kWidth <= out; o += kSums / 2 * kWidth)
    for (std::size_t t = 0; t < lanes; ++t)
      accumulate_block<kSums / 2>(y + t * stride + o, w + o, lane[t]);
  for (; o + kWidth <= out; o += kWidth)
    for (std::size_t t = 0; t < lanes; ++t)
      accumulate_block<1>(y + t * stride + o, w + o, lane[t]);
  for (; o < out; ++o)
    for (std::size_t t = 0; t < lanes; ++t) {
      float acc = y[t * stride + o];
      for (const Term& term : lane[t]) acc += term.x * w[term.offset + o];
      y[t * stride + o] = acc;
    }
}

/// The normalized features as the network sees them (float32).
void normalize(const FeatureNormalizer& normalizer,
               const StaticFeatureVector& raw, float* out) {
  const StaticFeatureVector z = normalizer.transform(raw);
  for (std::size_t i = 0; i < static_feature_count; ++i)
    out[i] = static_cast<float>(z[i]);
}

float sigmoid(float v) { return 1.f / (1.f + std::exp(-v)); }

}  // namespace

QueryScorer::QueryScorer(const SimilarityModel& model,
                         const StaticFeatureVector& query)
    : layers_(model.network().layers()), normalizer_(model.normalizer()) {
  if (layers_.empty() || layers_.front().in_dim() != 2 * static_feature_count)
    throw std::invalid_argument(
        "QueryScorer: the network must take the 96-wide pair input");
  for (const DenseLayer& layer : layers_)
    act_stride_ = std::max(act_stride_, layer.out_dim());
  term_stride_ = std::max(act_stride_, static_feature_count);
  terms_.resize(kTile * term_stride_);
  forward_.resize(kTile * act_stride_);
  backward_.resize(kTile * act_stride_);

  std::array<float, static_feature_count> q{};
  normalize(normalizer_, query, q.data());
  const DenseLayer& first = layers_.front();
  query_terms_.resize(static_feature_count);
  query_terms_.resize(collect_terms(q.data(), q.size(), nonzero,
                                    first.out_dim(), query_terms_.data()));
  query_partial_ = first.biases();
  const Lane lane = query_terms_;
  accumulate(query_partial_.data(), 0, first.weights().data(), first.out_dim(),
             &lane, 1);
}

void QueryScorer::finish(float* act, std::size_t lanes) {
  std::array<Lane, kTile> lane;
  for (std::size_t l = 1; l < layers_.size(); ++l) {
    const DenseLayer& layer = layers_[l];
    for (std::size_t t = 0; t < lanes; ++t) {
      Term* const terms = terms_.data() + t * term_stride_;
      lane[t] = {terms, collect_terms(act + t * act_stride_, layer.in_dim(),
                                      positive, layer.out_dim(), terms)};
      std::copy(layer.biases().begin(), layer.biases().end(),
                act + t * act_stride_);
    }
    accumulate(act, act_stride_, layer.weights().data(), layer.out_dim(),
               lane.data(), lanes);
  }
}

void QueryScorer::score_batch(
    std::span<const StaticFeatureVector* const> targets,
    std::span<float> out) {
  if (targets.size() != out.size())
    throw std::invalid_argument("QueryScorer: one output per target");
  const DenseLayer& first = layers_.front();
  const float* w = first.weights().data();
  const std::size_t width = first.out_dim();
  const float* second_half = w + static_feature_count * width;
  std::array<Lane, kTile> query_lane, target_lane;
  query_lane.fill(query_terms_);
  for (std::size_t begin = 0; begin < targets.size(); begin += kTile) {
    const std::size_t lanes = std::min(kTile, targets.size() - begin);
    for (std::size_t t = 0; t < lanes; ++t) {
      std::array<float, static_feature_count> x{};
      normalize(normalizer_, *targets[begin + t], x.data());
      Term* const terms = terms_.data() + t * term_stride_;
      target_lane[t] = {terms,
                        collect_terms(x.data(), x.size(), nonzero, width,
                                      terms)};
      std::copy(query_partial_.begin(), query_partial_.end(),
                forward_.begin() + t * act_stride_);
      std::copy(first.biases().begin(), first.biases().end(),
                backward_.begin() + t * act_stride_);
    }
    // (query, target): the cached query half, then target inputs 48..95.
    accumulate(forward_.data(), act_stride_, second_half, width,
               target_lane.data(), lanes);
    // (target, query): bias, target inputs 0..47, then query inputs 48..95.
    accumulate(backward_.data(), act_stride_, w, width, target_lane.data(),
               lanes);
    accumulate(backward_.data(), act_stride_, second_half, width,
               query_lane.data(), lanes);

    finish(forward_.data(), lanes);
    finish(backward_.data(), lanes);
    // Symmetrized, so score(a,b) == score(b,a) and a single lopsided
    // prediction cannot drop a true match.
    for (std::size_t t = 0; t < lanes; ++t)
      out[begin + t] = 0.5f * (sigmoid(forward_[t * act_stride_]) +
                               sigmoid(backward_[t * act_stride_]));
  }
}

float QueryScorer::score(const StaticFeatureVector& target) {
  const StaticFeatureVector* one = &target;
  float out = 0.f;
  score_batch({&one, 1}, {&out, 1});
  return out;
}

namespace {
constexpr std::uint32_t model_magic = 0x504b4d4c;  // "PKML"
}

bool SimilarityModel::save(const std::string& path) const {
  blob::Bytes out;
  blob::append_u32(out, model_magic);
  for (double v : normalizer_.means()) blob::append_double(out, v);
  for (double v : normalizer_.stddevs()) blob::append_double(out, v);
  blob::append_u32(out, static_cast<std::uint32_t>(network_.layers().size()));
  for (const DenseLayer& layer : network_.layers()) {
    blob::append_u32(out, static_cast<std::uint32_t>(layer.in_dim()));
    blob::append_u32(out, static_cast<std::uint32_t>(layer.out_dim()));
    blob::append_bytes(out, layer.weights().data(),
                       layer.weights().size() * sizeof(float));
    blob::append_bytes(out, layer.biases().data(),
                       layer.biases().size() * sizeof(float));
  }
  return blob::write_file(path, out);
}

std::optional<SimilarityModel> SimilarityModel::load(const std::string& path,
                                                     std::string* error) {
  const obs::ScopedSpan span("setup.model");
  const auto fail = [&](const char* why) -> std::optional<SimilarityModel> {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  const auto all_finite = [](const auto& values) {
    return std::all_of(values.begin(), values.end(),
                       [](auto value) { return std::isfinite(value); });
  };
  const std::optional<blob::Bytes> bytes = blob::read_file(path);
  if (!bytes) return fail("cannot read the file");
  blob::Reader reader{*bytes};
  if (reader.read_u32() != model_magic) return fail("not a PKML model file");
  StaticFeatureVector mean{}, stddev{};
  reader.read(mean.data(), sizeof(mean));
  reader.read(stddev.data(), sizeof(stddev));
  const std::uint32_t layer_count = reader.read_u32();
  if (!reader.ok) return fail("truncated");
  if (!all_finite(mean) || !all_finite(stddev))
    return fail("non-finite normalizer value");
  if (layer_count == 0 || layer_count > 64)
    return fail("layer count out of range");
  std::vector<std::size_t> dims;
  std::vector<std::pair<std::vector<float>, std::vector<float>>> params;
  for (std::uint32_t l = 0; l < layer_count; ++l) {
    const std::uint32_t in_dim = reader.read_u32(), out_dim = reader.read_u32();
    if (!reader.ok) return fail("truncated");
    if (in_dim == 0 || out_dim == 0 || in_dim > 4096 || out_dim > 4096)
      return fail("layer dimension out of range");
    if (l != 0 && in_dim != dims.back())
      return fail("a layer's input width is not the previous output width");
    if (l == 0) dims.push_back(in_dim);
    dims.push_back(out_dim);
    if (!reader.fits(std::uint64_t{in_dim} * out_dim + out_dim, sizeof(float)))
      return fail("truncated");
    std::vector<float> weights(std::size_t{in_dim} * out_dim), biases(out_dim);
    reader.read(weights.data(), weights.size() * sizeof(float));
    reader.read(biases.data(), biases.size() * sizeof(float));
    if (!all_finite(weights) || !all_finite(biases))
      return fail("non-finite weight or bias");
    params.emplace_back(std::move(weights), std::move(biases));
  }
  if (dims.back() != 1) return fail("the last layer has more than one output");
  if (reader.remaining() != 0) return fail("bytes trail the last layer");

  FeatureNormalizer normalizer;
  normalizer.set_parameters(mean, stddev);
  Network network(dims, /*seed=*/0);
  for (std::size_t l = 0; l < params.size(); ++l) {
    network.layers()[l].weights() = std::move(params[l].first);
    network.layers()[l].biases() = std::move(params[l].second);
  }
  return SimilarityModel(std::move(network), std::move(normalizer));
}

}  // namespace patchecko
