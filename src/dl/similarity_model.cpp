#include "dl/similarity_model.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "blob/blob_store.h"
#include "obs/trace.h"

namespace patchecko {

float SimilarityModel::score(const StaticFeatureVector& a,
                             const StaticFeatureVector& b) const {
  return QueryScorer(*this, a).score(b);
}

namespace {

using Term = QueryScorer::Term;

/// Output columns per block. The block's partial sums live in a local array
/// the compiler keeps in vector registers, so the loops vectorize across
/// outputs; each output still sums its own terms in order.
constexpr std::size_t kBlock = 8;

/// Collects the nonzero entries of x[0..n) in ascending order: the inputs
/// DenseLayer::forward does not skip.
std::size_t nonzero_terms(const float* x, std::size_t n, Term* out) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i)
    if (x[i] != 0.f) out[count++] = {x[i], static_cast<std::uint32_t>(i)};
  return count;
}

/// Like nonzero_terms over ReLU(x): ReLU(v) is nonzero exactly when v > 0.
std::size_t relu_terms(const float* x, std::size_t n, Term* out) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i)
    if (x[i] > 0.f) out[count++] = {x[i], static_cast<std::uint32_t>(i)};
  return count;
}

/// y[o] += t.x * w[t.row][o] for each term t in order: DenseLayer::forward's
/// per-output sequence of separately rounded multiplies and adds. `w` is the
/// layer's row-major (in x out) weight matrix.
void accumulate(float* y, const float* w, std::size_t out, const Term* terms,
                std::size_t count) {
  std::size_t o = 0;
  for (; o + kBlock <= out; o += kBlock) {
    float acc[kBlock];
    for (std::size_t k = 0; k < kBlock; ++k) acc[k] = y[o + k];
    for (std::size_t j = 0; j < count; ++j) {
      const float x = terms[j].x;
      const float* wrow = w + terms[j].row * out + o;
      for (std::size_t k = 0; k < kBlock; ++k) acc[k] += x * wrow[k];
    }
    for (std::size_t k = 0; k < kBlock; ++k) y[o + k] = acc[k];
  }
  for (; o < out; ++o) {
    float acc = y[o];
    for (std::size_t j = 0; j < count; ++j)
      acc += terms[j].x * w[terms[j].row * out + o];
    y[o] = acc;
  }
}

/// The normalized features as the network sees them (float32).
std::array<float, static_feature_count> normalized(
    const FeatureNormalizer& normalizer, const StaticFeatureVector& raw) {
  const StaticFeatureVector z = normalizer.transform(raw);
  std::array<float, static_feature_count> out;
  for (std::size_t i = 0; i < static_feature_count; ++i)
    out[i] = static_cast<float>(z[i]);
  return out;
}

float sigmoid(float v) { return 1.f / (1.f + std::exp(-v)); }

}  // namespace

QueryScorer::QueryScorer(const SimilarityModel& model,
                         const StaticFeatureVector& query)
    : layers_(model.network().layers()), normalizer_(model.normalizer()) {
  if (layers_.empty() || layers_.front().in_dim() != 2 * static_feature_count)
    throw std::invalid_argument(
        "QueryScorer: the network must take the 96-wide pair input");
  std::size_t widest = 0;
  for (const DenseLayer& layer : layers_)
    widest = std::max(widest, layer.out_dim());
  query_terms_.resize(static_feature_count);
  target_terms_.resize(static_feature_count);
  hidden_terms_.resize(widest);
  act_.resize(widest);

  const std::array<float, static_feature_count> q =
      normalized(normalizer_, query);
  query_terms_.resize(nonzero_terms(q.data(), q.size(), query_terms_.data()));
  const DenseLayer& first = layers_.front();
  query_partial_ = first.biases();
  accumulate(query_partial_.data(), first.weights().data(), first.out_dim(),
             query_terms_.data(), query_terms_.size());
}

float QueryScorer::finish() {
  for (std::size_t l = 1; l < layers_.size(); ++l) {
    const DenseLayer& layer = layers_[l];
    const std::size_t count =
        relu_terms(act_.data(), layer.in_dim(), hidden_terms_.data());
    std::copy(layer.biases().begin(), layer.biases().end(), act_.begin());
    accumulate(act_.data(), layer.weights().data(), layer.out_dim(),
               hidden_terms_.data(), count);
  }
  return sigmoid(act_[0]);
}

float QueryScorer::score(const StaticFeatureVector& target) {
  const std::array<float, static_feature_count> t =
      normalized(normalizer_, target);
  const DenseLayer& first = layers_.front();
  const float* w = first.weights().data();
  const std::size_t out = first.out_dim();
  const float* second_half = w + static_feature_count * out;

  // (query, target): the cached query half, then target inputs 48..95.
  const std::size_t count =
      nonzero_terms(t.data(), t.size(), target_terms_.data());
  std::copy(query_partial_.begin(), query_partial_.end(), act_.begin());
  accumulate(act_.data(), second_half, out, target_terms_.data(), count);
  const float forward = finish();

  // (target, query): bias, target inputs 0..47, then query inputs 48..95.
  std::copy(first.biases().begin(), first.biases().end(), act_.begin());
  accumulate(act_.data(), w, out, target_terms_.data(), count);
  accumulate(act_.data(), second_half, out, query_terms_.data(),
             query_terms_.size());
  const float backward = finish();

  // Symmetrized, so score(a,b) == score(b,a) and a single lopsided
  // prediction cannot drop a true match.
  return 0.5f * (forward + backward);
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
