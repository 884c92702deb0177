// Stage-1 retrieval: scalar quantization of the 48 static features.
//
// The prefilter (index.h) shortlists candidate functions by distance in
// feature space before the expensive DL similarity model runs. Raw Table-I
// features are heavy-tailed counts spanning many orders of magnitude, so
// Euclidean distance on them is dominated by the largest dimension; the
// quantizer therefore works in *compressed* space:
//
//     c(x) = sign(x) * log1p(|x|)        (the same compression the model's
//                                         FeatureNormalizer applies)
//
// and maps c(x), clamped to the fixed grid [kGridLo, kGridHi], onto an
// 8-bit code. The grid is corpus-independent by design: codes computed for
// a query and for a library indexed in a different process are directly
// comparable, index construction needs no fitting pass, and the round-trip
// error bound below holds unconditionally.
//
// Guarantee: for any value x whose compressed form lies inside the grid,
//     |c(dequantize(quantize(x))[d]) - c(x)| <= kGridStep / 2
// per dimension (values outside the grid clamp to its edge). 48 codes pack
// one function into 48 bytes — 8x smaller than the double vector — and
// distances are exact small-integer arithmetic, so they are bitwise
// deterministic across platforms, thread counts, and build flags.
#pragma once

#include <array>
#include <cstdint>

#include "features/static_features.h"

namespace patchecko::retrieval {

/// Compressed-space grid. log1p of the largest plausible feature count
/// (~1e6 instructions) is ~13.8; +-16 leaves headroom for ratio features
/// and derived negatives while keeping the step fine enough (~0.063
/// half-step => ~6.5% worst-case relative error on raw counts).
constexpr double kGridLo = -16.0;
constexpr double kGridHi = 16.0;
constexpr int kCodeLevels = 256;
constexpr double kGridStep = (kGridHi - kGridLo) / (kCodeLevels - 1);

/// One function's 48 features as 8-bit codes on the fixed grid.
struct QuantizedVector {
  std::array<std::uint8_t, static_feature_count> codes{};

  friend bool operator==(const QuantizedVector& a, const QuantizedVector& b) {
    return a.codes == b.codes;
  }
  friend bool operator!=(const QuantizedVector& a, const QuantizedVector& b) {
    return !(a == b);
  }
};

/// Signed log1p compression (finite for every finite input; +-inf clamp to
/// the grid edges downstream).
double compress_feature(double value);
/// Inverse of compress_feature on its range.
double decompress_feature(double compressed);

/// Quantizes one value / one full vector onto the grid.
std::uint8_t quantize_feature(double value);
QuantizedVector quantize(const StaticFeatureVector& features);

/// Grid midpoint a code represents, in raw feature space.
double dequantize_feature(std::uint8_t code);
StaticFeatureVector dequantize(const QuantizedVector& quantized);

/// Squared Euclidean distance between code vectors. Max value is
/// 48 * 255^2 < 2^22, so the exact sum always fits 32 bits. Inline: index
/// construction calls it millions of times per large library, and inlined
/// the fixed 48-lane loop vectorizes.
inline std::uint32_t quantized_distance_sq(const QuantizedVector& a,
                                           const QuantizedVector& b) {
  std::uint32_t sum = 0;
  for (std::size_t d = 0; d < static_feature_count; ++d) {
    const std::int32_t delta = static_cast<std::int32_t>(a.codes[d]) -
                               static_cast<std::int32_t>(b.codes[d]);
    sum += static_cast<std::uint32_t>(delta * delta);
  }
  return sum;
}

}  // namespace patchecko::retrieval
