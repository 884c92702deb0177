#include "retrieval/quantizer.h"

#include <cmath>

namespace patchecko::retrieval {

double compress_feature(double value) {
  if (std::isnan(value)) return 0.0;  // degenerate features sort as zero
  const double magnitude = std::log1p(std::fabs(value));
  return value < 0.0 ? -magnitude : magnitude;
}

double decompress_feature(double compressed) {
  const double magnitude = std::expm1(std::fabs(compressed));
  return compressed < 0.0 ? -magnitude : magnitude;
}

std::uint8_t quantize_feature(double value) {
  const double compressed = compress_feature(value);
  if (compressed <= kGridLo) return 0;
  if (compressed >= kGridHi) return kCodeLevels - 1;
  const double level = (compressed - kGridLo) / kGridStep;
  // llround: ties away from zero, identical on every libm we target, so
  // codes are bit-stable across platforms.
  const long long code = std::llround(level);
  return static_cast<std::uint8_t>(
      code < 0 ? 0 : (code > kCodeLevels - 1 ? kCodeLevels - 1 : code));
}

QuantizedVector quantize(const StaticFeatureVector& features) {
  QuantizedVector out;
  for (std::size_t d = 0; d < static_feature_count; ++d)
    out.codes[d] = quantize_feature(features[d]);
  return out;
}

double dequantize_feature(std::uint8_t code) {
  return decompress_feature(kGridLo + static_cast<double>(code) * kGridStep);
}

StaticFeatureVector dequantize(const QuantizedVector& quantized) {
  StaticFeatureVector out{};
  for (std::size_t d = 0; d < static_feature_count; ++d)
    out[d] = dequantize_feature(quantized.codes[d]);
  return out;
}

}  // namespace patchecko::retrieval
