#include "util/stats.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

namespace patchecko {

Summary summarize(std::span<const double> values) {
  Summary s;
  if (values.empty()) return s;
  s.min = values[0];
  s.max = values[0];
  for (double v : values) {
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
    s.sum += v;
  }
  s.mean = s.sum / static_cast<double>(values.size());
  double var = 0.0;
  for (double v : values) {
    const double d = v - s.mean;
    var += d * d;
  }
  var /= static_cast<double>(values.size());
  s.stddev = std::sqrt(var);
  return s;
}

double minkowski_distance(std::span<const double> x, std::span<const double> y,
                          double p) {
  if (x.size() != y.size())
    throw std::invalid_argument("minkowski_distance: size mismatch");
  if (p <= 0.0) throw std::invalid_argument("minkowski_distance: p must be > 0");
  double acc = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i)
    acc += std::pow(std::abs(x[i] - y[i]), p);
  return std::pow(acc, 1.0 / p);
}

double cosine_similarity(std::span<const double> x,
                         std::span<const double> y) {
  if (x.size() != y.size())
    throw std::invalid_argument("cosine_similarity: size mismatch");
  double dot = 0.0, nx = 0.0, ny = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    dot += x[i] * y[i];
    nx += x[i] * x[i];
    ny += y[i] * y[i];
  }
  if (nx == 0.0 || ny == 0.0) return 0.0;
  return dot / (std::sqrt(nx) * std::sqrt(ny));
}

namespace {

/// log1p(k) for k < 1024, filled at run time by the math library. A plain
/// function, not a lambda: GCC evaluates a constexpr-able initializer at
/// compile time with its own correctly rounded log1p, which can differ
/// from the library's in the last bit.
std::array<double, 1024> small_count_log1p() {
  std::array<double, 1024> table{};
  for (std::size_t k = 1; k < table.size(); ++k)
    table[k] = std::log1p(static_cast<double>(k));
  return table;
}

}  // namespace

double signed_log1p(double v) {
  // Most inputs are small counts (about 83% of a library's feature values),
  // so log1p of the integers below 1024 is computed once: a table entry is
  // the same std::log1p result, bit for bit. Zero stays out of the table,
  // since log1p keeps the sign of a zero.
  static const std::array<double, 1024> table = small_count_log1p();
  if (v >= 1.0 && v < static_cast<double>(table.size())) {
    const auto k = static_cast<std::size_t>(v);
    if (static_cast<double>(k) == v) return table[k];
  }
  return v >= 0.0 ? std::log1p(v) : -std::log1p(-v);
}

double mean_of(std::span<const double> values) {
  if (values.empty()) return 0.0;
  double acc = 0.0;
  for (double v : values) acc += v;
  return acc / static_cast<double>(values.size());
}

}  // namespace patchecko
