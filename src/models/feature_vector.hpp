#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <string_view>
#include <vector>

#include "workload/document.hpp"

namespace cbs::models {

/// Number of raw numeric features extracted from a document for the QRSM.
inline constexpr std::size_t kNumRawFeatures = 8;

/// Names of the raw features, index-aligned with extract_raw().
[[nodiscard]] const std::array<std::string_view, kNumRawFeatures>& feature_names();

/// Raw feature vector (paper §III.A.1's x_i dimensions): document size,
/// pages, image count, image size, resolution, color fraction, text ratio,
/// coverage. Job type influences the workload's *output* characteristics
/// and is handled outside the response surface.
[[nodiscard]] std::array<double, kNumRawFeatures> extract_raw(
    const cbs::workload::DocumentFeatures& f);

/// Dimension of the full quadratic expansion of n raw features:
/// 1 (intercept) + n (linear) + n(n-1)/2 (interactions) + n (squares).
[[nodiscard]] constexpr std::size_t quadratic_dim(std::size_t n) {
  return 1 + n + n * (n - 1) / 2 + n;
}

/// Dimension of the QRSM's design row.
inline constexpr std::size_t kQuadraticDim = quadratic_dim(kNumRawFeatures);

/// Full quadratic design row y = a + Σ bᵢxᵢ + Σ cᵢⱼxᵢxⱼ + Σ dᵢxᵢ², laid out
/// as [1, x₁..xₙ, x₁x₂, x₁x₃, ..., xₙ₋₁xₙ, x₁², ..., xₙ²]. A fixed-size
/// array, so predict/observe never touch the heap.
[[nodiscard]] std::array<double, kQuadraticDim> quadratic_expand(
    const std::array<double, kNumRawFeatures>& x);

/// Affine per-feature standardization (z = (x - mean) / scale) fitted on a
/// training corpus; keeps the quadratic design matrix well-conditioned.
struct FeatureScaler {
  std::array<double, kNumRawFeatures> mean{};
  std::array<double, kNumRawFeatures> scale{};  // never zero

  /// Fits mean/scale on a corpus. Constant features get scale 1.
  static FeatureScaler fit(
      const std::vector<std::array<double, kNumRawFeatures>>& rows);

  /// Same fit over any range, reading each element's raw features through
  /// `raw_of` (so a caller's buffer need not be copied out first). The
  /// sums run in range order, so the result is bit-identical to fit() on
  /// the copied rows.
  template <typename Range, typename RawOf>
  static FeatureScaler fit(const Range& rows, RawOf raw_of);

  [[nodiscard]] std::array<double, kNumRawFeatures> apply(
      const std::array<double, kNumRawFeatures>& x) const;
};

template <typename Range, typename RawOf>
FeatureScaler FeatureScaler::fit(const Range& rows, RawOf raw_of) {
  // Sums go to locals (not the returned object, which the compiler must
  // assume aliases the rows) so they stay in registers.
  std::array<double, kNumRawFeatures> sum{};
  std::size_t count = 0;
  for (const auto& r : rows) {
    const std::array<double, kNumRawFeatures>& x = raw_of(r);
    for (std::size_t i = 0; i < kNumRawFeatures; ++i) sum[i] += x[i];
    ++count;
  }
  FeatureScaler s;
  s.scale.fill(1.0);
  if (count == 0) return s;

  const auto n = static_cast<double>(count);
  for (std::size_t i = 0; i < kNumRawFeatures; ++i) s.mean[i] = sum[i] / n;

  const std::array<double, kNumRawFeatures> mean = s.mean;
  std::array<double, kNumRawFeatures> var{};
  for (const auto& r : rows) {
    const std::array<double, kNumRawFeatures>& x = raw_of(r);
    for (std::size_t i = 0; i < kNumRawFeatures; ++i) {
      const double d = x[i] - mean[i];
      var[i] += d * d;
    }
  }
  for (std::size_t i = 0; i < kNumRawFeatures; ++i) {
    const double sd = std::sqrt(var[i] / n);
    s.scale[i] = sd > 1e-12 ? sd : 1.0;
  }
  return s;
}

}  // namespace cbs::models
