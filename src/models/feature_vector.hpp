#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <string_view>
#include <vector>

#include "linalg/simd.hpp"
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

  /// Same, also calling `visit(row)` on every row, in range order, during
  /// the first pass, so a caller's own per-row sums cost no extra pass.
  template <typename Range, typename RawOf, typename Visit>
  static FeatureScaler fit(const Range& rows, RawOf raw_of, Visit visit);

  [[nodiscard]] std::array<double, kNumRawFeatures> apply(
      const std::array<double, kNumRawFeatures>& x) const;
};

template <typename Range, typename RawOf>
FeatureScaler FeatureScaler::fit(const Range& rows, RawOf raw_of) {
  return fit(rows, raw_of, [](const auto&) {});
}

template <typename Range, typename RawOf, typename Visit>
FeatureScaler FeatureScaler::fit(const Range& rows, RawOf raw_of, Visit visit) {
  // One lane per feature, each lane's sum in row order, so the bits are
  // those of a scalar loop per feature. The lanes live in named locals:
  // at -O2 an array of accumulators indexed in a loop stays in memory,
  // and these passes run over the whole QRSM window at every refit.
  static_assert(kNumRawFeatures == 8, "the passes below hold eight lanes");
  using cbs::linalg::simd::load2;
  using cbs::linalg::simd::V2;
  V2 s0{};
  V2 s1{};
  V2 s2{};
  V2 s3{};
  std::size_t count = 0;
  for (const auto& r : rows) {
    const double* x = raw_of(r).data();
    s0 += load2(x);
    s1 += load2(x + 2);
    s2 += load2(x + 4);
    s3 += load2(x + 6);
    visit(r);
    ++count;
  }
  FeatureScaler s;
  s.scale.fill(1.0);
  if (count == 0) return s;

  const auto n = static_cast<double>(count);
  const V2 m0 = s0 / n;
  const V2 m1 = s1 / n;
  const V2 m2 = s2 / n;
  const V2 m3 = s3 / n;
  V2 v0{};
  V2 v1{};
  V2 v2{};
  V2 v3{};
  for (const auto& r : rows) {
    const double* x = raw_of(r).data();
    const V2 d0 = load2(x) - m0;
    const V2 d1 = load2(x + 2) - m1;
    const V2 d2 = load2(x + 4) - m2;
    const V2 d3 = load2(x + 6) - m3;
    v0 += d0 * d0;
    v1 += d1 * d1;
    v2 += d2 * d2;
    v3 += d3 * d3;
  }
  const std::array<V2, 4> means = {m0, m1, m2, m3};
  const std::array<V2, 4> vars = {v0, v1, v2, v3};
  for (std::size_t i = 0; i < kNumRawFeatures; ++i) {
    s.mean[i] = means[i / 2][i % 2];
    const double sd = std::sqrt(vars[i / 2][i % 2] / n);
    s.scale[i] = sd > 1e-12 ? sd : 1.0;
  }
  return s;
}

}  // namespace cbs::models
