#include "models/feature_vector.hpp"

#include <utility>

namespace cbs::models {

const std::array<std::string_view, kNumRawFeatures>& feature_names() {
  static const std::array<std::string_view, kNumRawFeatures> names = {
      "size_mb",        "pages",      "num_images", "avg_image_mb",
      "resolution_dpi", "color_frac", "text_ratio", "coverage",
  };
  return names;
}

std::array<double, kNumRawFeatures> extract_raw(
    const cbs::workload::DocumentFeatures& f) {
  return {
      f.size_mb,
      static_cast<double>(f.pages),
      static_cast<double>(f.num_images),
      f.avg_image_mb,
      f.resolution_dpi,
      f.color_fraction,
      f.text_ratio,
      f.coverage,
  };
}

namespace {

constexpr std::size_t kCrossTerms =
    kNumRawFeatures * (kNumRawFeatures - 1) / 2;
using IndexPair = std::pair<std::size_t, std::size_t>;

/// (i, j), i < j, of every interaction term in row order.
constexpr std::array<IndexPair, kCrossTerms> kCrossPairs = [] {
  std::array<IndexPair, kCrossTerms> pairs{};
  std::size_t k = 0;
  for (std::size_t i = 0; i < kNumRawFeatures; ++i) {
    for (std::size_t j = i + 1; j < kNumRawFeatures; ++j) pairs[k++] = {i, j};
  }
  return pairs;
}();

// Expanded at compile time: the expansion runs for every window row at
// every refit, and a loop nest with varying trip counts is not unrolled.
template <std::size_t... K>
void fill_cross_terms(const std::array<double, kNumRawFeatures>& x, double* out,
                      std::index_sequence<K...>) {
  ((out[K] = x[kCrossPairs[K].first] * x[kCrossPairs[K].second]), ...);
}

}  // namespace

std::array<double, kQuadraticDim> quadratic_expand(
    const std::array<double, kNumRawFeatures>& x) {
  constexpr std::size_t n = kNumRawFeatures;
  static_assert(kQuadraticDim == 1 + n + kCrossTerms + n);
  std::array<double, kQuadraticDim> row;  // every element written below
  row[0] = 1.0;
  for (std::size_t i = 0; i < n; ++i) row[1 + i] = x[i];
  fill_cross_terms(x, row.data() + 1 + n,
                   std::make_index_sequence<kCrossTerms>{});
  double* squares = row.data() + 1 + n + kCrossTerms;
  for (std::size_t i = 0; i < n; ++i) squares[i] = x[i] * x[i];
  return row;
}

FeatureScaler FeatureScaler::fit(
    const std::vector<std::array<double, kNumRawFeatures>>& rows) {
  using Raw = std::array<double, kNumRawFeatures>;
  return fit(rows, [](const Raw& r) -> const Raw& { return r; });
}

std::array<double, kNumRawFeatures> FeatureScaler::apply(
    const std::array<double, kNumRawFeatures>& x) const {
  std::array<double, kNumRawFeatures> z{};
  for (std::size_t i = 0; i < kNumRawFeatures; ++i) {
    z[i] = (x[i] - mean[i]) / scale[i];
  }
  return z;
}

}  // namespace cbs::models
