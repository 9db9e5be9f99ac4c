#include "models/qrsm.hpp"

#include <algorithm>
#include <cassert>

namespace cbs::models {

using cbs::linalg::Matrix;
using cbs::linalg::Vector;

namespace {

constexpr std::size_t kDim = kQuadraticDim;

/// One row of the sparse affine map T with φ(αu + β) = T·φ(u): at most
/// four nonzero coefficients (a product term expands into the product, two
/// linear terms and the intercept).
struct MapRow {
  std::array<std::size_t, 4> col{};
  std::array<double, 4> coef{};
  std::size_t size = 0;

  void add(std::size_t c, double v) {
    col[size] = c;
    coef[size] = v;
    ++size;
  }
};

using Raw = std::array<double, kNumRawFeatures>;

/// T for the change of frame z = αu + β, rows in quadratic_expand's layout.
std::array<MapRow, kDim> frame_map(const Raw& alpha, const Raw& beta) {
  constexpr std::size_t n = kNumRawFeatures;
  std::array<MapRow, kDim> t{};
  std::size_t p = 0;
  t[p++].add(0, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    t[p].add(1 + i, alpha[i]);
    t[p++].add(0, beta[i]);
  }
  std::size_t cross = 1 + n;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      // z_i z_j = α_iα_j u_iu_j + α_iβ_j u_i + β_iα_j u_j + β_iβ_j
      t[p].add(cross++, alpha[i] * alpha[j]);
      t[p].add(1 + i, alpha[i] * beta[j]);
      t[p].add(1 + j, beta[i] * alpha[j]);
      t[p++].add(0, beta[i] * beta[j]);
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    // z_i² = α_i² u_i² + 2α_iβ_i u_i + β_i²
    t[p].add(cross + i, alpha[i] * alpha[i]);
    t[p].add(1 + i, 2.0 * alpha[i] * beta[i]);
    t[p++].add(0, beta[i] * beta[i]);
  }
  assert(p == kDim);
  return t;
}

double dot_row(const std::array<double, kDim>& row, const Vector& coef) {
  double acc = 0.0;
  for (std::size_t j = 0; j < kDim; ++j) acc += row[j] * coef[j];
  return acc;
}

}  // namespace

QrsmModel::QrsmModel(Config config) : config_(config) {
  assert(config.ridge_lambda >= 0.0);
  assert(config.refit_interval > 0);
  assert(config.min_prediction_seconds >= 0.0);
}

void QrsmModel::fit(const std::vector<cbs::workload::DocumentFeatures>& features,
                    const std::vector<double>& runtimes) {
  assert(features.size() == runtimes.size());
  // The previous fit stays current if the corpus is too small to refit.
  settle_quality();
  buffer_.clear();
  retired_ = 0;
  has_frame_ = false;
  for (std::size_t i = 0; i < features.size(); ++i) {
    buffer_.push_back(Example{extract_raw(features[i]), runtimes[i]});
    if (config_.window > 0 && buffer_.size() > config_.window) buffer_.pop_front();
  }
  total_observed_ += features.size();
  since_refit_ = 0;
  refit();
}

void QrsmModel::observe(const cbs::workload::DocumentFeatures& features,
                        double runtime) {
  assert(runtime >= 0.0);
  buffer_.push_back(Example{extract_raw(features), runtime});
  if (has_frame_) {
    accumulate(buffer_.back(), 1.0);
    ++updates_since_rebuild_;
  }
  if (config_.window > 0 && buffered() > config_.window) {
    if (has_frame_) accumulate(buffer_[retired_], -1.0);
    ++retired_;
    if (!quality_pending_) drop_retired();
  }
  ++total_observed_;
  if (++since_refit_ >= config_.refit_interval) {
    refit();
  }
}

void QrsmModel::accumulate(const Example& ex, double sign) {
  // Same per-entry order as Matrix::gram / transpose_times, so a rebuild
  // reproduces the design-matrix Gram bit for bit; sign is ±1, so adding
  // (−a)·r is exactly subtracting a·r.
  const auto row = quadratic_expand(frame_.apply(ex.raw));
  for (std::size_t i = 0; i < kDim; ++i) {
    if (row[i] == 0.0) continue;
    const double a = sign * row[i];
    double* s = xtx_.data() + i * kDim;
    for (std::size_t j = i; j < kDim; ++j) s[j] += a * row[j];
  }
  if (ex.y == 0.0) return;
  const double w = sign * ex.y;
  for (std::size_t c = 0; c < kDim; ++c) xty_[c] += row[c] * w;
}

void QrsmModel::rebuild_statistics() {
  frame_ = scaler_;
  xtx_.fill(0.0);
  xty_.fill(0.0);
  for (const Example& ex : buffer_) accumulate(ex, 1.0);
  has_frame_ = true;
  rows_at_rebuild_ = buffer_.size();
  updates_since_rebuild_ = 0;
}

std::optional<Vector> QrsmModel::solve_from_statistics() const {
  // z = (x − m)/s = αu + β with u = (x − m₀)/s₀, so φ(z) = T·φ(u) and the
  // normal equations in the z frame are G = T S Tᵀ, c = T b.
  Raw alpha{};
  Raw beta{};
  for (std::size_t i = 0; i < kNumRawFeatures; ++i) {
    alpha[i] = frame_.scale[i] / scaler_.scale[i];
    beta[i] = (frame_.mean[i] - scaler_.mean[i]) / scaler_.scale[i];
  }
  const std::array<MapRow, kDim> t = frame_map(alpha, beta);

  // M = T S (row p of M mixes at most four rows of S), then G = M Tᵀ.
  Matrix full(kDim, kDim);  // S with its lower triangle mirrored
  for (std::size_t a = 0; a < kDim; ++a) {
    for (std::size_t b = a; b < kDim; ++b) {
      full(a, b) = full(b, a) = xtx_[a * kDim + b];
    }
  }
  Matrix m(kDim, kDim);
  for (std::size_t p = 0; p < kDim; ++p) {
    double* mp = m.row_data(p);
    for (std::size_t k = 0; k < t[p].size; ++k) {
      const double* sa = full.row_data(t[p].col[k]);
      const double w = t[p].coef[k];
      for (std::size_t b = 0; b < kDim; ++b) mp[b] += w * sa[b];
    }
  }
  Matrix& g = full;  // S is no longer needed
  Vector c(kDim, 0.0);
  for (std::size_t p = 0; p < kDim; ++p) {
    for (std::size_t q = p; q < kDim; ++q) {
      double acc = 0.0;
      for (std::size_t k = 0; k < t[q].size; ++k) {
        acc += t[q].coef[k] * m(p, t[q].col[k]);
      }
      g(p, q) = g(q, p) = acc;
    }
    for (std::size_t k = 0; k < t[p].size; ++k) {
      c[p] += t[p].coef[k] * xty_[t[p].col[k]];
    }
  }
  return cbs::linalg::solve_ridge_normal(std::move(g), c,
                                         config_.ridge_lambda);
}

cbs::linalg::FitResult QrsmModel::fit_from_design_matrix() const {
  Matrix design(buffer_.size(), kDim);
  Vector y(buffer_.size());
  for (std::size_t r = 0; r < buffer_.size(); ++r) {
    const auto row = quadratic_expand(scaler_.apply(buffer_[r].raw));
    std::copy(row.begin(), row.end(), design.row_data(r));
    y[r] = buffer_[r].y;
  }
  return cbs::linalg::ridge_least_squares(design, y, config_.ridge_lambda);
}

void QrsmModel::refit() {
  since_refit_ = 0;
  // Require modest oversampling before trusting a quadratic surface.
  // (A quality is pending only after a refit that had enough rows, and
  // the window never shrinks between refits, so nothing is kept here.)
  if (buffered() < kDim + kDim / 4) return;
  drop_retired();  // the previous fit's quality, if still pending, is moot

  scaler_ = FeatureScaler::fit(
      buffer_, [](const Example& ex) -> const Raw& { return ex.raw; });
  double runtime_sum = 0.0;
  for (const Example& ex : buffer_) runtime_sum += ex.y;
  mean_runtime_ = runtime_sum / static_cast<double>(buffer_.size());

  if (!has_frame_ || updates_since_rebuild_ >= rows_at_rebuild_) {
    rebuild_statistics();
  }
  auto coefficients = solve_from_statistics();
  if (!coefficients) {
    fit_ = fit_from_design_matrix();  // reports its quality itself
    quality_pending_ = false;
    return;
  }

  cbs::linalg::FitResult fit;
  fit.coefficients = std::move(*coefficients);
  fit_ = std::move(fit);
  quality_pending_ = true;
  quality_rows_ = buffer_.size();
}

const std::optional<cbs::linalg::FitResult>& QrsmModel::last_fit() const {
  settle_quality();
  return fit_;
}

void QrsmModel::settle_quality() const {
  if (!quality_pending_) return;
  quality_pending_ = false;
  // One pass over the refit's window that allocates nothing. Rows evicted
  // since the refit are still stored ahead of the live window, and scaler_
  // and mean_runtime_ change only at a refit, so this is the pass the
  // refit would have made; each prediction is predict()'s own dot product,
  // so the numbers match the design-matrix path bit for bit when the
  // coefficients do.
  cbs::linalg::FitQuality quality(mean_runtime_);
  for (std::size_t r = 0; r < quality_rows_; ++r) {
    const Example& ex = buffer_[r];
    const auto row = quadratic_expand(scaler_.apply(ex.raw));
    quality.add(ex.y, dot_row(row, fit_->coefficients));
  }
  quality.finish(*fit_);
}

void QrsmModel::drop_retired() {
  buffer_.erase(buffer_.begin(),
                buffer_.begin() + static_cast<std::ptrdiff_t>(retired_));
  retired_ = 0;
}

double QrsmModel::predict(const cbs::workload::DocumentFeatures& features) const {
  if (!fit_) {
    // Cold start: mean of whatever has been seen, else the configured floor.
    double fallback = config_.min_prediction_seconds;
    if (!buffer_.empty()) {  // no fit, so no evicted rows kept
      double sum = 0.0;
      for (const auto& ex : buffer_) sum += ex.y;
      fallback = sum / static_cast<double>(buffer_.size());
    }
    return std::max(fallback, config_.min_prediction_seconds);
  }
  const auto row = quadratic_expand(scaler_.apply(extract_raw(features)));
  const double y = dot_row(row, fit_->coefficients);
  return std::max(y, config_.min_prediction_seconds);
}

}  // namespace cbs::models
