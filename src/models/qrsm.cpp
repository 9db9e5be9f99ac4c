#include "models/qrsm.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "linalg/matrix.hpp"
#include "linalg/simd.hpp"

namespace cbs::models {

using cbs::linalg::Matrix;
using cbs::linalg::Vector;
using cbs::linalg::simd::load2;
using cbs::linalg::simd::store2;
using cbs::linalg::simd::V2;

namespace {

constexpr std::size_t kDim = kQuadraticDim;
/// Rows a refit needs: modest oversampling before trusting a quadratic
/// surface.
constexpr std::size_t kMinFitRows = kDim + kDim / 4;
/// Entries of S's upper triangle, diagonal included.
constexpr std::size_t kPackedDim = kDim * (kDim + 1) / 2;

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

/// One row for QrsmModel::fold: an example's raw features and runtime,
/// with the sign it enters the statistics with.
struct SignedRow {
  const Raw& raw;
  double y;
  double sign;
};

double dot_row(const std::array<double, kDim>& row, const Vector& coef) {
  double acc = 0.0;
  for (std::size_t j = 0; j < kDim; ++j) acc += row[j] * coef[j];
  return acc;
}

}  // namespace

/// One stored refit. The key is the state id at the previous refit and the
/// rows observed since; the value is everything the refit wrote, with S
/// packed to its upper triangle (below it is scratch).
struct QrsmModel::RefitEntry {
  std::uint64_t parent;
  std::size_t rows;
  std::array<Example, kMemoKeyRows> observed;

  std::uint64_t child;
  FeatureScaler scaler;
  FeatureScaler frame;
  double mean_runtime;
  bool has_frame;
  std::size_t rows_at_rebuild;
  std::size_t updates_since_rebuild;
  std::array<double, kPackedDim> s;
  std::array<double, kStride> b;
  std::array<double, kDim> coefficients;
  double r_squared;
  double rmse;
  double mape;
  bool used_qr_fallback;
  bool quality_pending;
  std::size_t quality_rows;
};

/// The refit table a model shares with its copies: kMemoCapacity entries
/// allocated once, replaced oldest first. Keys are compared with memcmp,
/// so a hit is the same state fed the same rows bit for bit, never a hash
/// match.
class QrsmModel::RefitMemo {
 public:
  // Not zeroed: find() reads only entries insert() has written.
  RefitMemo()
      : entries_(std::make_unique_for_overwrite<RefitEntry[]>(kMemoCapacity)) {}

  /// The entry for `parent` fed the last `rows` rows of `buffer`, if any.
  [[nodiscard]] const RefitEntry* find(std::uint64_t parent,
                                       const std::deque<Example>& buffer,
                                       std::size_t rows) const {
    static_assert(sizeof(Example) == (kNumRawFeatures + 1) * sizeof(double),
                  "memcmp compares an Example's doubles and nothing else");
    const std::size_t first = buffer.size() - rows;
    for (std::size_t i = 0; i < used_; ++i) {
      const RefitEntry& e = entries_[i];
      if (e.parent != parent || e.rows != rows) continue;
      std::size_t k = 0;
      while (k < rows && std::memcmp(&e.observed[k], &buffer[first + k],
                                     sizeof(Example)) == 0) {
        ++k;
      }
      if (k == rows) return &e;
    }
    return nullptr;
  }

  /// Overwrites the oldest entry with the key, and a new id for the state
  /// the refit left; the caller fills in the value.
  RefitEntry& insert(std::uint64_t parent, const std::deque<Example>& buffer,
                     std::size_t rows) {
    RefitEntry& e = entries_[next_];
    next_ = (next_ + 1) % kMemoCapacity;
    used_ = std::min(used_ + 1, kMemoCapacity);
    e.parent = parent;
    e.rows = rows;
    std::copy(buffer.end() - static_cast<std::ptrdiff_t>(rows), buffer.end(),
              e.observed.begin());
    e.child = fresh_state();
    return e;
  }

  [[nodiscard]] std::uint64_t fresh_state() noexcept { return next_state_++; }
  [[nodiscard]] std::size_t entries() const noexcept { return used_; }

  std::size_t lookups = 0;
  std::size_t hits = 0;

 private:
  std::unique_ptr<RefitEntry[]> entries_;
  std::size_t used_ = 0;
  std::size_t next_ = 0;  ///< the oldest entry once the table is full
  std::uint64_t next_state_ = 1;
};

std::shared_ptr<QrsmModel::RefitMemo> QrsmModel::MemoLink::shared() const {
  if (!memo && state != 0) {
    memo = std::make_shared<RefitMemo>();
    state = memo->fresh_state();
  }
  return memo;
}

void QrsmModel::MemoLink::advance() {
  state = memo ? memo->fresh_state() : 1;
}

QrsmModel::MemoStats QrsmModel::memo_stats() const noexcept {
  if (!link_.memo) return {};
  return {link_.memo->entries(), link_.memo->lookups, link_.memo->hits};
}

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
  pending_count_ = 0;
  for (std::size_t i = 0; i < features.size(); ++i) {
    buffer_.push_back(Example{extract_raw(features[i]), runtimes[i]});
    if (config_.window > 0 && buffer_.size() > config_.window) buffer_.pop_front();
  }
  total_observed_ += features.size();
  since_refit_ = 0;
  if (buffered() >= kMinFitRows) refit_window();
  link_.advance();  // a new window, so no key leads here
}

void QrsmModel::observe(const cbs::workload::DocumentFeatures& features,
                        double runtime) {
  assert(runtime >= 0.0);
  buffer_.push_back(Example{extract_raw(features), runtime});
  if (has_frame_) {
    record_pending(buffer_.back(), 1.0);
    ++updates_since_rebuild_;
  }
  if (config_.window > 0 && buffered() > config_.window) {
    if (has_frame_) record_pending(buffer_[retired_], -1.0);
    ++retired_;
    if (!quality_pending_) drop_retired();
  }
  ++total_observed_;
  if (++since_refit_ >= config_.refit_interval) {
    refit();
  }
}

void QrsmModel::record_pending(const Example& ex, double sign) {
  if (pending_count_ == kMaxPendingRows) fold_pending();
  pending_[pending_count_++] = PendingRow{ex, sign};
}

template <typename RowAt>
void QrsmModel::fold(std::size_t count, RowAt row_at) {
  // Expands the rows in the reference frame into a padded block on the
  // stack (32 rows, 12 KB) and hands each block to the Gram kernel. The
  // kernel keeps every entry's terms in row order and skips a zero φᵢ
  // (and the moment sum a zero y), so the statistics are what adding
  // (sign = +1) or subtracting (sign = −1) one row at a time in this
  // order gives: (−a)·r is exactly −(a·r).
  constexpr std::size_t kBlock = 32;
  std::array<double, kBlock * kStride> rows;  // rows [0, m) written below
  std::array<double, kBlock> sign;
  std::array<double, kBlock> weight;
  for (std::size_t k0 = 0; k0 < count; k0 += kBlock) {
    const std::size_t m = std::min(kBlock, count - k0);
    for (std::size_t r = 0; r < m; ++r) {
      const SignedRow row = row_at(k0 + r);
      const auto phi = quadratic_expand(frame_.apply(row.raw));
      double* dst = rows.data() + r * kStride;
      std::copy(phi.begin(), phi.end(), dst);
      std::fill(dst + kDim, dst + kStride, 0.0);
      sign[r] = row.sign;
      weight[r] = row.sign * row.y;
    }
    cbs::linalg::gram_accumulate(rows.data(), kStride, m, kStride, sign.data(),
                                 xtx_.data(), kStride);
    cbs::linalg::moment_accumulate(rows.data(), kStride, m, kStride,
                                   weight.data(), xty_.data());
  }
}

void QrsmModel::fold_pending() {
  fold(pending_count_, [this](std::size_t k) {
    const PendingRow& p = pending_[k];
    return SignedRow{p.ex.raw, p.ex.y, p.sign};
  });
  pending_count_ = 0;
}

void QrsmModel::rebuild_statistics() {
  frame_ = scaler_;
  xtx_.fill(0.0);
  xty_.fill(0.0);
  fold(buffer_.size(), [this](std::size_t k) {
    return SignedRow{buffer_[k].raw, buffer_[k].y, 1.0};
  });
  has_frame_ = true;
  rows_at_rebuild_ = buffer_.size();
  updates_since_rebuild_ = 0;
  pending_count_ = 0;  // already in the rebuilt statistics
}

bool QrsmModel::solve_from_statistics(std::array<double, kDim>& x) {
  // z = (x − m)/s = αu + β with u = (x − m₀)/s₀, so φ(z) = T·φ(u) and the
  // normal equations in the z frame are G = T S Tᵀ, c = T b.
  Raw alpha{};
  Raw beta{};
  for (std::size_t i = 0; i < kNumRawFeatures; ++i) {
    alpha[i] = frame_.scale[i] / scaler_.scale[i];
    beta[i] = (frame_.mean[i] - scaler_.mean[i]) / scaler_.scale[i];
  }
  const std::array<MapRow, kDim> t = frame_map(alpha, beta);

  // S in full: the lower triangle of xtx_ is scratch, so mirror into it.
  for (std::size_t a = 0; a < kDim; ++a) {
    for (std::size_t b = a + 1; b < kDim; ++b) {
      xtx_[b * kStride + a] = xtx_[a * kStride + b];
    }
  }
  // G = M Tᵀ with M = T S, a row at a time: row p of M mixes at most four
  // rows of S, and row p of G reads row p of M only. Each entry of M is
  // 0 + w₀·s₀ + w₁·s₁ + … in T's term order, eight entries at a time in
  // registers (S's zero padding makes the last lanes zero).
  static_assert(kStride % 8 == 0);
  std::array<double, kDim * kStride> g;  // G's upper triangle
  std::array<double, kStride> mp;
  for (std::size_t p = 0; p < kDim; ++p) {
    for (std::size_t b = 0; b < kStride; b += 8) {
      V2 m0{};
      V2 m1{};
      V2 m2{};
      V2 m3{};
      for (std::size_t k = 0; k < t[p].size; ++k) {
        const double* sa = xtx_.data() + t[p].col[k] * kStride + b;
        const double w = t[p].coef[k];
        m0 += w * load2(sa);
        m1 += w * load2(sa + 2);
        m2 += w * load2(sa + 4);
        m3 += w * load2(sa + 6);
      }
      store2(mp.data() + b, m0);
      store2(mp.data() + b + 2, m1);
      store2(mp.data() + b + 4, m2);
      store2(mp.data() + b + 6, m3);
    }
    for (std::size_t q = p; q < kDim; ++q) {
      double acc = 0.0;
      for (std::size_t k = 0; k < t[q].size; ++k) {
        acc += t[q].coef[k] * mp[t[q].col[k]];
      }
      g[p * kStride + q] = acc;
    }
    double c = 0.0;
    for (std::size_t k = 0; k < t[p].size; ++k) {
      c += t[p].coef[k] * xty_[t[p].col[k]];
    }
    x[p] = c;
  }
  return cbs::linalg::solve_ridge_normal_in_place(
      g.data(), kDim, kStride, config_.ridge_lambda, x.data());
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
  const std::size_t rows = since_refit_;
  since_refit_ = 0;
  // (A quality is pending only after a refit that had enough rows, and
  // the window never shrinks between refits, so nothing is kept here;
  // nor is anything pending before the first refit that has enough rows.)
  if (buffered() < kMinFitRows) {
    link_.advance();
    return;
  }
  drop_retired();  // the previous fit's quality, if still pending, is moot

  // The state at the previous refit fed the last `rows` rows of the
  // window (a window that fits holds more rows than a key): a key the
  // table may hold.
  static_assert(kMemoKeyRows <= kMinFitRows);
  RefitMemo* memo = link_.memo.get();
  if (memo == nullptr || rows > kMemoKeyRows) {
    refit_window();
    link_.advance();
    return;
  }
  ++memo->lookups;
  if (const RefitEntry* hit = memo->find(link_.state, buffer_, rows)) {
    ++memo->hits;
    restore_refit(*hit);
    link_.state = hit->child;
    return;
  }
  refit_window();
  RefitEntry& stored = memo->insert(link_.state, buffer_, rows);
  save_refit(stored);
  link_.state = stored.child;
}

void QrsmModel::refit_window() {
  assert(buffered() >= kMinFitRows && retired_ == 0);
  assert(has_frame_ || pending_count_ == 0);
  double runtime_sum = 0.0;
  scaler_ = FeatureScaler::fit(
      buffer_, [](const Example& ex) -> const Raw& { return ex.raw; },
      [&runtime_sum](const Example& ex) { runtime_sum += ex.y; });
  mean_runtime_ = runtime_sum / static_cast<double>(buffer_.size());

  if (!has_frame_ || updates_since_rebuild_ >= rows_at_rebuild_) {
    rebuild_statistics();
  } else {
    fold_pending();
  }
  std::array<double, kDim> x;
  if (!solve_from_statistics(x)) {
    fit_ = fit_from_design_matrix();  // reports its quality itself
    quality_pending_ = false;
    return;
  }

  // Reuses the previous fit's coefficient storage: no allocation.
  if (!fit_) fit_.emplace();
  fit_->coefficients.assign(x.begin(), x.end());
  fit_->r_squared = 0.0;
  fit_->rmse = 0.0;
  fit_->mape = 0.0;
  fit_->used_qr_fallback = false;
  quality_pending_ = true;
  quality_rows_ = buffer_.size();
}

void QrsmModel::save_refit(RefitEntry& e) const {
  e.scaler = scaler_;
  e.frame = frame_;
  e.mean_runtime = mean_runtime_;
  e.has_frame = has_frame_;
  e.rows_at_rebuild = rows_at_rebuild_;
  e.updates_since_rebuild = updates_since_rebuild_;
  std::size_t k = 0;
  for (std::size_t a = 0; a < kDim; ++a) {
    for (std::size_t b = a; b < kDim; ++b) e.s[k++] = xtx_[a * kStride + b];
  }
  e.b = xty_;
  assert(fit_->coefficients.size() == kDim);
  std::copy(fit_->coefficients.begin(), fit_->coefficients.end(),
            e.coefficients.begin());
  e.r_squared = fit_->r_squared;
  e.rmse = fit_->rmse;
  e.mape = fit_->mape;
  e.used_qr_fallback = fit_->used_qr_fallback;
  e.quality_pending = quality_pending_;
  e.quality_rows = quality_rows_;
}

void QrsmModel::restore_refit(const RefitEntry& e) {
  scaler_ = e.scaler;
  frame_ = e.frame;
  mean_runtime_ = e.mean_runtime;
  has_frame_ = e.has_frame;
  rows_at_rebuild_ = e.rows_at_rebuild;
  updates_since_rebuild_ = e.updates_since_rebuild;
  pending_count_ = 0;  // folded, or dropped by a rebuild
  // Below the diagonal is scratch, and the padding is zero in both.
  std::size_t k = 0;
  for (std::size_t a = 0; a < kDim; ++a) {
    for (std::size_t b = a; b < kDim; ++b) xtx_[a * kStride + b] = e.s[k++];
  }
  xty_ = e.b;
  // Reuses the coefficient storage, as a refit does: no allocation.
  if (!fit_) fit_.emplace();
  fit_->coefficients.assign(e.coefficients.begin(), e.coefficients.end());
  fit_->r_squared = e.r_squared;
  fit_->rmse = e.rmse;
  fit_->mape = e.mape;
  fit_->used_qr_fallback = e.used_qr_fallback;
  quality_pending_ = e.quality_pending;
  quality_rows_ = e.quality_rows;
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
