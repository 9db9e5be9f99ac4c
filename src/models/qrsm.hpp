#pragma once

#include <array>
#include <cstddef>
#include <deque>
#include <optional>
#include <vector>

#include "linalg/least_squares.hpp"
#include "models/feature_vector.hpp"
#include "workload/document.hpp"

namespace cbs::models {

/// Quadratic Response Surface Model for processing time (paper §III.A.1):
///
///   y = a + Σ bᵢxᵢ + Σ cᵢⱼxᵢxⱼ + Σ dᵢxᵢ²
///
/// over the standardized document features. The model is fitted by ridge
/// least squares ("learnt as the solution to a linear programming model" in
/// the paper; we use the standard response-surface fitting of Myers &
/// Montgomery, which is penalized least squares) and re-tuned online from
/// observed (features, actual runtime) pairs, exactly the autonomic loop
/// the paper describes: start from a factory prior trained on a standard
/// corpus, then adapt to the deployment.
///
/// Refits cost O(dim²) per observation, not O(window · dim²) per refit: the
/// model keeps the window's sufficient statistics S = Σφ(u)φ(u)ᵀ and
/// b = Σφ(u)·y in a fixed reference frame u = (x − m₀)/s₀, adds each new
/// row and subtracts each evicted one, and maps them into the window's own
/// standardization at refit time (DESIGN.md §9). They are rebuilt exactly
/// from the buffer, re-anchoring the frame, once as many rows have been
/// folded in incrementally as the window held at the last rebuild — which
/// bounds drift at an amortized O(dim²) per observation.
///
/// observe() only records the new and the evicted row; the refit folds
/// those signed rows into S and b in one pass of the Gram kernel
/// (linalg::gram_accumulate), in observation order, so every entry sums
/// the same terms in the same order as an add-and-subtract per
/// observation would. A refit that rebuilds drops them unfolded. The solve
/// runs on fixed-size storage: a refit allocates nothing.
///
/// Fit quality (r², rmse, mape) is an O(window · dim) pass that only
/// reports read, so a refit leaves it pending and the first last_fit()
/// after the refit computes it over that refit's window, in the same row
/// order. Rows evicted while it is pending stay stored (behind the live
/// window) until it is computed or the next refit supersedes it: at most
/// `refit_interval` extra rows.
class QrsmModel {
 public:
  struct Config {
    double ridge_lambda = 1.0e-3;
    /// Online buffer: refit happens every `refit_interval` observations,
    /// using at most `window` most recent pairs. A window of 0 keeps all.
    std::size_t refit_interval = 32;
    std::size_t window = 4096;
    /// Predictions are clamped below by this (a job is never free).
    double min_prediction_seconds = 1.0;
  };

  QrsmModel() : QrsmModel(Config{}) {}
  explicit QrsmModel(Config config);

  /// Fits from scratch on a labeled corpus. Requires at least
  /// `quadratic_dim(kNumRawFeatures)` rows. Replaces any previous state and
  /// seeds the online buffer with the corpus.
  void fit(const std::vector<cbs::workload::DocumentFeatures>& features,
           const std::vector<double>& runtimes);

  /// Records an observed (features, runtime) pair; refits automatically
  /// every `refit_interval` observations once enough data exists.
  void observe(const cbs::workload::DocumentFeatures& features, double runtime);

  /// Predicted processing seconds on a standard machine. Falls back to the
  /// mean observed runtime (or min_prediction_seconds) before the first fit.
  [[nodiscard]] double predict(const cbs::workload::DocumentFeatures& features) const;

  [[nodiscard]] bool is_fitted() const noexcept { return fit_.has_value(); }
  /// Coefficients and goodness of fit of the most recent refit, over that
  /// refit's training window (computed here on the first read).
  [[nodiscard]] const std::optional<cbs::linalg::FitResult>& last_fit() const;
  [[nodiscard]] std::size_t observations() const noexcept { return total_observed_; }
  /// Examples in the training window.
  [[nodiscard]] std::size_t buffered() const noexcept {
    return buffer_.size() - retired_;
  }
  /// Examples held in memory: the window plus evicted rows kept for a
  /// pending fit-quality read (at most `refit_interval` of them).
  [[nodiscard]] std::size_t stored_rows() const noexcept {
    return buffer_.size();
  }
  /// Signed rows recorded since the statistics were last folded: at most
  /// two per observation since the last refit (the new and the evicted
  /// row), and never more than kMaxPendingRows.
  [[nodiscard]] std::size_t pending_rows() const noexcept {
    return pending_count_;
  }
  /// Capacity of the pending-row store; a full store is folded at once.
  static constexpr std::size_t kMaxPendingRows = 64;

  /// Forces a refit on the current buffer (no-op when data is insufficient).
  void refit();

 private:
  struct Example {
    std::array<double, kNumRawFeatures> raw;
    double y;
  };

  /// An example to add to (sign = +1) or remove from (sign = −1) the
  /// sufficient statistics at the next fold.
  struct PendingRow {
    Example ex;
    double sign;
  };
  /// Row stride of the statistics: the design row padded to a multiple of
  /// four, the Gram kernel's block width (the padding stays zero).
  static constexpr std::size_t kStride = (kQuadraticDim + 3) / 4 * 4;

  /// Records a signed row for the next fold (folding first if full).
  void record_pending(const Example& ex, double sign);
  /// Folds `count` signed rows, row_at(k) for k = 0, 1, …, into the
  /// statistics in the reference frame, in that order.
  template <typename RowAt>
  void fold(std::size_t count, RowAt row_at);
  /// Folds the pending rows into the statistics, in recording order.
  void fold_pending();
  /// Recomputes the statistics exactly from the buffer in the frame of
  /// `scaler_`, which becomes the new reference frame; pending rows are
  /// dropped.
  void rebuild_statistics();
  /// Solves the ridge system mapped into the `scaler_` frame into `x`;
  /// false when Cholesky fails. Overwrites the scratch lower triangle of
  /// the statistics.
  [[nodiscard]] bool solve_from_statistics(
      std::array<double, kQuadraticDim>& x);
  /// Computes a pending fit quality: r², rmse and mape of `fit_` over the
  /// first `quality_rows_` stored rows (FitQuality's formulas).
  void settle_quality() const;
  /// Drops the evicted rows stored ahead of the window.
  void drop_retired();
  /// The old path: design matrix + ridge_least_squares (QR fallback).
  [[nodiscard]] cbs::linalg::FitResult fit_from_design_matrix() const;

  Config config_;
  /// Evicted rows kept for a pending quality read (the first `retired_`),
  /// then the window.
  std::deque<Example> buffer_;
  std::size_t retired_ = 0;
  std::size_t total_observed_ = 0;
  std::size_t since_refit_ = 0;
  FeatureScaler scaler_;
  // last_fit() fills in a pending quality; both stay value state, so a
  // copy taken while it is pending computes the same numbers.
  mutable std::optional<cbs::linalg::FitResult> fit_;
  mutable bool quality_pending_ = false;
  std::size_t quality_rows_ = 0;  ///< the pending refit's window length
  double mean_runtime_ = 0.0;  // fallback prediction before first fit

  // Sufficient statistics of the window, valid once `has_frame_` (the
  // first refit with enough data builds them).
  bool has_frame_ = false;
  FeatureScaler frame_;  ///< the reference frame u = (x − m₀)/s₀
  std::size_t rows_at_rebuild_ = 0;
  std::size_t updates_since_rebuild_ = 0;
  std::array<PendingRow, kMaxPendingRows> pending_{};
  std::size_t pending_count_ = 0;
  /// S, row-major with rows of kStride: the upper triangle. Below the
  /// diagonal is scratch (the Gram kernel's diagonal blocks, the solve's
  /// mirror); the padding columns hold the zero padding of φ's products.
  /// Rows start on 16 bytes, so the kernels' two-lane loads never split a
  /// cache line (alignas up to max_align_t keeps plain operator new).
  alignas(16) std::array<double, kStride * kStride> xtx_{};
  std::array<double, kStride> xty_{};
};

}  // namespace cbs::models
