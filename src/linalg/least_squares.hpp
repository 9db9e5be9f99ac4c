#pragma once

#include <cstddef>
#include <optional>

#include "linalg/matrix.hpp"

namespace cbs::linalg {

/// Result of a least-squares fit, with the goodness-of-fit numbers the QRSM
/// benches report.
struct FitResult {
  Vector coefficients;
  double r_squared = 0.0;   ///< 1 - SS_res / SS_tot
  double rmse = 0.0;        ///< sqrt(mean squared residual)
  double mape = 0.0;        ///< mean |residual / y| over y != 0 rows
  bool used_qr_fallback = false;
};

/// Streaming goodness of fit: feed every (observed, predicted) pair in row
/// order, then finish() writes r², rmse and mape into a FitResult. The
/// mean of the observed values is needed up front (for SS_tot), so callers
/// make one pass for it and one for the residuals. ridge_least_squares
/// reports its fit quality through this, so both agree bit for bit.
class FitQuality {
 public:
  explicit FitQuality(double mean_observed) : mean_observed_(mean_observed) {}

  void add(double observed, double predicted);
  void finish(FitResult& fit) const;

 private:
  double mean_observed_;
  double ss_res_ = 0.0;
  double ss_tot_ = 0.0;
  double ape_sum_ = 0.0;
  std::size_t ape_n_ = 0;
  std::size_t n_ = 0;
};

/// Solves the ridge normal equations (G + λI)·x = c by Cholesky, for
/// callers that keep G = AᵀA and c = Aᵀb themselves instead of a design
/// matrix. In place on caller storage, allocating nothing: G is the upper
/// triangle of the row-major n×n array at `gram` (row stride `ld`), which
/// the factorization overwrites; `x` holds c on entry and x on success.
/// Returns false when G + λI is not (numerically) positive definite; the
/// caller then builds A and uses ridge_least_squares, whose QR fallback
/// handles that case.
[[nodiscard]] bool solve_ridge_normal_in_place(double* gram, std::size_t n,
                                               std::size_t ld, double lambda,
                                               double* x);

/// solve_ridge_normal_in_place on a symmetric Matrix and a Vector;
/// std::nullopt when G + λI is not (numerically) positive definite.
[[nodiscard]] std::optional<Vector> solve_ridge_normal(Matrix gram,
                                                       const Vector& rhs,
                                                       double lambda);

/// Ridge-regularized least squares: minimizes ‖A·x − b‖² + λ‖x‖².
///
/// Solves the normal equations (AᵀA + λI)·x = Aᵀb by Cholesky; if that
/// fails (ill-conditioned Gram matrix and λ = 0) it falls back to
/// Householder QR. λ must be >= 0. The intercept column, if any, is
/// regularized like every other coefficient — acceptable here because the
/// QRSM standardizes features before fitting.
[[nodiscard]] FitResult ridge_least_squares(const Matrix& a, const Vector& b,
                                            double lambda);

}  // namespace cbs::linalg
