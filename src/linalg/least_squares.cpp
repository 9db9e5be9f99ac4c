#include "linalg/least_squares.hpp"

#include <cassert>
#include <cmath>

#include "linalg/cholesky.hpp"
#include "linalg/qr.hpp"

namespace cbs::linalg {

void FitQuality::add(double observed, double predicted) {
  const double r = observed - predicted;
  ss_res_ += r * r;
  ss_tot_ += (observed - mean_observed_) * (observed - mean_observed_);
  if (std::abs(observed) > 1e-12) {
    ape_sum_ += std::abs(r / observed);
    ++ape_n_;
  }
  ++n_;
}

void FitQuality::finish(FitResult& fit) const {
  fit.rmse = std::sqrt(ss_res_ / static_cast<double>(n_));
  fit.r_squared = ss_tot_ <= 0.0 ? 1.0 : 1.0 - ss_res_ / ss_tot_;
  fit.mape = ape_n_ == 0 ? 0.0 : ape_sum_ / static_cast<double>(ape_n_);
}

bool solve_ridge_normal_in_place(double* gram, std::size_t n, std::size_t ld,
                                 double lambda, double* x) {
  assert(lambda >= 0.0);
  for (std::size_t i = 0; i < n; ++i) gram[i * ld + i] += lambda;
  if (!cholesky_in_place(gram, n, ld)) return false;
  cholesky_solve_in_place(gram, n, ld, x);
  return true;
}

std::optional<Vector> solve_ridge_normal(Matrix gram, const Vector& rhs,
                                         double lambda) {
  assert(gram.rows() == gram.cols() && gram.rows() == rhs.size());
  Vector x = rhs;
  if (!solve_ridge_normal_in_place(gram.row_data(0), gram.rows(), gram.cols(),
                                   lambda, x.data())) {
    return std::nullopt;
  }
  return x;
}

FitResult ridge_least_squares(const Matrix& a, const Vector& b, double lambda) {
  assert(a.rows() == b.size());
  assert(a.rows() >= a.cols() && "underdetermined system: need rows >= cols");
  assert(lambda >= 0.0);

  FitResult fit;
  if (auto x = solve_ridge_normal(a.gram(), a.transpose_times(b), lambda)) {
    fit.coefficients = std::move(*x);
  } else {
    auto x2 = qr_least_squares(a, b);
    // QR can only fail on exact rank deficiency; the caller's ridge term
    // should prevent reaching this state, so surface it loudly in debug.
    assert(x2 && "both Cholesky and QR failed: rank-deficient design matrix");
    if (!x2) {
      fit.coefficients.assign(a.cols(), 0.0);
    } else {
      fit.coefficients = std::move(*x2);
    }
    fit.used_qr_fallback = true;
  }
  double mean_b = 0.0;
  for (double y : b) mean_b += y;
  mean_b /= static_cast<double>(b.size());
  FitQuality quality(mean_b);
  const Vector pred = a * fit.coefficients;
  for (std::size_t i = 0; i < b.size(); ++i) quality.add(b[i], pred[i]);
  quality.finish(fit);
  return fit;
}

}  // namespace cbs::linalg
