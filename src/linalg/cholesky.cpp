#include "linalg/cholesky.hpp"

#include <cassert>
#include <cmath>

#include "linalg/simd.hpp"

namespace cbs::linalg {

namespace {

using simd::load2;
using simd::store2;
using simd::V2;

/// Lᵀ of a square matrix's lower triangle (with the diagonal), laid out
/// as cholesky_in_place reads it; the strict lower triangle stays zero.
Matrix lower_as_upper(const Matrix& a) {
  const std::size_t n = a.rows();
  Matrix u(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j <= i; ++j) u(j, i) = a(i, j);
  return u;
}

}  // namespace

bool cholesky_in_place(double* a, std::size_t n, std::size_t ld) {
  for (std::size_t j = 0; j < n; ++j) {
    double* rj = a + j * ld;
    // rj[i] −= u(k,i)·u(k,j) for k < j: row j's entries are independent
    // chains, run eight (four registers) or two at a time.
    std::size_t i = j;
    for (; i + 8 <= n; i += 8) {
      V2 s0 = load2(rj + i);
      V2 s1 = load2(rj + i + 2);
      V2 s2 = load2(rj + i + 4);
      V2 s3 = load2(rj + i + 6);
      for (std::size_t k = 0; k < j; ++k) {
        const double* rk = a + k * ld;
        const double ukj = rk[j];
        s0 -= load2(rk + i) * ukj;
        s1 -= load2(rk + i + 2) * ukj;
        s2 -= load2(rk + i + 4) * ukj;
        s3 -= load2(rk + i + 6) * ukj;
      }
      store2(rj + i, s0);
      store2(rj + i + 2, s1);
      store2(rj + i + 4, s2);
      store2(rj + i + 6, s3);
    }
    for (; i + 2 <= n; i += 2) {
      V2 s = load2(rj + i);
      for (std::size_t k = 0; k < j; ++k) {
        const double* rk = a + k * ld;
        s -= load2(rk + i) * rk[j];
      }
      store2(rj + i, s);
    }
    for (; i < n; ++i) {
      double s = rj[i];
      for (std::size_t k = 0; k < j; ++k) {
        const double* rk = a + k * ld;
        s -= rk[i] * rk[j];
      }
      rj[i] = s;
    }
    const double diag = rj[j];
    if (diag <= 0.0 || !std::isfinite(diag)) return false;
    const double ujj = std::sqrt(diag);
    rj[j] = ujj;
    for (i = j + 1; i < n; ++i) rj[i] /= ujj;
  }
  return true;
}

void cholesky_solve_in_place(const double* u, std::size_t n, std::size_t ld,
                             double* x) {
  // Forward substitution Uᵀ·y = b, a column at a time: y[i] still
  // subtracts u(0,i)·y₀, u(1,i)·y₁, … in that order, the later entries'
  // chains side by side.
  for (std::size_t k = 0; k < n; ++k) {
    const double* rk = u + k * ld;
    x[k] /= rk[k];
    const double yk = x[k];
    std::size_t i = k + 1;
    for (; i + 2 <= n; i += 2) store2(x + i, load2(x + i) - load2(rk + i) * yk);
    for (; i < n; ++i) x[i] -= rk[i] * yk;
  }
  // Back substitution U·x = y: each x[i] needs every later one, so it
  // stays one chain per entry.
  for (std::size_t i = n; i-- > 0;) {
    const double* ri = u + i * ld;
    double s = x[i];
    for (std::size_t k = i + 1; k < n; ++k) s -= ri[k] * x[k];
    x[i] = s / ri[i];
  }
}

std::optional<Matrix> cholesky(const Matrix& a) {
  assert(a.rows() == a.cols());
  const std::size_t n = a.rows();
  Matrix u = lower_as_upper(a);
  if (!cholesky_in_place(u.row_data(0), n, n)) return std::nullopt;
  Matrix l(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j <= i; ++j) l(i, j) = u(j, i);
  return l;
}

Vector cholesky_solve(const Matrix& l, const Vector& b) {
  const std::size_t n = l.rows();
  assert(l.cols() == n && b.size() == n);
  const Matrix u = lower_as_upper(l);
  Vector x = b;
  cholesky_solve_in_place(u.row_data(0), n, n, x.data());
  return x;
}

std::optional<Vector> solve_spd(const Matrix& a, const Vector& b) {
  assert(a.rows() == a.cols() && a.rows() == b.size());
  const std::size_t n = a.rows();
  Matrix u = lower_as_upper(a);
  if (!cholesky_in_place(u.row_data(0), n, n)) return std::nullopt;
  Vector x = b;
  cholesky_solve_in_place(u.row_data(0), n, n, x.data());
  return x;
}

}  // namespace cbs::linalg
