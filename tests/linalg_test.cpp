#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include "linalg/cholesky.hpp"
#include "linalg/least_squares.hpp"
#include "linalg/matrix.hpp"
#include "linalg/qr.hpp"
#include "simcore/rng.hpp"

namespace {

using namespace cbs::linalg;

TEST(MatrixTest, ConstructionAndIndexing) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = 7.0;
  EXPECT_DOUBLE_EQ(m(0, 1), 7.0);
}

TEST(MatrixTest, InitializerList) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 4.0);
}

TEST(MatrixTest, IdentityMultiplication) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Matrix i = Matrix::identity(2);
  const Matrix ai = a * i;
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 2; ++c) EXPECT_DOUBLE_EQ(ai(r, c), a(r, c));
}

TEST(MatrixTest, MatrixProductKnown) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  Matrix b{{5.0, 6.0}, {7.0, 8.0}};
  const Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(MatrixTest, MatrixVectorProduct) {
  Matrix a{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  const Vector v = {1.0, 0.0, -1.0};
  const Vector out = a * v;
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0], -2.0);
  EXPECT_DOUBLE_EQ(out[1], -2.0);
}

TEST(MatrixTest, Transpose) {
  Matrix a{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  const Matrix t = a.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
}

TEST(MatrixTest, GramEqualsTransposeTimesSelf) {
  cbs::sim::RngStream rng(3);
  Matrix a(7, 4);
  for (std::size_t r = 0; r < 7; ++r)
    for (std::size_t c = 0; c < 4; ++c) a(r, c) = rng.uniform(-2.0, 2.0);
  const Matrix g = a.gram();
  const Matrix expected = a.transposed() * a;
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 4; ++c)
      EXPECT_NEAR(g(r, c), expected(r, c), 1e-12);
}

TEST(MatrixTest, TransposeTimesVector) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  const Vector y = {1.0, 1.0, 1.0};
  const Vector out = a.transpose_times(y);
  EXPECT_DOUBLE_EQ(out[0], 9.0);
  EXPECT_DOUBLE_EQ(out[1], 12.0);
}

TEST(MatrixTest, VectorHelpers) {
  const Vector a = {3.0, 4.0};
  const Vector b = {1.0, 2.0};
  EXPECT_DOUBLE_EQ(norm(a), 5.0);
  EXPECT_DOUBLE_EQ(dot(a, b), 11.0);
  const Vector d = subtract(a, b);
  EXPECT_DOUBLE_EQ(d[0], 2.0);
  EXPECT_DOUBLE_EQ(d[1], 2.0);
}

// ---- Cholesky -------------------------------------------------------

TEST(CholeskyTest, FactorsKnownSpdMatrix) {
  const Matrix a{{4.0, 2.0}, {2.0, 3.0}};
  const auto l = cholesky(a);
  ASSERT_TRUE(l.has_value());
  EXPECT_DOUBLE_EQ((*l)(0, 0), 2.0);
  EXPECT_DOUBLE_EQ((*l)(1, 0), 1.0);
  EXPECT_NEAR((*l)(1, 1), std::sqrt(2.0), 1e-12);
}

TEST(CholeskyTest, RejectsIndefinite) {
  const Matrix a{{1.0, 2.0}, {2.0, 1.0}};  // eigenvalues 3, -1
  EXPECT_FALSE(cholesky(a).has_value());
}

TEST(CholeskyTest, SolveRoundTrip) {
  cbs::sim::RngStream rng(4);
  Matrix b(5, 5);
  for (std::size_t r = 0; r < 5; ++r)
    for (std::size_t c = 0; c < 5; ++c) b(r, c) = rng.uniform(-1.0, 1.0);
  Matrix a = b.gram();  // SPD (with probability 1)
  for (std::size_t i = 0; i < 5; ++i) a(i, i) += 0.5;

  const Vector x_true = {1.0, -2.0, 3.0, -4.0, 5.0};
  const Vector rhs = a * x_true;
  const auto x = solve_spd(a, rhs);
  ASSERT_TRUE(x.has_value());
  for (std::size_t i = 0; i < 5; ++i) EXPECT_NEAR((*x)[i], x_true[i], 1e-9);
}

// ---- The Gram and Cholesky kernels against the scalar loops ------------
//
// The kernels run independent sums side by side; each sum must still add
// (or subtract) its terms in the scalar loop's order, so the comparisons
// below are exact (EXPECT_EQ on doubles), not within a tolerance.

/// Random rows with about one value in five exactly zero (the skip).
std::vector<double> random_rows(cbs::sim::RngStream& rng, std::size_t count,
                                std::size_t n, std::size_t stride) {
  std::vector<double> rows(count * stride, 0.0);
  for (std::size_t k = 0; k < count; ++k) {
    for (std::size_t j = 0; j < n; ++j) {
      rows[k * stride + j] =
          rng.uniform(0.0, 1.0) < 0.2 ? 0.0 : rng.uniform(-3.0, 3.0);
    }
  }
  return rows;
}

/// The row-at-a-time rank-1 update the Gram kernel must reproduce.
void reference_gram(const std::vector<double>& rows, std::size_t stride,
                    std::size_t count, std::size_t n,
                    const std::vector<double>* sign, std::vector<double>& g,
                    std::size_t ld) {
  for (std::size_t k = 0; k < count; ++k) {
    const double* x = rows.data() + k * stride;
    const double s = sign == nullptr ? 1.0 : (*sign)[k];
    for (std::size_t i = 0; i < n; ++i) {
      if (x[i] == 0.0) continue;
      const double a = s * x[i];
      for (std::size_t j = i; j < n; ++j) g[i * ld + j] += a * x[j];
    }
  }
}

TEST(GramKernelTest, MatchesRowByRowUpdateBitForBit) {
  cbs::sim::RngStream rng(21);
  for (const std::size_t n : {1U, 2U, 3U, 4U, 5U, 7U, 8U, 9U, 13U, 45U, 48U}) {
    for (const std::size_t count : {0U, 1U, 3U, 64U, 65U, 150U}) {
      const std::size_t stride = n + 3;
      const std::size_t ld = n + 1;
      const auto rows = random_rows(rng, count, n, stride);
      std::vector<double> sign(count);
      std::vector<double> weight(count);
      for (std::size_t k = 0; k < count; ++k) {
        sign[k] = k % 3 == 1 ? -1.0 : 1.0;
        weight[k] = k % 4 == 2 ? 0.0 : rng.uniform(-5.0, 5.0);
      }
      // Start from a nonzero matrix, as a fold onto existing statistics does.
      std::vector<double> start(n * ld);
      for (double& v : start) v = rng.uniform(-1.0, 1.0);
      for (const bool signed_rows : {false, true}) {
        std::vector<double> want = start;
        std::vector<double> got = start;
        reference_gram(rows, stride, count, n, signed_rows ? &sign : nullptr,
                       want, ld);
        gram_accumulate(rows.data(), stride, count, n,
                        signed_rows ? sign.data() : nullptr, got.data(), ld);
        for (std::size_t i = 0; i < n; ++i) {
          for (std::size_t j = i; j < n; ++j) {
            ASSERT_EQ(got[i * ld + j], want[i * ld + j])
                << "n=" << n << " count=" << count << " (" << i << "," << j
                << ")";
          }
        }
      }
      std::vector<double> want(n, 0.5);
      std::vector<double> got(n, 0.5);
      for (std::size_t k = 0; k < count; ++k) {
        if (weight[k] == 0.0) continue;
        for (std::size_t c = 0; c < n; ++c) {
          want[c] += rows[k * stride + c] * weight[k];
        }
      }
      moment_accumulate(rows.data(), stride, count, n, weight.data(),
                        got.data());
      EXPECT_EQ(got, want) << "n=" << n << " count=" << count;
    }
  }
}

TEST(GramKernelTest, SplittingTheRowsChangesNoBit) {
  // A fold in blocks (the QRSM folds at most 64 pending rows at a time)
  // gives the bits of one call over all rows.
  cbs::sim::RngStream rng(22);
  const std::size_t n = 45;
  const std::size_t count = 200;
  const auto rows = random_rows(rng, count, n, n);
  std::vector<double> whole(n * n, 0.0);
  std::vector<double> parts(n * n, 0.0);
  gram_accumulate(rows.data(), n, count, n, nullptr, whole.data(), n);
  for (std::size_t k0 = 0; k0 < count; k0 += 37) {
    gram_accumulate(rows.data() + k0 * n, n,
                    std::min<std::size_t>(37, count - k0), n, nullptr,
                    parts.data(), n);
  }
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i; j < n; ++j) {
      ASSERT_EQ(parts[i * n + j], whole[i * n + j]);
    }
}

TEST(GramKernelTest, MatrixGramAndTransposeTimesMatchScalarLoops) {
  cbs::sim::RngStream rng(23);
  Matrix a(37, 13);
  Vector y(37);
  for (std::size_t r = 0; r < 37; ++r) {
    for (std::size_t c = 0; c < 13; ++c) {
      a(r, c) = (r + c) % 6 == 0 ? 0.0 : rng.uniform(-2.0, 2.0);
    }
    y[r] = r % 5 == 0 ? 0.0 : rng.uniform(-2.0, 2.0);
  }
  Matrix want(13, 13);
  Vector want_y(13, 0.0);
  for (std::size_t r = 0; r < 37; ++r) {
    for (std::size_t i = 0; i < 13; ++i) {
      if (a(r, i) == 0.0) continue;
      for (std::size_t j = i; j < 13; ++j) want(i, j) += a(r, i) * a(r, j);
    }
    if (y[r] == 0.0) continue;
    for (std::size_t c = 0; c < 13; ++c) want_y[c] += a(r, c) * y[r];
  }
  const Matrix g = a.gram();
  for (std::size_t i = 0; i < 13; ++i) {
    for (std::size_t j = i; j < 13; ++j) {
      EXPECT_EQ(g(i, j), want(i, j));
      EXPECT_EQ(g(j, i), want(i, j)) << "mirrored";
    }
  }
  EXPECT_EQ(a.transpose_times(y), want_y);
}

/// The column-oriented textbook Cholesky and substitutions, reading A's
/// lower triangle: the order every kernel entry must reproduce.
std::optional<Matrix> reference_cholesky(const Matrix& a) {
  const std::size_t n = a.rows();
  Matrix l(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= l(j, k) * l(j, k);
    if (diag <= 0.0 || !std::isfinite(diag)) return std::nullopt;
    l(j, j) = std::sqrt(diag);
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = a(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= l(i, k) * l(j, k);
      l(i, j) = s / l(j, j);
    }
  }
  return l;
}

Vector reference_solve(const Matrix& l, const Vector& b) {
  const std::size_t n = l.rows();
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (std::size_t k = 0; k < i; ++k) s -= l(i, k) * y[k];
    y[i] = s / l(i, i);
  }
  Vector x(n);
  for (std::size_t i = n; i-- > 0;) {
    double s = y[i];
    for (std::size_t k = i + 1; k < n; ++k) s -= l(k, i) * x[k];
    x[i] = s / l(i, i);
  }
  return x;
}

Matrix random_spd(cbs::sim::RngStream& rng, std::size_t n) {
  Matrix b(n + 4, n);
  for (std::size_t r = 0; r < n + 4; ++r)
    for (std::size_t c = 0; c < n; ++c) b(r, c) = rng.uniform(-1.0, 1.0);
  Matrix a = b.gram();
  for (std::size_t i = 0; i < n; ++i) a(i, i) += 0.1;
  return a;
}

TEST(CholeskyKernelTest, MatchesTextbookOrderBitForBit) {
  cbs::sim::RngStream rng(24);
  for (const std::size_t n : {1U, 2U, 3U, 5U, 8U, 9U, 10U, 16U, 17U, 45U}) {
    const Matrix a = random_spd(rng, n);
    Vector b(n);
    for (double& v : b) v = rng.uniform(-4.0, 4.0);
    const auto want_l = reference_cholesky(a);
    ASSERT_TRUE(want_l.has_value());
    const Vector want_x = reference_solve(*want_l, b);

    const auto l = cholesky(a);
    ASSERT_TRUE(l.has_value());
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) {
        ASSERT_EQ((*l)(i, j), (*want_l)(i, j)) << n;
      }
    EXPECT_EQ(cholesky_solve(*want_l, b), want_x) << n;
    EXPECT_EQ(*solve_spd(a, b), want_x) << n;

    // In place with padded rows; the strict lower triangle is neither read
    // nor written, so a NaN there changes nothing and survives.
    const std::size_t ld = n + 3;
    std::vector<double> u(n * ld, 7.0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        u[i * ld + j] =
            j >= i ? a(i, j) : std::numeric_limits<double>::quiet_NaN();
      }
    }
    ASSERT_TRUE(cholesky_in_place(u.data(), n, ld));
    Vector x = b;
    cholesky_solve_in_place(u.data(), n, ld, x.data());
    EXPECT_EQ(x, want_x) << n;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < ld; ++j) {
        const double v = u[i * ld + j];
        if (j >= n) {
          EXPECT_EQ(v, 7.0) << "padding untouched";
        } else if (j < i) {
          EXPECT_TRUE(std::isnan(v)) << "lower triangle untouched";
        } else {
          EXPECT_EQ(v, (*want_l)(j, i)) << "U = Lᵀ";
        }
      }
    }
  }
}

TEST(CholeskyKernelTest, RidgeNormalInPlaceMatchesMatrixPath) {
  cbs::sim::RngStream rng(25);
  const std::size_t n = 11;
  const Matrix g = random_spd(rng, n);
  Vector c(n);
  for (double& v : c) v = rng.uniform(-1.0, 1.0);
  const auto want = solve_ridge_normal(g, c, 0.25);
  ASSERT_TRUE(want.has_value());
  Matrix ridged = g;
  for (std::size_t i = 0; i < n; ++i) ridged(i, i) += 0.25;
  EXPECT_EQ(*want, reference_solve(*reference_cholesky(ridged), c));

  std::vector<double> work(n * 12);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i; j < n; ++j) work[i * 12 + j] = g(i, j);
  Vector x = c;
  ASSERT_TRUE(solve_ridge_normal_in_place(work.data(), n, 12, 0.25, x.data()));
  EXPECT_EQ(x, *want);
}

TEST(CholeskyKernelTest, InPlaceRejectsIndefiniteAndNan) {
  std::vector<double> a = {1.0, 2.0, 0.0, 1.0};  // [[1, 2], [2, 1]], upper
  EXPECT_FALSE(cholesky_in_place(a.data(), 2, 2));
  std::vector<double> nan = {std::numeric_limits<double>::quiet_NaN()};
  EXPECT_FALSE(cholesky_in_place(nan.data(), 1, 1));
  EXPECT_FALSE(solve_ridge_normal(Matrix{{-1.0}}, {1.0}, 0.5).has_value());
}

// ---- QR --------------------------------------------------------------

TEST(QrTest, SolvesExactSquareSystem) {
  Matrix a{{2.0, 1.0}, {1.0, 3.0}};
  const Vector b = {5.0, 10.0};
  const auto x = qr_least_squares(a, b);
  ASSERT_TRUE(x.has_value());
  EXPECT_NEAR((*x)[0], 1.0, 1e-10);
  EXPECT_NEAR((*x)[1], 3.0, 1e-10);
}

TEST(QrTest, LeastSquaresOfOverdeterminedSystem) {
  // Fit y = 2x + 1 through noiseless points: exact recovery.
  Matrix a(4, 2);
  Vector b(4);
  for (int i = 0; i < 4; ++i) {
    a(static_cast<std::size_t>(i), 0) = 1.0;
    a(static_cast<std::size_t>(i), 1) = i;
    b[static_cast<std::size_t>(i)] = 2.0 * i + 1.0;
  }
  const auto x = qr_least_squares(a, b);
  ASSERT_TRUE(x.has_value());
  EXPECT_NEAR((*x)[0], 1.0, 1e-10);
  EXPECT_NEAR((*x)[1], 2.0, 1e-10);
}

TEST(QrTest, DetectsRankDeficiency) {
  Matrix a(3, 2);
  for (std::size_t i = 0; i < 3; ++i) {
    a(i, 0) = 1.0;
    a(i, 1) = 2.0;  // column 2 = 2 * column 1
  }
  EXPECT_FALSE(qr_least_squares(a, {1.0, 2.0, 3.0}).has_value());
}

TEST(QrTest, MatchesNormalEquationsOnRandomProblem) {
  cbs::sim::RngStream rng(5);
  Matrix a(20, 4);
  Vector b(20);
  for (std::size_t r = 0; r < 20; ++r) {
    for (std::size_t c = 0; c < 4; ++c) a(r, c) = rng.uniform(-3.0, 3.0);
    b[r] = rng.uniform(-3.0, 3.0);
  }
  const auto qr = qr_least_squares(a, b);
  const auto ne = solve_spd(a.gram(), a.transpose_times(b));
  ASSERT_TRUE(qr.has_value());
  ASSERT_TRUE(ne.has_value());
  for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR((*qr)[i], (*ne)[i], 1e-8);
}

// ---- Ridge least squares ---------------------------------------------

TEST(RidgeTest, ZeroLambdaRecoversExactFit) {
  Matrix a(6, 2);
  Vector b(6);
  for (int i = 0; i < 6; ++i) {
    a(static_cast<std::size_t>(i), 0) = 1.0;
    a(static_cast<std::size_t>(i), 1) = i;
    b[static_cast<std::size_t>(i)] = 3.0 * i - 2.0;
  }
  const FitResult fit = ridge_least_squares(a, b, 0.0);
  EXPECT_NEAR(fit.coefficients[0], -2.0, 1e-9);
  EXPECT_NEAR(fit.coefficients[1], 3.0, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
  EXPECT_NEAR(fit.rmse, 0.0, 1e-9);
}

TEST(RidgeTest, LargeLambdaShrinksCoefficients) {
  Matrix a(6, 2);
  Vector b(6);
  for (int i = 0; i < 6; ++i) {
    a(static_cast<std::size_t>(i), 0) = 1.0;
    a(static_cast<std::size_t>(i), 1) = i;
    b[static_cast<std::size_t>(i)] = 3.0 * i - 2.0;
  }
  const FitResult small = ridge_least_squares(a, b, 1e-6);
  const FitResult big = ridge_least_squares(a, b, 1e6);
  EXPECT_LT(std::abs(big.coefficients[1]), std::abs(small.coefficients[1]));
  EXPECT_LT(big.r_squared, small.r_squared);
}

TEST(RidgeTest, RidgeHandlesCollinearColumns) {
  // Exactly collinear columns: plain normal equations are singular, but the
  // ridge term keeps the solve well-posed.
  Matrix a(5, 2);
  Vector b(5);
  for (std::size_t i = 0; i < 5; ++i) {
    a(i, 0) = static_cast<double>(i);
    a(i, 1) = 2.0 * static_cast<double>(i);
    b[i] = 5.0 * static_cast<double>(i);
  }
  const FitResult fit = ridge_least_squares(a, b, 1e-3);
  // Prediction is what matters: a*coef should reproduce b closely.
  const Vector pred = a * fit.coefficients;
  for (std::size_t i = 0; i < 5; ++i) EXPECT_NEAR(pred[i], b[i], 0.05);
}

TEST(RidgeTest, ReportsMape) {
  Matrix a{{1.0}, {1.0}};
  const Vector b = {2.0, 4.0};
  const FitResult fit = ridge_least_squares(a, b, 0.0);
  // Best constant is 3; APEs are 0.5 and 0.25.
  EXPECT_NEAR(fit.mape, 0.375, 1e-9);
}

}  // namespace
