#include "linalg/matrix.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <sstream>

#include "linalg/simd.hpp"

namespace cbs::linalg {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    assert(r.size() == cols_ && "ragged initializer for Matrix");
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

Matrix Matrix::operator*(const Matrix& rhs) const {
  assert(cols_ == rhs.rows_);
  Matrix out(rows_, rhs.cols_);
  // i-k-j loop order keeps the inner loop contiguous in both operands.
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double a = (*this)(i, k);
      if (a == 0.0) continue;
      const double* rhs_row = rhs.row_data(k);
      double* out_row = out.row_data(i);
      for (std::size_t j = 0; j < rhs.cols_; ++j) out_row[j] += a * rhs_row[j];
    }
  }
  return out;
}

Vector Matrix::operator*(const Vector& v) const {
  assert(cols_ == v.size());
  Vector out(rows_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    const double* row = row_data(i);
    double acc = 0.0;
    for (std::size_t j = 0; j < cols_; ++j) acc += row[j] * v[j];
    out[i] = acc;
  }
  return out;
}

Matrix& Matrix::operator+=(const Matrix& rhs) {
  assert(rows_ == rhs.rows_ && cols_ == rhs.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (double& x : data_) x *= s;
  return *this;
}

Matrix Matrix::gram() const {
  Matrix g(cols_, cols_);
  gram_accumulate(data_.data(), cols_, rows_, cols_, nullptr, g.data_.data(),
                  cols_);
  // Mirror the upper triangle.
  for (std::size_t i = 0; i < cols_; ++i)
    for (std::size_t j = 0; j < i; ++j) g(i, j) = g(j, i);
  return g;
}

Vector Matrix::transpose_times(const Vector& y) const {
  assert(rows_ == y.size());
  Vector out(cols_, 0.0);
  moment_accumulate(data_.data(), cols_, rows_, cols_, y.data(), out.data());
  return out;
}

double Matrix::frobenius_norm() const {
  double s = 0.0;
  for (double x : data_) s += x * x;
  return std::sqrt(s);
}

std::string Matrix::to_string(int precision) const {
  std::ostringstream oss;
  oss.precision(precision);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      oss << (*this)(r, c) << (c + 1 == cols_ ? "" : " ");
    }
    oss << "\n";
  }
  return oss.str();
}

namespace {

using simd::load2;
using simd::store2;
using simd::V2;

/// Rows per pass of gram_accumulate: 32 padded QRSM design rows (48
/// columns) are 12 KB, so a pass re-reads them from L1, and the QRSM folds
/// 32 rows per call.
constexpr std::size_t kRowTile = 32;

/// Four entries of one Gram row, G[i][j..j+4), held in registers.
struct Quad {
  V2 lo;
  V2 hi;
};

Quad load_quad(const double* p) { return {load2(p), load2(p + 2)}; }

void store_quad(double* p, const Quad& q) {
  store2(p, q.lo);
  store2(p + 2, q.hi);
}

/// One row's term for four entries of row i: q += aᵢ·x[j..j+4), where
/// aᵢ = sₖ·xᵢ is pre-broadcast into both lanes.
void add_term(Quad& q, V2 a, V2 x_lo, V2 x_hi) {
  q.lo += a * x_lo;
  q.hi += a * x_hi;
}

double sign_of(const double* sign, std::size_t k) {
  return sign == nullptr ? 1.0 : sign[k];
}

/// Entry G[i][j], scalar, over rows [k0, k1).
void gram_entry(const double* rows, std::size_t stride, std::size_t k0,
                std::size_t k1, const double* sign, std::size_t i,
                std::size_t j, double* entry) {
  double acc = *entry;
  for (std::size_t k = k0; k < k1; ++k) {
    const double* x = rows + k * stride;
    if (x[i] == 0.0) continue;
    acc += (sign_of(sign, k) * x[i]) * x[j];
  }
  *entry = acc;
}

/// The left operands of one 4-row block over a tile of rows: aᵢ = sₖ·xₖᵢ
/// for the block's four i, each broadcast into both lanes, and whether
/// all four xₖᵢ are nonzero (no term of the row is skipped).
struct BlockPanel {
  std::array<std::array<V2, 4>, kRowTile> a;
  std::array<bool, kRowTile> dense;

  void fill(const double* rows, std::size_t stride, std::size_t k0,
            std::size_t k1, const double* sign, std::size_t i0) {
    for (std::size_t k = k0; k < k1; ++k) {
      const double* x = rows + k * stride + i0;
      const double s = sign_of(sign, k);
      std::array<V2, 4>& ak = a[k - k0];
      for (std::size_t r = 0; r < 4; ++r) {
        const double v = s * x[r];
        ak[r] = V2{v, v};
      }
      dense[k - k0] = x[0] != 0.0 && x[1] != 0.0 && x[2] != 0.0 && x[3] != 0.0;
    }
  }
};

}  // namespace

void gram_accumulate(const double* rows, std::size_t row_stride,
                     std::size_t count, std::size_t n, const double* sign,
                     double* gram, std::size_t gram_stride) {
  BlockPanel panel;
  for (std::size_t k0 = 0; k0 < count; k0 += kRowTile) {
    const std::size_t k1 = std::min(count, k0 + kRowTile);
    std::size_t i0 = 0;
    // Blocks of 4 rows × 4 columns from the diagonal block rightwards:
    // sixteen independent sums in eight registers, each loaded and stored
    // once per tile while the tile's rows stream past.
    for (; i0 + 4 <= n; i0 += 4) {
      panel.fill(rows, row_stride, k0, k1, sign, i0);
      double* g0 = gram + i0 * gram_stride;
      double* g1 = g0 + gram_stride;
      double* g2 = g1 + gram_stride;
      double* g3 = g2 + gram_stride;
      std::size_t j = i0;
      for (; j + 4 <= n; j += 4) {
        Quad q0 = load_quad(g0 + j);
        Quad q1 = load_quad(g1 + j);
        Quad q2 = load_quad(g2 + j);
        Quad q3 = load_quad(g3 + j);
        for (std::size_t k = k0; k < k1; ++k) {
          const double* x = rows + k * row_stride;
          const V2 x_lo = load2(x + j);
          const V2 x_hi = load2(x + j + 2);
          const std::array<V2, 4>& a = panel.a[k - k0];
          if (panel.dense[k - k0]) {
            add_term(q0, a[0], x_lo, x_hi);
            add_term(q1, a[1], x_lo, x_hi);
            add_term(q2, a[2], x_lo, x_hi);
            add_term(q3, a[3], x_lo, x_hi);
            continue;
          }
          if (x[i0] != 0.0) add_term(q0, a[0], x_lo, x_hi);
          if (x[i0 + 1] != 0.0) add_term(q1, a[1], x_lo, x_hi);
          if (x[i0 + 2] != 0.0) add_term(q2, a[2], x_lo, x_hi);
          if (x[i0 + 3] != 0.0) add_term(q3, a[3], x_lo, x_hi);
        }
        store_quad(g0 + j, q0);
        store_quad(g1 + j, q1);
        store_quad(g2 + j, q2);
        store_quad(g3 + j, q3);
      }
      for (; j < n; ++j) {  // the last n mod 4 columns
        for (std::size_t i = i0; i < i0 + 4; ++i) {
          gram_entry(rows, row_stride, k0, k1, sign, i, j,
                     gram + i * gram_stride + j);
        }
      }
    }
    for (; i0 < n; ++i0) {  // the last n mod 4 rows
      for (std::size_t j = i0; j < n; ++j) {
        gram_entry(rows, row_stride, k0, k1, sign, i0, j,
                   gram + i0 * gram_stride + j);
      }
    }
  }
}

void moment_accumulate(const double* rows, std::size_t row_stride,
                       std::size_t count, std::size_t n, const double* weight,
                       double* out) {
  for (std::size_t k = 0; k < count; ++k) {
    const double w = weight[k];
    if (w == 0.0) continue;
    const double* x = rows + k * row_stride;
    std::size_t c = 0;
    for (; c + 2 <= n; c += 2) {
      store2(out + c, load2(out + c) + load2(x + c) * w);
    }
    for (; c < n; ++c) out[c] += x[c] * w;
  }
}

double norm(const Vector& v) { return std::sqrt(dot(v, v)); }

double dot(const Vector& a, const Vector& b) {
  assert(a.size() == b.size());
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

Vector subtract(const Vector& a, const Vector& b) {
  assert(a.size() == b.size());
  Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

}  // namespace cbs::linalg
