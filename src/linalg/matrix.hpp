#pragma once

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

namespace cbs::linalg {

using Vector = std::vector<double>;

/// Dense row-major matrix — exactly the capability the QRSM fit needs.
/// Kept deliberately small: no expression templates, no views; the design
/// matrices here are at most a few thousand rows by ~100 columns.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);
  /// Row-wise construction from a nested initializer list; all rows must
  /// have equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  [[nodiscard]] static Matrix identity(std::size_t n);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }

  [[nodiscard]] double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// Pointer to the start of row r (contiguous row-major storage).
  [[nodiscard]] double* row_data(std::size_t r) { return data_.data() + r * cols_; }
  [[nodiscard]] const double* row_data(std::size_t r) const {
    return data_.data() + r * cols_;
  }

  [[nodiscard]] Matrix transposed() const;
  [[nodiscard]] Matrix operator*(const Matrix& rhs) const;
  [[nodiscard]] Vector operator*(const Vector& v) const;
  Matrix& operator+=(const Matrix& rhs);
  Matrix& operator*=(double s);

  /// A^T * A — the Gram matrix of the design matrix, computed without
  /// materializing the transpose (gram_accumulate, then the mirror).
  [[nodiscard]] Matrix gram() const;

  /// A^T * y for the normal equations (moment_accumulate).
  [[nodiscard]] Vector transpose_times(const Vector& y) const;

  /// Frobenius norm.
  [[nodiscard]] double frobenius_norm() const;

  [[nodiscard]] std::string to_string(int precision = 4) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// The Gram kernel: G += Σₖ sₖ·xₖ·xₖᵀ over the `count` rows xₖ of length
/// `n` at `rows` (row k starts at rows + k·row_stride), with sₖ = sign[k],
/// or 1 when `sign` is null. Matrix::gram() and the QRSM's sufficient
/// statistics both go through it.
///
/// Only the upper triangle (j ≥ i) of G, row-major at `gram` with row
/// stride `gram_stride`, is defined afterwards; entries below the diagonal
/// are scratch. Each entry adds its terms (sₖxₖᵢ)·xₖⱼ one by one in row
/// order, skipping rows whose xₖᵢ is 0, exactly as the scalar loop
///   for k: for i: if (xₖᵢ != 0) for j ≥ i: G[i][j] += (sₖxₖᵢ)·xₖⱼ
/// does, so any blocking of the calls over rows gives the same bits.
void gram_accumulate(const double* rows, std::size_t row_stride,
                     std::size_t count, std::size_t n, const double* sign,
                     double* gram, std::size_t gram_stride);

/// out += Σₖ xₖ·wₖ over the same row layout, skipping rows whose weight
/// wₖ = weight[k] is 0; each entry adds its terms in row order.
void moment_accumulate(const double* rows, std::size_t row_stride,
                       std::size_t count, std::size_t n, const double* weight,
                       double* out);

/// Euclidean norm of a vector.
[[nodiscard]] double norm(const Vector& v);

/// Dot product; sizes must match.
[[nodiscard]] double dot(const Vector& a, const Vector& b);

/// a - b elementwise; sizes must match.
[[nodiscard]] Vector subtract(const Vector& a, const Vector& b);

}  // namespace cbs::linalg
