#pragma once

#include <cstddef>
#include <optional>

#include "linalg/matrix.hpp"

namespace cbs::linalg {

/// The Cholesky kernel, in place on caller storage: on entry the upper
/// triangle (j ≥ i) of the row-major n×n array at `a` (row stride `ld`)
/// holds a symmetric positive-definite matrix A; on success it holds
/// U = Lᵀ with A = L·Lᵀ. Entries below the diagonal are neither read nor
/// written. Returns false when A is not (numerically) positive definite;
/// `a` is then partly overwritten. Allocates nothing.
///
/// Each entry of U is the textbook sequential chain
///   uⱼᵢ = (aⱼᵢ − u₀ᵢu₀ⱼ − u₁ᵢu₁ⱼ − … − uⱼ₋₁,ᵢuⱼ₋₁,ⱼ) / uⱼⱼ,
/// subtracting in k order; the kernel only runs the independent chains of
/// one row side by side, so the result is the scalar algorithm's, bit for
/// bit.
[[nodiscard]] bool cholesky_in_place(double* a, std::size_t n, std::size_t ld);

/// Solves A·x = b in place (`x` holds b on entry) given the factor U from
/// cholesky_in_place: forward substitution Uᵀ·y = b, then back substitution
/// U·x = y, each entry's sum in the textbook order. Allocates nothing.
void cholesky_solve_in_place(const double* u, std::size_t n, std::size_t ld,
                             double* x);

/// Cholesky factorization A = L·Lᵀ of a symmetric positive-definite matrix,
/// read from A's lower triangle. Returns std::nullopt when A is not
/// (numerically) positive definite — callers fall back to QR or increase
/// the ridge term.
[[nodiscard]] std::optional<Matrix> cholesky(const Matrix& a);

/// Solves A·x = b given the Cholesky factor L (forward + back substitution).
[[nodiscard]] Vector cholesky_solve(const Matrix& l, const Vector& b);

/// Convenience: factor-and-solve; std::nullopt if not positive definite.
[[nodiscard]] std::optional<Vector> solve_spd(const Matrix& a, const Vector& b);

}  // namespace cbs::linalg
