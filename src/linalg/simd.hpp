#pragma once

// Two-lane double vectors for the numeric kernels of linalg and the QRSM's
// feature scaler (GCC/Clang vector types).
//
// The kernels vectorize *across* independent sums — different matrix
// entries — never within one: each lane runs its own entry's chain of adds
// in the scalar order, so a kernel's results are bit-identical to the
// scalar loops it replaces. Two lanes is the SSE2 baseline every x86-64
// build has; wider vectors would need -march or -mavx, which changes the
// ABI of any function passing them by value.

#include <cstring>

namespace cbs::linalg::simd {

using V2 = double __attribute__((vector_size(2 * sizeof(double))));

/// Unaligned load/store of two consecutive doubles (memcpy, so no
/// alignment or aliasing assumption; compiles to one move).
[[nodiscard]] inline V2 load2(const double* p) {
  V2 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store2(double* p, V2 v) { std::memcpy(p, &v, sizeof v); }

}  // namespace cbs::linalg::simd
