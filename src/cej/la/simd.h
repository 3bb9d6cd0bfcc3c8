// Dot-product kernels.
//
// Every kernel computes one per-pair order, so a score never depends on the
// instruction set, the row blocking, or where a row falls in a tile:
//
//   - 16 virtual lanes over k: lane l accumulates the products at k with
//     k mod 16 == l;
//   - one fused multiply-add per lane per chunk of 16, in chunk order;
//   - a last partial chunk zero-padded to 16 lanes (0 * 0 added like any
//     other product);
//   - a fixed reduction tree: lane l += lane l+8, then l += l+4, l += l+2,
//     l += l+1; lane 0 is the result.
//
// The scalar, AVX2 and AVX-512 kernels all implement this order (the
// scalar one with std::fmaf, compiled with auto-vectorization disabled),
// one row or an 8-row register block at a time. They return identical
// bits; SimdMode picks speed only. They read FP32 only.

#ifndef CEJ_LA_SIMD_H_
#define CEJ_LA_SIMD_H_

#include <cstddef>
#include <vector>

#include "cej/common/cpu_info.h"

namespace cej::la {

/// Kernel selection policy for similarity computations. Both modes return
/// the same bits; only the speed differs.
enum class SimdMode {
  /// Plain scalar loop, compiler auto-vectorization disabled. This is the
  /// "NO-SIMD" arm of Figures 8 and 9.
  kForceScalar,
  /// Best available vector kernel (AVX-512 > AVX2 > scalar).
  kAuto,
};

/// Dot product of two `dim`-vectors.
float Dot(const float* a, const float* b, size_t dim,
          SimdMode mode = SimdMode::kAuto);

/// Computes dot(a, b_r) for `nrows` consecutive rows b_0..b_{nrows-1} of a
/// row-major matrix with stride `dim`, writing results to out[0..nrows).
/// Keeping `a` in registers across rows is the key cache win the tensor
/// micro-kernel builds on. out[r] == Dot(a, b_r) bit for bit.
void DotOneToMany(const float* a, const float* b_rows, size_t nrows,
                  size_t dim, float* out, SimdMode mode = SimdMode::kAuto);

/// Sum of squares (squared L2 norm): Dot(a, a).
inline float SquaredNorm(const float* a, size_t dim,
                         SimdMode mode = SimdMode::kAuto) {
  return Dot(a, a, dim, mode);
}

/// The SIMD level the kAuto kernels will actually use at runtime.
SimdLevel ActiveSimdLevel();

/// One compiled kernel variant: DotOneToMany as that instruction set runs
/// it.
struct DotKernel {
  SimdLevel level;
  void (*one_to_many)(const float* a, const float* b_rows, size_t nrows,
                      size_t dim, float* out);
};

/// Every variant this binary holds and this CPU runs, scalar first. The
/// variants return identical bits; tests check that on each of them.
std::vector<DotKernel> RunnableDotKernels();

}  // namespace cej::la

#endif  // CEJ_LA_SIMD_H_
