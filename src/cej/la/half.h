// Half-precision (FP16) storage for embeddings.
//
// Paper Section V.A.2: "Recent AVX-512 instruction set has introduced
// hardware support for half-precision data types, which allows processing
// up to 32 16-bit floating point numbers in a SIMD register" — and the
// authors' companion work argues for native half-precision processing of
// CPU-local analytics. CEJ supports FP16 as a *storage* format: embeddings
// are stored at half width (halving memory traffic and doubling effective
// cache capacity — the resource the tensor join is bound by) and widened
// to FP32 in registers for the similarity arithmetic, which preserves
// accumulation accuracy.

#ifndef CEJ_LA_HALF_H_
#define CEJ_LA_HALF_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cej/la/matrix.h"
#include "cej/la/simd.h"

namespace cej::la {

/// Scalar conversions (round-to-nearest-even on narrowing). Uses F16C
/// hardware conversion when compiled in, else the portable path.
Half FloatToHalf(float value);
float HalfToFloat(Half value);

/// Pure-software conversions, always available. Exposed so tests can
/// cross-check the hardware path bit-for-bit on any build.
Half FloatToHalfPortable(float value);
float HalfToFloatPortable(Half value);

/// Dense row-major FP16 matrix: the half-width twin of Matrix.
class HalfMatrix {
 public:
  HalfMatrix() = default;
  HalfMatrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0) {}

  /// Narrowing conversion from an FP32 matrix.
  static HalfMatrix FromFloat(const Matrix& source);
  /// Widening conversion back to FP32.
  Matrix ToFloat() const;

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return rows_ * cols_; }

  Half* Row(size_t r) { return data_.data() + r * cols_; }
  const Half* Row(size_t r) const { return data_.data() + r * cols_; }

  /// Half the FP32 footprint: the Section V.A.2 capacity argument.
  size_t MemoryBytes() const { return size() * sizeof(Half); }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<Half> data_;
};

/// Inner product of two FP16 vectors, widened to FP32 in registers and
/// summed in the one order of simd.h: DotHalf(a, b) equals Dot on the
/// widened vectors bit for bit, in either mode.
float DotHalf(const Half* a, const Half* b, size_t dim,
              SimdMode mode = SimdMode::kAuto);

/// dot(a, b_r) for `nrows` consecutive FP16 rows (stride = dim), the
/// half-precision counterpart of DotOneToMany. The kernels live in simd.cc.
void DotHalfOneToMany(const Half* a, const Half* b_rows, size_t nrows,
                      size_t dim, float* out,
                      SimdMode mode = SimdMode::kAuto);

}  // namespace cej::la

#endif  // CEJ_LA_HALF_H_
