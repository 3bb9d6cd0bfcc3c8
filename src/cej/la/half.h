// Half-precision (FP16) storage for embeddings.
//
// Paper Section V.A.2: "Recent AVX-512 instruction set has introduced
// hardware support for half-precision data types, which allows processing
// up to 32 16-bit floating point numbers in a SIMD register". CEJ treats
// FP16 as an at-rest format only: a HalfMatrix holds embeddings at half
// the bytes, and a join widens it once with ToFloat() and runs the FP32
// sweep (TensorJoinMatrices). The kernels have no FP16 path: widening in
// registers inside the sweep was slower than FP32 on every shape of
// bench_ablation_fp16, while widening once returns the same pairs bit for
// bit (the kernels sum the widened values in one order either way) in a
// fraction of the time (README, "FP16").

#ifndef CEJ_LA_HALF_H_
#define CEJ_LA_HALF_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cej/la/matrix.h"

namespace cej::la {

/// IEEE 754 binary16 value in its bit representation.
using Half = uint16_t;

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
  /// Widening conversion back to FP32: what a join runs on.
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

}  // namespace cej::la

#endif  // CEJ_LA_HALF_H_
