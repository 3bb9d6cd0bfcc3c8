#include "cej/la/half.h"

#include <cstring>

#if defined(__F16C__)
#include <immintrin.h>
#endif

namespace cej::la {
namespace {

// Software binary32 -> binary16 with round-to-nearest-even (handles
// normals, subnormals, infinities, NaN). Used when F16C is unavailable
// and for the scalar reference path.
Half FloatToHalfSoftware(float value) {
  uint32_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  const uint32_t sign = (bits >> 16) & 0x8000u;
  bits &= 0x7fffffffu;
  if (bits >= 0x7f800000u) {  // Inf / NaN.
    const uint32_t mantissa = bits & 0x7fffffu;
    return static_cast<Half>(sign | 0x7c00u | (mantissa ? 0x200u : 0u));
  }
  if (bits >= 0x477ff000u) {  // Overflows half range -> inf.
    return static_cast<Half>(sign | 0x7c00u);
  }
  if (bits < 0x38800000u) {  // Subnormal half (or zero).
    if (bits < 0x33000000u) return static_cast<Half>(sign);  // -> 0.
    // Half subnormals encode value = h * 2^-24; with the float's implicit
    // 24-bit mantissa M and exponent e, h = M >> (126 - e), rounded to
    // nearest-even. The discard width lies in [14, 24].
    const int shift = 126 - static_cast<int>(bits >> 23);
    const uint64_t mantissa = (bits & 0x7fffffu) | 0x800000u;
    const uint64_t rounded = mantissa >> shift;
    const uint64_t remainder = mantissa & ((1ull << shift) - 1);
    const uint64_t halfway = 1ull << (shift - 1);
    uint64_t out = rounded;
    if (remainder > halfway || (remainder == halfway && (rounded & 1u))) {
      ++out;
    }
    return static_cast<Half>(sign | static_cast<uint32_t>(out));
  }
  // Normal range.
  const uint32_t exponent = ((bits >> 23) - 112u) << 10;
  const uint32_t mantissa = (bits >> 13) & 0x3ffu;
  uint32_t out = exponent | mantissa;
  const uint32_t remainder = bits & 0x1fffu;
  if (remainder > 0x1000u || (remainder == 0x1000u && (out & 1u))) {
    ++out;  // Round to nearest even; may carry into the exponent, which
            // is correct (next binade or inf).
  }
  return static_cast<Half>(sign | out);
}

float HalfToFloatSoftware(Half value) {
  const uint32_t sign = (static_cast<uint32_t>(value) & 0x8000u) << 16;
  const uint32_t exponent = (value >> 10) & 0x1fu;
  const uint32_t mantissa = value & 0x3ffu;
  uint32_t bits;
  if (exponent == 0) {
    if (mantissa == 0) {
      bits = sign;  // Zero.
    } else {
      // Subnormal: normalize. A half subnormal with MSB at bit p encodes
      // 1.f x 2^(p-24), i.e. float exponent field 103 + p.
      int e = -1;
      uint32_t m = mantissa;
      do {
        ++e;
        m <<= 1;
      } while ((m & 0x400u) == 0);
      bits = sign | ((112u - e) << 23) | ((m & 0x3ffu) << 13);
    }
  } else if (exponent == 0x1f) {
    bits = sign | 0x7f800000u | (mantissa << 13);  // Inf / NaN.
  } else {
    bits = sign | ((exponent + 112u) << 23) | (mantissa << 13);
  }
  float out;
  std::memcpy(&out, &bits, sizeof(out));
  return out;
}

}  // namespace

Half FloatToHalfPortable(float value) { return FloatToHalfSoftware(value); }
float HalfToFloatPortable(Half value) { return HalfToFloatSoftware(value); }

Half FloatToHalf(float value) {
#if defined(__F16C__)
  return static_cast<Half>(
      _cvtss_sh(value, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC));
#else
  return FloatToHalfSoftware(value);
#endif
}

float HalfToFloat(Half value) {
#if defined(__F16C__)
  return _cvtsh_ss(value);
#else
  return HalfToFloatSoftware(value);
#endif
}

HalfMatrix HalfMatrix::FromFloat(const Matrix& source) {
  HalfMatrix out(source.rows(), source.cols());
  const float* in = source.data();
  Half* dst = out.data_.data();
  for (size_t i = 0; i < source.size(); ++i) dst[i] = FloatToHalf(in[i]);
  return out;
}

Matrix HalfMatrix::ToFloat() const {
  Matrix out(rows_, cols_);
  float* dst = out.data();
  for (size_t i = 0; i < size(); ++i) dst[i] = HalfToFloat(data_[i]);
  return out;
}

}  // namespace cej::la
