#include "cej/la/simd.h"

#include <cmath>

#if defined(__AVX2__) || defined(__AVX512F__)
#include <immintrin.h>
#endif

// GCC 12 reports the deliberately undefined upper lanes inside the AVX-512
// shuffle/cast intrinsics as maybe-uninitialized once they are inlined here.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace cej::la {
namespace {

#define CEJ_INLINE inline __attribute__((always_inline))

constexpr size_t kLanes = 16;

// The order of simd.h, written once: kRows rows sharing `a`, over an
// instruction set `Isa` (a 16-lane Vec with Zero/Load/LoadTail/Fma/Reduce).
template <class Isa, size_t kRows>
CEJ_INLINE void DotBlock(const float* a, const float* b, size_t stride,
                         size_t dim, float* out) {
  typename Isa::Vec acc[kRows];
  for (size_t r = 0; r < kRows; ++r) acc[r] = Isa::Zero();
  size_t i = 0;
  for (; i + kLanes <= dim; i += kLanes) {
    const auto va = Isa::Load(a + i);
    for (size_t r = 0; r < kRows; ++r) {
      acc[r] = Isa::Fma(va, Isa::Load(b + r * stride + i), acc[r]);
    }
  }
  if (i < dim) {
    const auto va = Isa::LoadTail(a + i, dim - i);
    for (size_t r = 0; r < kRows; ++r) {
      acc[r] = Isa::Fma(va, Isa::LoadTail(b + r * stride + i, dim - i),
                        acc[r]);
    }
  }
  for (size_t r = 0; r < kRows; ++r) out[r] = Isa::Reduce(acc[r]);
}

// Blocks of Isa::kBlockRows rows, then the leftovers one at a time; both
// compute the same order, so a row's bits do not depend on its position.
template <class Isa>
CEJ_INLINE void DotRows(const float* a, const float* b_rows, size_t nrows,
                        size_t dim, float* out) {
  size_t r = 0;
  for (; r + Isa::kBlockRows <= nrows; r += Isa::kBlockRows) {
    DotBlock<Isa, Isa::kBlockRows>(a, b_rows + r * dim, dim, dim, out + r);
  }
  for (; r < nrows; ++r) {
    DotBlock<Isa, 1>(a, b_rows + r * dim, dim, dim, out + r);
  }
}

// Scalar: 16 accumulators, std::fmaf per lane. ScalarRows is compiled with
// auto-vectorization disabled (the kernel is inlined into it), so the
// "NO-SIMD" arm has no SIMD.
struct ScalarIsa {
  static constexpr size_t kBlockRows = 1;
  struct Vec {
    float lane[kLanes];
  };
  CEJ_INLINE static Vec Zero() {
    Vec v;
    for (float& lane : v.lane) lane = 0.0f;
    return v;
  }
  CEJ_INLINE static Vec LoadTail(const float* p, size_t n) {
    Vec v;
    for (size_t l = 0; l < kLanes; ++l) v.lane[l] = l < n ? p[l] : 0.0f;
    return v;
  }
  CEJ_INLINE static Vec Load(const float* p) {
    return LoadTail(p, kLanes);
  }
  CEJ_INLINE static Vec Fma(const Vec& a, const Vec& b, Vec acc) {
    for (size_t l = 0; l < kLanes; ++l) {
      acc.lane[l] = std::fmaf(a.lane[l], b.lane[l], acc.lane[l]);
    }
    return acc;
  }
  CEJ_INLINE static float Reduce(Vec v) {
    for (size_t width = kLanes / 2; width > 0; width /= 2) {
      for (size_t l = 0; l < width; ++l) v.lane[l] += v.lane[l + width];
    }
    return v.lane[0];
  }
};

#if defined(__GNUC__) && !defined(__clang__)
__attribute__((noinline,
               optimize("no-tree-vectorize", "no-tree-slp-vectorize")))
#endif
void ScalarRows(const float* a, const float* b_rows, size_t nrows,
                size_t dim, float* out) {
  DotRows<ScalarIsa>(a, b_rows, nrows, dim, out);
}

#if defined(__AVX2__) || defined(__AVX512F__)
// Lanes 0..7 already hold l + (l+8); adds l+4, then l+2, then l+1.
CEJ_INLINE float ReduceEight(__m256 v) {
  __m128 x = _mm_add_ps(_mm256_castps256_ps128(v),
                        _mm256_extractf128_ps(v, 1));
  x = _mm_add_ps(x, _mm_movehl_ps(x, x));
  x = _mm_add_ss(x, _mm_shuffle_ps(x, x, 1));
  return _mm_cvtss_f32(x);
}
#endif

// AVX2: the 16 lanes as two 8-lane halves.
#if defined(__AVX2__) && defined(__FMA__)
#define CEJ_HAVE_AVX2_KERNEL 1
struct Avx2Isa {
  static constexpr size_t kBlockRows = 1;
  struct Vec {
    __m256 lo, hi;
  };
  CEJ_INLINE static Vec Zero() {
    return {_mm256_setzero_ps(), _mm256_setzero_ps()};
  }
  CEJ_INLINE static Vec Load(const float* p) {
    return {_mm256_loadu_ps(p), _mm256_loadu_ps(p + 8)};
  }
  CEJ_INLINE static Vec LoadTail(const float* p, size_t n) {
    const size_t lo = n < 8 ? n : 8;
    return {_mm256_maskload_ps(p, FirstLanes(lo)),
            _mm256_maskload_ps(p + 8, FirstLanes(n - lo))};
  }
  CEJ_INLINE static Vec Fma(const Vec& a, const Vec& b, const Vec& acc) {
    return {_mm256_fmadd_ps(a.lo, b.lo, acc.lo),
            _mm256_fmadd_ps(a.hi, b.hi, acc.hi)};
  }
  CEJ_INLINE static float Reduce(const Vec& v) {
    return ReduceEight(_mm256_add_ps(v.lo, v.hi));
  }
  // A maskload mask with the first m <= 8 lanes set.
  CEJ_INLINE static __m256i FirstLanes(size_t m) {
    static const int32_t kOnes[16] = {-1, -1, -1, -1, -1, -1, -1, -1};
    return _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(kOnes + 8 - m));
  }
};

void Avx2Rows(const float* a, const float* b_rows, size_t nrows, size_t dim,
              float* out) {
  DotRows<Avx2Isa>(a, b_rows, nrows, dim, out);
}
#endif

// AVX-512: one register; 8-row blocks reuse each chunk of `a` across eight
// rows (8x the arithmetic intensity per load of a).
#if defined(__AVX512F__)
struct Avx512Isa {
  static constexpr size_t kBlockRows = 8;
  using Vec = __m512;
  CEJ_INLINE static Vec Zero() { return _mm512_setzero_ps(); }
  CEJ_INLINE static Vec Load(const float* p) { return _mm512_loadu_ps(p); }
  CEJ_INLINE static Vec LoadTail(const float* p, size_t n) {
    return _mm512_maskz_loadu_ps(static_cast<__mmask16>((1u << n) - 1u), p);
  }
  CEJ_INLINE static Vec Fma(Vec a, Vec b, Vec acc) {
    return _mm512_fmadd_ps(a, b, acc);
  }
  CEJ_INLINE static float Reduce(Vec v) {
    const __m512 hi = _mm512_shuffle_f32x4(v, v, _MM_SHUFFLE(3, 2, 3, 2));
    return ReduceEight(_mm256_add_ps(_mm512_castps512_ps256(v),
                                     _mm512_castps512_ps256(hi)));
  }
};

void Avx512Rows(const float* a, const float* b_rows, size_t nrows,
                size_t dim, float* out) {
  DotRows<Avx512Isa>(a, b_rows, nrows, dim, out);
}
#endif

void DispatchRows(const float* a, const float* b_rows, size_t nrows,
                  size_t dim, float* out, SimdMode mode) {
  const SimdLevel level =
      mode == SimdMode::kAuto ? ActiveSimdLevel() : SimdLevel::kScalar;
#if defined(__AVX512F__)
  if (level == SimdLevel::kAvx512) {
    return Avx512Rows(a, b_rows, nrows, dim, out);
  }
#endif
#if defined(CEJ_HAVE_AVX2_KERNEL)
  if (level >= SimdLevel::kAvx2) return Avx2Rows(a, b_rows, nrows, dim, out);
#endif
  (void)level;
  ScalarRows(a, b_rows, nrows, dim, out);
}

}  // namespace

float Dot(const float* a, const float* b, size_t dim, SimdMode mode) {
  float out = 0.0f;
  DispatchRows(a, b, 1, dim, &out, mode);
  return out;
}

void DotOneToMany(const float* a, const float* b_rows, size_t nrows,
                  size_t dim, float* out, SimdMode mode) {
  DispatchRows(a, b_rows, nrows, dim, out, mode);
}

SimdLevel ActiveSimdLevel() { return CpuInfo::MaxSimdLevel(); }

std::vector<DotKernel> RunnableDotKernels() {
  std::vector<DotKernel> kernels = {{SimdLevel::kScalar, &ScalarRows}};
#if defined(CEJ_HAVE_AVX2_KERNEL)
  if (ActiveSimdLevel() >= SimdLevel::kAvx2) {
    kernels.push_back({SimdLevel::kAvx2, &Avx2Rows});
  }
#endif
#if defined(__AVX512F__)
  if (ActiveSimdLevel() >= SimdLevel::kAvx512) {
    kernels.push_back({SimdLevel::kAvx512, &Avx512Rows});
  }
#endif
  return kernels;
}

}  // namespace cej::la
