// Tests for cej/la: SIMD kernels vs scalar reference, matrix, blocked GEMM
// vs naive reference, top-k selection. Heavy use of parameterized sweeps
// over dimensionality and tile shapes.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "cej/common/rng.h"
#include "cej/common/thread_pool.h"
#include "cej/la/gemm.h"
#include "cej/la/matrix.h"
#include "cej/la/simd.h"
#include "cej/la/topk.h"
#include "cej/la/vector_ops.h"
#include "cej/workload/generators.h"

namespace cej::la {
namespace {

double ReferenceDot(const float* a, const float* b, size_t dim) {
  double acc = 0.0;
  for (size_t i = 0; i < dim; ++i) {
    acc += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return acc;
}

std::vector<float> RandomVec(size_t dim, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(dim);
  for (auto& x : v) x = static_cast<float>(rng.NextGaussian());
  return v;
}

// Both kernel policies. They differ in speed only, so every check below
// that loops over them expects the same bits from each.
constexpr SimdMode kBothModes[] = {SimdMode::kForceScalar, SimdMode::kAuto};

// ---------------------------------------------------------------------------
// SIMD kernels: parameterized over dimensionality (covers remainders of all
// vector widths: 1..64-lane tails).
// ---------------------------------------------------------------------------

class DotKernelTest : public ::testing::TestWithParam<size_t> {};

TEST_P(DotKernelTest, ScalarMatchesReference) {
  const size_t dim = GetParam();
  const auto a = RandomVec(dim, 1);
  const auto b = RandomVec(dim, 2);
  const double ref = ReferenceDot(a.data(), b.data(), dim);
  EXPECT_NEAR(Dot(a.data(), b.data(), dim, SimdMode::kForceScalar), ref,
              1e-4 * (1.0 + std::abs(ref)));
}

TEST_P(DotKernelTest, SimdMatchesScalar) {
  const size_t dim = GetParam();
  const auto a = RandomVec(dim, 3);
  const auto b = RandomVec(dim, 4);
  const double ref = ReferenceDot(a.data(), b.data(), dim);
  EXPECT_NEAR(Dot(a.data(), b.data(), dim, SimdMode::kAuto), ref,
              1e-3 * (1.0 + std::abs(ref)));
}

TEST_P(DotKernelTest, DispatchedModesAgree) {
  const size_t dim = GetParam();
  const auto a = RandomVec(dim, 5);
  const auto b = RandomVec(dim, 6);
  const float scalar = Dot(a.data(), b.data(), dim, kBothModes[0]);
  const float simd = Dot(a.data(), b.data(), dim, kBothModes[1]);
  EXPECT_EQ(std::memcmp(&scalar, &simd, sizeof(float)), 0)
      << scalar << " vs " << simd;
}

TEST_P(DotKernelTest, SquaredNormIsSelfDot) {
  const size_t dim = GetParam();
  const auto a = RandomVec(dim, 7);
  for (SimdMode mode : kBothModes) {
    EXPECT_NEAR(SquaredNorm(a.data(), dim, mode),
                ReferenceDot(a.data(), a.data(), dim),
                1e-3 * (1.0 + ReferenceDot(a.data(), a.data(), dim)));
  }
}

TEST_P(DotKernelTest, DotOneToManyMatchesRowwiseDots) {
  const size_t dim = GetParam();
  constexpr size_t kRows = 13;  // Odd: one 8-row block plus a 5-row tail.
  const auto a = RandomVec(dim, 8);
  la::Matrix b = workload::RandomUnitVectors(kRows, dim, 9);
  for (SimdMode mode : kBothModes) {
    std::vector<float> out(kRows);
    DotOneToMany(a.data(), b.data(), kRows, dim, out.data(), mode);
    for (size_t r = 0; r < kRows; ++r) {
      const double ref = ReferenceDot(a.data(), b.Row(r), dim);
      EXPECT_NEAR(out[r], ref, 1e-3 * (1.0 + std::abs(ref)))
          << "row " << r << " dim " << dim;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, DotKernelTest,
                         ::testing::Values(1, 2, 3, 4, 7, 8, 15, 16, 17, 31,
                                           32, 33, 63, 64, 100, 128, 256,
                                           300));

// ---------------------------------------------------------------------------
// One dot-product order: every kernel variant this binary holds and this CPU
// runs (scalar, AVX2, AVX-512), one row or in 8-row blocks at any row
// position, through Dot, DotOneToMany, SquaredNorm and GemmTile, returns the
// same bits for the same pair.
// ---------------------------------------------------------------------------

constexpr size_t kMaxRows = 17;  // Row positions 0..15, plus one past.

bool SameBits(float x, float y) { return std::memcmp(&x, &y, 4) == 0; }

std::string Bits(float x) {
  uint32_t u;
  std::memcpy(&u, &x, 4);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g (0x%08x)", x, u);
  return buf;
}

// Mixed signs and magnitudes (so summation order shows in the last bits),
// with signed zeros and subnormals sprinkled in.
Matrix EdgeCaseMatrix(size_t rows, size_t dim, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, dim);
  const float denorm = std::numeric_limits<float>::denorm_min();
  for (size_t i = 0; i < m.size(); ++i) {
    const uint64_t kind = rng.NextBounded(10);
    const float sign = rng.NextBounded(2) == 0 ? 1.0f : -1.0f;
    float v;
    if (kind == 0) {
      v = sign * 0.0f;
    } else if (kind == 1) {
      v = sign * denorm * static_cast<float>(1 + rng.NextBounded(1u << 20));
    } else if (kind == 2) {
      v = sign * std::ldexp(1.0f + static_cast<float>(rng.NextDouble()),
                            -static_cast<int>(rng.NextBounded(30)));
    } else {
      v = static_cast<float>(rng.NextGaussian()) *
          std::ldexp(1.0f, static_cast<int>(rng.NextBounded(16)) - 8);
    }
    m.data()[i] = v;
  }
  return m;
}

std::vector<size_t> IdentityDims() {
  std::vector<size_t> dims;
  for (size_t d = 1; d <= 130; ++d) dims.push_back(d);
  dims.push_back(256);
  return dims;
}

TEST(DotOrderTest, EveryKernelVariantReturnsTheSameBits) {
  const auto kernels = RunnableDotKernels();
  ASSERT_FALSE(kernels.empty());
  ASSERT_EQ(kernels.front().level, SimdLevel::kScalar);
  EXPECT_EQ(kernels.back().level, ActiveSimdLevel());
  for (size_t dim : IdentityDims()) {
    const Matrix a = EdgeCaseMatrix(1, dim, 100 + dim);
    const Matrix b = EdgeCaseMatrix(kMaxRows, dim, 300 + dim);
    // The reference: the scalar kernel, one row per call.
    std::vector<float> want(kMaxRows);
    for (size_t r = 0; r < kMaxRows; ++r) {
      kernels.front().one_to_many(a.Row(0), b.Row(r), 1, dim, &want[r]);
    }
    for (const DotKernel& kernel : kernels) {
      const char* name = SimdLevelName(kernel.level);
      for (size_t nrows = 1; nrows <= kMaxRows; ++nrows) {
        std::vector<float> got(nrows);
        kernel.one_to_many(a.Row(0), b.Row(0), nrows, dim, got.data());
        for (size_t r = 0; r < nrows; ++r) {
          EXPECT_TRUE(SameBits(got[r], want[r]))
              << name << " dim " << dim << " nrows " << nrows << " row " << r
              << ": " << Bits(got[r]) << " vs " << Bits(want[r]);
        }
      }
    }
    for (SimdMode mode : kBothModes) {
      std::vector<float> many(kMaxRows);
      DotOneToMany(a.Row(0), b.Row(0), kMaxRows, dim, many.data(), mode);
      for (size_t r = 0; r < kMaxRows; ++r) {
        const float one = Dot(a.Row(0), b.Row(r), dim, mode);
        EXPECT_TRUE(SameBits(one, want[r]))
            << "Dot dim " << dim << " row " << r << ": " << Bits(one)
            << " vs " << Bits(want[r]);
        EXPECT_TRUE(SameBits(many[r], want[r]))
            << "DotOneToMany dim " << dim << " row " << r;
      }
      const float norm = SquaredNorm(b.Row(3), dim, mode);
      const float self = Dot(b.Row(3), b.Row(3), dim, kBothModes[0]);
      EXPECT_TRUE(SameBits(norm, self))
          << "SquaredNorm dim " << dim << ": " << Bits(norm) << " vs "
          << Bits(self);
    }
  }
}

TEST(DotOrderTest, Avx2BuildsHoldTheAvx2Kernel) {
  // `-mavx2 -mfma` must be enough for the AVX2 kernel: a build that needs
  // one more flag for it would dispatch scalar without a word.
#if defined(__AVX2__) && defined(__FMA__)
  if (ActiveSimdLevel() < SimdLevel::kAvx2) {
    GTEST_SKIP() << "this CPU does not run AVX2";
  }
  bool has_avx2 = false;
  for (const DotKernel& kernel : RunnableDotKernels()) {
    has_avx2 |= kernel.level == SimdLevel::kAvx2;
  }
  EXPECT_TRUE(has_avx2) << "built with AVX2 and FMA, but no AVX2 kernel";
#else
  GTEST_SKIP() << "built without AVX2 and FMA";
#endif
}

TEST(DotOrderTest, GemmTileEntriesDoNotDependOnTileBounds) {
  for (size_t dim : {size_t{1}, size_t{7}, size_t{16}, size_t{33},
                     size_t{100}, size_t{256}}) {
    const Matrix a = EdgeCaseMatrix(3, dim, 900 + dim);
    const Matrix b = EdgeCaseMatrix(kMaxRows + 8, dim, 1100 + dim);
    for (SimdMode mode : kBothModes) {
      for (size_t width = 1; width <= kMaxRows; ++width) {
        for (size_t j0 : {size_t{0}, size_t{1}, size_t{5}, size_t{8}}) {
          const size_t j1 = j0 + width;
          std::vector<float> tile(a.rows() * width);
          GemmTile(a, b, 0, a.rows(), j0, j1, tile.data(), mode);
          for (size_t i = 0; i < a.rows(); ++i) {
            for (size_t j = j0; j < j1; ++j) {
              const float want = Dot(a.Row(i), b.Row(j), dim);
              const float got = tile[i * width + (j - j0)];
              EXPECT_TRUE(SameBits(got, want))
                  << "dim " << dim << " width " << width << " j0 " << j0
                  << " (" << i << "," << j << "): " << Bits(got) << " vs "
                  << Bits(want);
            }
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// vector_ops
// ---------------------------------------------------------------------------

TEST(VectorOpsTest, L2NormOfUnitBasis) {
  std::vector<float> e(8, 0.0f);
  e[3] = 1.0f;
  EXPECT_FLOAT_EQ(L2Norm(e.data(), e.size()), 1.0f);
}

TEST(VectorOpsTest, NormalizeProducesUnitNorm) {
  auto v = RandomVec(100, 10);
  NormalizeInPlace(v.data(), v.size());
  EXPECT_NEAR(L2Norm(v.data(), v.size()), 1.0f, 1e-5f);
}

TEST(VectorOpsTest, NormalizeZeroVectorIsNoop) {
  std::vector<float> z(16, 0.0f);
  NormalizeInPlace(z.data(), z.size());
  for (float x : z) EXPECT_EQ(x, 0.0f);
}

TEST(VectorOpsTest, CosineOfParallelVectorsIsOne) {
  auto v = RandomVec(64, 11);
  std::vector<float> w(v);
  for (auto& x : w) x *= 2.5f;  // Same direction, different magnitude.
  EXPECT_NEAR(CosineSimilarity(v.data(), w.data(), 64), 1.0f, 1e-5f);
}

TEST(VectorOpsTest, CosineOfOppositeVectorsIsMinusOne) {
  auto v = RandomVec(64, 12);
  std::vector<float> w(v);
  for (auto& x : w) x = -x;
  EXPECT_NEAR(CosineSimilarity(v.data(), w.data(), 64), -1.0f, 1e-5f);
}

TEST(VectorOpsTest, CosineOfOrthogonalVectorsIsZero) {
  std::vector<float> a = {1.0f, 0.0f, 0.0f, 0.0f};
  std::vector<float> b = {0.0f, 1.0f, 0.0f, 0.0f};
  EXPECT_FLOAT_EQ(CosineSimilarity(a, b), 0.0f);
}

TEST(VectorOpsTest, CosineWithZeroVectorIsZero) {
  std::vector<float> a = {1.0f, 2.0f};
  std::vector<float> z = {0.0f, 0.0f};
  EXPECT_EQ(CosineSimilarity(a, z), 0.0f);
}

TEST(VectorOpsTest, CosineEqualsDotForUnitVectors) {
  auto a = RandomVec(100, 13);
  auto b = RandomVec(100, 14);
  NormalizeInPlace(a.data(), a.size());
  NormalizeInPlace(b.data(), b.size());
  EXPECT_NEAR(CosineSimilarity(a, b), Dot(a, b), 1e-5f);
}

// ---------------------------------------------------------------------------
// Matrix
// ---------------------------------------------------------------------------

TEST(MatrixTest, ShapeAndZeroInit) {
  Matrix m(3, 5);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 5u);
  EXPECT_EQ(m.size(), 15u);
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 5; ++c) EXPECT_EQ(m.At(r, c), 0.0f);
  }
}

TEST(MatrixTest, RowPointersAreContiguous) {
  Matrix m(4, 7);
  EXPECT_EQ(m.Row(1), m.data() + 7);
  EXPECT_EQ(m.Row(3), m.data() + 21);
}

TEST(MatrixTest, CloneIsDeep) {
  Matrix m(2, 2);
  m.At(0, 0) = 1.0f;
  Matrix c = m.Clone();
  c.At(0, 0) = 9.0f;
  EXPECT_EQ(m.At(0, 0), 1.0f);
  EXPECT_EQ(c.At(0, 0), 9.0f);
}

TEST(MatrixTest, NormalizeRowsMakesUnitRows) {
  Matrix m = workload::RandomUnitVectors(10, 32, 15);
  for (size_t r = 0; r < m.rows(); ++r) {
    float* row = m.Row(r);
    for (size_t c = 0; c < m.cols(); ++c) row[c] *= 3.0f;
  }
  m.NormalizeRows();
  for (size_t r = 0; r < m.rows(); ++r) {
    EXPECT_NEAR(L2Norm(m.Row(r), m.cols()), 1.0f, 1e-5f);
  }
}

TEST(MatrixTest, NormalizeRowsSkipsZeroRows) {
  Matrix m(2, 4);
  m.At(1, 0) = 2.0f;
  m.NormalizeRows();
  for (size_t c = 0; c < 4; ++c) EXPECT_EQ(m.At(0, c), 0.0f);
  EXPECT_FLOAT_EQ(m.At(1, 0), 1.0f);
}

TEST(MatrixTest, ResetReshapesAndZeroes) {
  Matrix m(2, 2);
  m.At(0, 0) = 5.0f;
  m.Reset(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.At(0, 0), 0.0f);
}

TEST(MatrixTest, MemoryBytesTracksSize) {
  Matrix m(100, 100);
  EXPECT_EQ(m.MemoryBytes(), 100u * 100u * sizeof(float));
}

// ---------------------------------------------------------------------------
// GEMM: parameterized over (m, n, dim, block_m, block_n).
// ---------------------------------------------------------------------------

using GemmShape = std::tuple<size_t, size_t, size_t, size_t, size_t>;

class GemmTest : public ::testing::TestWithParam<GemmShape> {};

TEST_P(GemmTest, MatchesNaiveReference) {
  const auto [m, n, dim, block_m, block_n] = GetParam();
  Matrix a = workload::RandomUnitVectors(m, dim, 20);
  Matrix b = workload::RandomUnitVectors(n, dim, 21);
  Matrix expected(m, n);
  GemmABtReference(a, b, &expected);

  GemmOptions options;
  options.block_m = block_m;
  options.block_n = block_n;
  for (SimdMode mode : kBothModes) {
    options.simd = mode;
    Matrix d(m, n);
    GemmABt(a, b, &d, options);
    for (size_t i = 0; i < m; ++i) {
      for (size_t j = 0; j < n; ++j) {
        EXPECT_NEAR(d.At(i, j), expected.At(i, j), 1e-4f)
            << "at (" << i << "," << j << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmTest,
    ::testing::Values(GemmShape{1, 1, 1, 1, 1},      // degenerate
                      GemmShape{3, 5, 7, 2, 2},      // odd everything
                      GemmShape{16, 16, 16, 4, 4},   // exact tiling
                      GemmShape{17, 19, 100, 4, 8},  // ragged tiles
                      GemmShape{64, 32, 100, 64, 256},
                      GemmShape{50, 70, 256, 8, 16},
                      GemmShape{5, 100, 1, 2, 64},   // dim=1 (Fig 11 case)
                      GemmShape{100, 5, 64, 128, 128}));

TEST(GemmTest, ParallelMatchesSequential) {
  ThreadPool pool(4);
  Matrix a = workload::RandomUnitVectors(97, 100, 22);
  Matrix b = workload::RandomUnitVectors(113, 100, 23);
  Matrix sequential(97, 113);
  GemmABt(a, b, &sequential);
  GemmOptions options;
  options.pool = &pool;
  options.block_m = 8;
  Matrix parallel(97, 113);
  GemmABt(a, b, &parallel, options);
  for (size_t i = 0; i < sequential.rows(); ++i) {
    for (size_t j = 0; j < sequential.cols(); ++j) {
      EXPECT_EQ(sequential.At(i, j), parallel.At(i, j));
    }
  }
}

TEST(GemmTest, TileMatchesFullComputation) {
  Matrix a = workload::RandomUnitVectors(20, 64, 24);
  Matrix b = workload::RandomUnitVectors(30, 64, 25);
  Matrix full(20, 30);
  GemmABtReference(a, b, &full);
  // Compute the tile [5,12) x [7,19) and compare.
  const size_t i0 = 5, i1 = 12, j0 = 7, j1 = 19;
  std::vector<float> tile((i1 - i0) * (j1 - j0));
  GemmTile(a, b, i0, i1, j0, j1, tile.data(), SimdMode::kAuto);
  for (size_t i = i0; i < i1; ++i) {
    for (size_t j = j0; j < j1; ++j) {
      EXPECT_NEAR(tile[(i - i0) * (j1 - j0) + (j - j0)], full.At(i, j),
                  1e-4f);
    }
  }
}

TEST(GemmTest, UnitVectorProductsAreBounded) {
  // Property: dots of unit vectors lie in [-1, 1] (up to rounding).
  Matrix a = workload::RandomUnitVectors(40, 100, 26);
  Matrix b = workload::RandomUnitVectors(40, 100, 27);
  Matrix d(40, 40);
  GemmABt(a, b, &d);
  for (size_t i = 0; i < 40; ++i) {
    for (size_t j = 0; j < 40; ++j) {
      EXPECT_GE(d.At(i, j), -1.0f - 1e-4f);
      EXPECT_LE(d.At(i, j), 1.0f + 1e-4f);
    }
  }
}

// ---------------------------------------------------------------------------
// Top-k
// ---------------------------------------------------------------------------

TEST(TopKTest, KeepsBestK) {
  TopKCollector collector(3);
  const float scores[] = {0.1f, 0.9f, 0.5f, 0.7f, 0.3f};
  for (size_t i = 0; i < 5; ++i) collector.Push(scores[i], i);
  auto top = collector.TakeSorted();
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].id, 1u);  // 0.9
  EXPECT_EQ(top[1].id, 3u);  // 0.7
  EXPECT_EQ(top[2].id, 2u);  // 0.5
}

TEST(TopKTest, FewerThanKKeepsAll) {
  TopKCollector collector(10);
  collector.Push(0.5f, 0);
  collector.Push(0.6f, 1);
  auto top = collector.TakeSorted();
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].id, 1u);
}

TEST(TopKTest, TieBrokenBySmallerId) {
  TopKCollector collector(2);
  collector.Push(0.5f, 7);
  collector.Push(0.5f, 3);
  collector.Push(0.5f, 5);
  auto top = collector.TakeSorted();
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].id, 3u);
  EXPECT_EQ(top[1].id, 5u);
}

TEST(TopKTest, WouldAcceptTracksThreshold) {
  TopKCollector collector(2);
  collector.Push(0.8f, 1);
  collector.Push(0.6f, 4);
  EXPECT_TRUE(collector.WouldAccept(0.7f, 99));  // Beats the worst score.
  EXPECT_TRUE(collector.WouldAccept(0.6f, 0));   // Tie, smaller id displaces.
  EXPECT_FALSE(collector.WouldAccept(0.6f, 9));  // Tie, larger id: Push
                                                 // would reject it too.
  EXPECT_FALSE(collector.WouldAccept(0.5f, 0));
}

TEST(TopKTest, WouldAcceptIsAFaithfulPushPreFilter) {
  // Property: WouldAccept answers exactly whether the candidate survives
  // the subsequent Push — no tie admitted and then rejected on id, no
  // candidate rejected and then kept.
  constexpr size_t kK = 8;
  Rng rng(77);
  TopKCollector collector(kK);
  std::vector<ScoredId> all;
  for (uint64_t id = 0; id < 300; ++id) {
    // Coarse score grid: plenty of exact ties.
    const float score = static_cast<float>(rng.NextBounded(10)) / 10.0f;
    const bool predicted = collector.WouldAccept(score, id);
    collector.Push(score, id);
    all.push_back({score, id});
    std::sort(all.begin(), all.end());  // Best-first total order.
    const size_t kept_n = std::min(all.size(), kK);
    const bool kept =
        std::find(all.begin(), all.begin() + kept_n, ScoredId{score, id}) !=
        all.begin() + kept_n;
    EXPECT_EQ(predicted, kept) << "id " << id;
  }
}

TEST(TopKTest, SelectTopKMatchesFullSort) {
  Rng rng(30);
  std::vector<float> scores(500);
  for (auto& s : scores) s = rng.NextFloat();
  for (size_t k : {1u, 5u, 50u, 499u, 500u, 600u}) {
    auto top = SelectTopK(scores.data(), scores.size(), k);
    // Reference: indices sorted by (-score, id).
    std::vector<size_t> idx(scores.size());
    std::iota(idx.begin(), idx.end(), 0u);
    std::sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
      if (scores[a] != scores[b]) return scores[a] > scores[b];
      return a < b;
    });
    ASSERT_EQ(top.size(), std::min(k, scores.size()));
    for (size_t i = 0; i < top.size(); ++i) {
      EXPECT_EQ(top[i].id, idx[i]) << "k=" << k << " i=" << i;
    }
  }
}

TEST(TopKTest, SelectTopKZeroReturnsEmpty) {
  const float scores[] = {1.0f};
  EXPECT_TRUE(SelectTopK(scores, 1, 0).empty());
}

}  // namespace
}  // namespace cej::la
