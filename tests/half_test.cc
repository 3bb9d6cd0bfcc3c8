// Tests for cej/la half-precision support: conversion correctness
// (round-trip, specials, rounding), HalfMatrix, and FP16 as an at-rest
// format — widened once with ToFloat(), then scored and joined in FP32 —
// against the FP32 originals with appropriate error bounds.

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "cej/common/rng.h"
#include "cej/join/tensor_join.h"
#include "cej/la/half.h"
#include "cej/la/simd.h"
#include "cej/la/vector_ops.h"
#include "cej/workload/generators.h"

namespace cej::la {
namespace {

TEST(HalfConversionTest, ExactSmallValuesRoundTrip) {
  // Values exactly representable in binary16 survive the round trip.
  for (float v : {0.0f, 1.0f, -1.0f, 0.5f, 2.0f, 1024.0f, -0.25f,
                  0.099975586f /* nearest half to 0.1 */}) {
    EXPECT_EQ(HalfToFloat(FloatToHalf(v)), v) << v;
  }
}

TEST(HalfConversionTest, SignedZeroPreserved) {
  EXPECT_EQ(FloatToHalf(0.0f), 0x0000u);
  EXPECT_EQ(FloatToHalf(-0.0f), 0x8000u);
}

TEST(HalfConversionTest, InfinityAndNaN) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(HalfToFloat(FloatToHalf(inf)), inf);
  EXPECT_EQ(HalfToFloat(FloatToHalf(-inf)), -inf);
  EXPECT_TRUE(std::isnan(
      HalfToFloat(FloatToHalf(std::numeric_limits<float>::quiet_NaN()))));
}

TEST(HalfConversionTest, OverflowSaturatesToInfinity) {
  EXPECT_EQ(HalfToFloat(FloatToHalf(1e6f)),
            std::numeric_limits<float>::infinity());
  EXPECT_EQ(HalfToFloat(FloatToHalf(-1e6f)),
            -std::numeric_limits<float>::infinity());
}

TEST(HalfConversionTest, SubnormalsRepresentable) {
  // 2^-20 is subnormal in half (min normal is 2^-14); must survive with
  // limited precision rather than flushing to zero.
  const float v = std::ldexp(1.0f, -20);
  const float back = HalfToFloat(FloatToHalf(v));
  EXPECT_GT(back, 0.0f);
  EXPECT_NEAR(back, v, v * 0.01f);
  // Below half's min subnormal (2^-24): flush to zero.
  EXPECT_EQ(HalfToFloat(FloatToHalf(std::ldexp(1.0f, -26))), 0.0f);
}

TEST(HalfConversionTest, UnitRangeRelativeErrorBounded) {
  // Embedding components live in [-1, 1]: relative error <= 2^-11.
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const float v = static_cast<float>(rng.NextDouble() * 2.0 - 1.0);
    const float back = HalfToFloat(FloatToHalf(v));
    EXPECT_NEAR(back, v, std::abs(v) * (1.0f / 2048.0f) + 1e-7f);
  }
}

TEST(HalfConversionTest, PortableMatchesHardwarePath) {
  // Bit-exact agreement between the software converter and whatever
  // FloatToHalf/HalfToFloat dispatch to (F16C on this host), across
  // normals, subnormals and random values.
  Rng rng(2);
  for (int i = 0; i < 20000; ++i) {
    float v;
    if (i < 100) {
      v = std::ldexp(1.0f, -30 + i);  // Ladder through the exponent range.
    } else {
      v = static_cast<float>((rng.NextDouble() * 2.0 - 1.0) *
                             std::ldexp(1.0, static_cast<int>(
                                                 rng.NextBounded(40)) -
                                                 20));
    }
    EXPECT_EQ(FloatToHalf(v), FloatToHalfPortable(v)) << v;
  }
  for (int i = 0; i < 20000; ++i) {
    const Half h = static_cast<Half>(rng.NextBounded(65536));
    const float a = HalfToFloat(h);
    const float b = HalfToFloatPortable(h);
    if (std::isnan(a) || std::isnan(b)) {
      EXPECT_TRUE(std::isnan(a) && std::isnan(b)) << h;
    } else {
      EXPECT_EQ(a, b) << h;
    }
  }
}

TEST(HalfMatrixTest, RoundTripPreservesShapeAndValues) {
  Matrix source = workload::RandomUnitVectors(10, 33, 2);
  HalfMatrix half = HalfMatrix::FromFloat(source);
  EXPECT_EQ(half.rows(), 10u);
  EXPECT_EQ(half.cols(), 33u);
  EXPECT_EQ(half.MemoryBytes(), source.MemoryBytes() / 2);
  Matrix back = half.ToFloat();
  for (size_t i = 0; i < source.size(); ++i) {
    EXPECT_NEAR(back.data()[i], source.data()[i], 1e-3f);
  }
}

class HalfDotTest : public ::testing::TestWithParam<size_t> {};

TEST_P(HalfDotTest, MatchesFp32WithinHalfPrecision) {
  const size_t dim = GetParam();
  Matrix a = workload::RandomUnitVectors(1, dim, 3);
  Matrix b = workload::RandomUnitVectors(1, dim, 4);
  const float exact = Dot(a.Row(0), b.Row(0), dim, SimdMode::kAuto);
  const Matrix wa = HalfMatrix::FromFloat(a).ToFloat();
  const Matrix wb = HalfMatrix::FromFloat(b).ToFloat();
  // Unit vectors: |dot| <= 1; per-element error ~2^-11 accumulates like
  // sqrt(dim) for random signs — 0.01 is a generous deterministic bound.
  for (SimdMode mode : {SimdMode::kForceScalar, SimdMode::kAuto}) {
    EXPECT_NEAR(Dot(wa.Row(0), wb.Row(0), dim, mode), exact, 0.01f)
        << "dim " << dim;
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, HalfDotTest,
                         ::testing::Values(1, 3, 8, 15, 16, 17, 31, 32, 64,
                                           100, 256));

TEST(HalfDotTest, SimilarityRankingPreservedUnderFp16) {
  // The property FP16 storage must preserve for joins: the *ranking* of
  // candidates (top-k results) survives quantization for well-separated
  // similarities.
  const size_t dim = 100, n = 50;
  Matrix query = workload::RandomUnitVectors(1, dim, 9);
  Matrix data = workload::RandomUnitVectors(n, dim, 10);
  const Matrix wquery = HalfMatrix::FromFloat(query).ToFloat();
  const Matrix wdata = HalfMatrix::FromFloat(data).ToFloat();
  // Find FP32 argmax and runner-up.
  size_t best = 0;
  float best_sim = -2.0f, second = -2.0f;
  for (size_t r = 0; r < n; ++r) {
    const float sim = Dot(query.Row(0), data.Row(r), dim, SimdMode::kAuto);
    if (sim > best_sim) {
      second = best_sim;
      best_sim = sim;
      best = r;
    } else if (sim > second) {
      second = sim;
    }
  }
  if (best_sim - second > 0.02f) {  // Well-separated: FP16 must agree.
    size_t half_best = 0;
    float half_best_sim = -2.0f;
    for (size_t r = 0; r < n; ++r) {
      const float sim = Dot(wquery.Row(0), wdata.Row(r), dim);
      if (sim > half_best_sim) {
        half_best_sim = sim;
        half_best = r;
      }
    }
    EXPECT_EQ(half_best, best);
  }
}

TEST(HalfTensorJoinTest, TopKAgreesWithFp32Join) {
  const size_t dim = 100;
  Matrix left = workload::RandomUnitVectors(30, dim, 11);
  Matrix right = workload::RandomUnitVectors(120, dim, 12);
  HalfMatrix hleft = HalfMatrix::FromFloat(left);
  HalfMatrix hright = HalfMatrix::FromFloat(right);
  auto fp32 = join::TensorJoinMatrices(left, right,
                                       join::JoinCondition::TopK(3));
  auto fp16 = join::TensorJoinMatrices(hleft.ToFloat(), hright.ToFloat(),
                                       join::JoinCondition::TopK(3));
  ASSERT_TRUE(fp32.ok() && fp16.ok());
  ASSERT_EQ(fp32->pairs.size(), fp16->pairs.size());
  // Random unit vectors have well-separated top-k at n=120: quantization
  // must not flip more than a tiny fraction of the selections.
  size_t agree = 0;
  for (size_t i = 0; i < fp32->pairs.size(); ++i) {
    agree += (fp32->pairs[i].left == fp16->pairs[i].left &&
              fp32->pairs[i].right == fp16->pairs[i].right);
  }
  EXPECT_GE(static_cast<double>(agree) / fp32->pairs.size(), 0.95);
}

TEST(HalfTensorJoinTest, ThresholdSimilaritiesWithinQuantizationError) {
  const size_t dim = 64;
  Matrix left = workload::RandomUnitVectors(20, dim, 13);
  Matrix right = workload::RandomUnitVectors(20, dim, 14);
  HalfMatrix hleft = HalfMatrix::FromFloat(left);
  HalfMatrix hright = HalfMatrix::FromFloat(right);
  // Threshold below every possible similarity: both joins emit the full
  // cross product and we can compare similarities pairwise.
  auto fp32 = join::TensorJoinMatrices(
      left, right, join::JoinCondition::Threshold(-1.1f));
  auto fp16 = join::TensorJoinMatrices(
      hleft.ToFloat(), hright.ToFloat(),
      join::JoinCondition::Threshold(-1.1f));
  ASSERT_TRUE(fp32.ok() && fp16.ok());
  ASSERT_EQ(fp32->pairs.size(), 400u);
  ASSERT_EQ(fp16->pairs.size(), 400u);
  for (size_t i = 0; i < 400; ++i) {
    EXPECT_NEAR(fp16->pairs[i].similarity, fp32->pairs[i].similarity,
                0.01f);
  }
}

TEST(HalfTensorJoinTest, RejectsDimMismatch) {
  HalfMatrix a = HalfMatrix::FromFloat(workload::RandomUnitVectors(2, 8, 1));
  HalfMatrix b =
      HalfMatrix::FromFloat(workload::RandomUnitVectors(2, 16, 2));
  EXPECT_FALSE(join::TensorJoinMatrices(
                   a.ToFloat(), b.ToFloat(),
                   join::JoinCondition::Threshold(0.5f))
                   .ok());
  EXPECT_FALSE(join::TensorJoinMatrices(a.ToFloat(), a.ToFloat(),
                                        join::JoinCondition::TopK(0))
                   .ok());
}

TEST(HalfTensorJoinTest, MiniBatchingPreservesResults) {
  const size_t dim = 32;
  const Matrix left =
      HalfMatrix::FromFloat(workload::RandomUnitVectors(40, dim, 15))
          .ToFloat();
  const Matrix right =
      HalfMatrix::FromFloat(workload::RandomUnitVectors(60, dim, 16))
          .ToFloat();
  auto full = join::TensorJoinMatrices(
      left, right, join::JoinCondition::Threshold(0.1f));
  join::TensorJoinOptions small_tiles;
  small_tiles.batch_rows_left = 3;
  small_tiles.batch_rows_right = 7;
  auto tiled = join::TensorJoinMatrices(
      left, right, join::JoinCondition::Threshold(0.1f), small_tiles);
  ASSERT_TRUE(full.ok() && tiled.ok());
  ASSERT_EQ(full->pairs.size(), tiled->pairs.size());
  for (size_t i = 0; i < full->pairs.size(); ++i) {
    EXPECT_EQ(full->pairs[i].left, tiled->pairs[i].left);
    EXPECT_EQ(full->pairs[i].right, tiled->pairs[i].right);
  }
}

}  // namespace
}  // namespace cej::la
