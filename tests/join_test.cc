// Tests for cej/join: the four physical E-join operators, cross-validated
// against each other and a brute-force reference; model-call accounting
// (the logical optimization's defining property); mini-batching and memory
// budgets; top-k and threshold conditions; filtered index joins.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cej/api/engine.h"
#include "cej/common/thread_pool.h"
#include "cej/index/flat_index.h"
#include "cej/index/hnsw_index.h"
#include "cej/join/index_join.h"
#include "cej/join/join_common.h"
#include "cej/join/nlj_naive.h"
#include "cej/join/nlj_prefetch.h"
#include "cej/join/tensor_join.h"
#include "cej/model/subword_hash_model.h"
#include "cej/workload/generators.h"

namespace cej::join {
namespace {

// Brute-force threshold join over matrices (double-precision reference).
std::vector<JoinPair> ReferenceThresholdJoin(const la::Matrix& left,
                                             const la::Matrix& right,
                                             float threshold) {
  std::vector<JoinPair> pairs;
  for (size_t i = 0; i < left.rows(); ++i) {
    for (size_t j = 0; j < right.rows(); ++j) {
      const float sim = la::Dot(left.Row(i), right.Row(j), left.cols());
      if (sim >= threshold) {
        pairs.push_back({static_cast<uint32_t>(i), static_cast<uint32_t>(j),
                         sim});
      }
    }
  }
  SortPairs(&pairs);
  return pairs;
}

std::set<std::pair<uint32_t, uint32_t>> PairSet(
    const std::vector<JoinPair>& pairs) {
  std::set<std::pair<uint32_t, uint32_t>> out;
  for (const auto& p : pairs) out.insert({p.left, p.right});
  return out;
}

// ---------------------------------------------------------------------------
// Condition / common types
// ---------------------------------------------------------------------------

TEST(JoinCommonTest, ConditionFactories) {
  auto t = JoinCondition::Threshold(0.8f);
  EXPECT_EQ(t.kind, JoinCondition::Kind::kThreshold);
  EXPECT_FLOAT_EQ(t.threshold, 0.8f);
  auto k = JoinCondition::TopK(5);
  EXPECT_EQ(k.kind, JoinCondition::Kind::kTopK);
  EXPECT_EQ(k.k, 5u);
}

TEST(JoinCommonTest, SortPairsIsCanonical) {
  std::vector<JoinPair> pairs = {{2, 1, 0.f}, {1, 2, 0.f}, {1, 1, 0.f}};
  SortPairs(&pairs);
  EXPECT_EQ(pairs[0].left, 1u);
  EXPECT_EQ(pairs[0].right, 1u);
  EXPECT_EQ(pairs[1].left, 1u);
  EXPECT_EQ(pairs[1].right, 2u);
  EXPECT_EQ(pairs[2].left, 2u);
}

TEST(JoinCommonTest, ValidateRejectsDimMismatch) {
  la::Matrix a(2, 4), b(2, 8);
  EXPECT_FALSE(ValidateJoinInputs(a, b).ok());
  la::Matrix c(2, 0), d(2, 0);
  EXPECT_FALSE(ValidateJoinInputs(c, d).ok());
  la::Matrix e(2, 4), f(3, 4);
  EXPECT_TRUE(ValidateJoinInputs(e, f).ok());
}

// ---------------------------------------------------------------------------
// Cross-operator agreement (the core correctness property).
// ---------------------------------------------------------------------------

struct AgreementCase {
  size_t m;
  size_t n;
  size_t dim;
  float threshold;
};

class JoinAgreementTest : public ::testing::TestWithParam<AgreementCase> {};

TEST_P(JoinAgreementTest, PrefetchNljMatchesReference) {
  const auto [m, n, dim, threshold] = GetParam();
  la::Matrix left = workload::RandomUnitVectors(m, dim, 1);
  la::Matrix right = workload::RandomUnitVectors(n, dim, 2);
  auto expected = ReferenceThresholdJoin(left, right, threshold);
  auto got = NljJoinMatrices(left, right, JoinCondition::Threshold(threshold));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(PairSet(got->pairs), PairSet(expected));
}

TEST_P(JoinAgreementTest, TensorMatchesReference) {
  const auto [m, n, dim, threshold] = GetParam();
  la::Matrix left = workload::RandomUnitVectors(m, dim, 1);
  la::Matrix right = workload::RandomUnitVectors(n, dim, 2);
  auto expected = ReferenceThresholdJoin(left, right, threshold);
  TensorJoinOptions options;
  options.batch_rows_left = 7;  // Ragged tiles on purpose.
  options.batch_rows_right = 13;
  auto got = TensorJoinMatrices(left, right,
                                JoinCondition::Threshold(threshold), options);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(PairSet(got->pairs), PairSet(expected));
}

TEST_P(JoinAgreementTest, ParallelOperatorsMatchSequential) {
  const auto [m, n, dim, threshold] = GetParam();
  ThreadPool pool(4);
  la::Matrix left = workload::RandomUnitVectors(m, dim, 1);
  la::Matrix right = workload::RandomUnitVectors(n, dim, 2);
  auto expected = ReferenceThresholdJoin(left, right, threshold);

  NljOptions nlj_options;
  nlj_options.pool = &pool;
  auto nlj = NljJoinMatrices(left, right,
                             JoinCondition::Threshold(threshold),
                             nlj_options);
  ASSERT_TRUE(nlj.ok());
  EXPECT_EQ(PairSet(nlj->pairs), PairSet(expected));

  TensorJoinOptions tensor_options;
  tensor_options.pool = &pool;
  tensor_options.batch_rows_left = 3;
  auto tensor = TensorJoinMatrices(
      left, right, JoinCondition::Threshold(threshold), tensor_options);
  ASSERT_TRUE(tensor.ok());
  EXPECT_EQ(PairSet(tensor->pairs), PairSet(expected));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, JoinAgreementTest,
    ::testing::Values(AgreementCase{1, 1, 8, 0.0f},
                      AgreementCase{10, 10, 16, 0.1f},
                      AgreementCase{37, 53, 100, 0.15f},
                      AgreementCase{100, 20, 32, 0.05f},
                      AgreementCase{20, 100, 32, 0.05f},
                      AgreementCase{64, 64, 1, 0.5f},   // dim=1 edge
                      AgreementCase{50, 50, 100, 1.1f}, // empty result
                      AgreementCase{50, 50, 100, -1.1f}));  // full cross

TEST(JoinAgreementTest, TopKAgreesAcrossOperatorsAndFlatIndex) {
  la::Matrix left = workload::RandomUnitVectors(40, 32, 3);
  la::Matrix right = workload::RandomUnitVectors(150, 32, 4);
  for (size_t k : {1u, 5u, 32u}) {
    auto nlj = NljJoinMatrices(left, right, JoinCondition::TopK(k));
    TensorJoinOptions topts;
    topts.batch_rows_left = 11;
    topts.batch_rows_right = 17;
    auto tensor =
        TensorJoinMatrices(left, right, JoinCondition::TopK(k), topts);
    index::FlatIndex flat(right.Clone());
    auto via_index = IndexJoin(left, flat, JoinCondition::TopK(k));
    ASSERT_TRUE(nlj.ok() && tensor.ok() && via_index.ok());
    EXPECT_EQ(PairSet(nlj->pairs), PairSet(tensor->pairs)) << "k=" << k;
    EXPECT_EQ(PairSet(nlj->pairs), PairSet(via_index->pairs)) << "k=" << k;
    // Exactly k matches per left row (right has >= k rows).
    EXPECT_EQ(nlj->pairs.size(), left.rows() * k);
  }
}

TEST(JoinAgreementTest, NaiveNljMatchesPrefetchNlj) {
  model::SubwordHashModel model;
  auto left = workload::RandomStrings(15, 4, 8, 5);
  auto right = workload::RandomStrings(25, 4, 8, 6);
  const float threshold = 0.4f;
  auto naive = NaiveNljJoin(left, right, model, threshold);
  auto prefetch = NljJoinMatrices(model.EmbedBatch(left),
                                  model.EmbedBatch(right),
                                  JoinCondition::Threshold(threshold));
  ASSERT_TRUE(naive.ok() && prefetch.ok());
  EXPECT_EQ(PairSet(naive->pairs), PairSet(prefetch->pairs));
}

// ---------------------------------------------------------------------------
// Model-call accounting: the logical optimization's measurable claim.
// ---------------------------------------------------------------------------

TEST(ModelCostTest, NaiveNljPaysQuadraticModelCost) {
  model::SubwordHashModel model;
  auto left = workload::RandomStrings(12, 4, 6, 7);
  auto right = workload::RandomStrings(9, 4, 6, 8);
  auto result = NaiveNljJoin(left, right, model, 0.5f);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.model_calls, 2u * 12u * 9u);
}

// Runs one optimized string join forced onto `op` through the Engine with
// the embedding cache off, and returns the model calls it made: the plan's
// Embed nodes embed each side once, whichever vector operator joins them.
uint64_t OptimizedJoinModelCalls(const std::string& op,
                                 const std::vector<std::string>& left,
                                 const std::vector<std::string>& right,
                                 model::SubwordHashModel* model) {
  auto words_table = [](const std::vector<std::string>& words) {
    auto schema =
        storage::Schema::Create({{"word", storage::DataType::kString, 0}});
    CEJ_CHECK(schema.ok());
    std::vector<storage::Column> columns;
    columns.push_back(storage::Column::String(words));
    auto rel = storage::Relation::Create(std::move(schema).value(),
                                         std::move(columns));
    CEJ_CHECK(rel.ok());
    return std::make_shared<const storage::Relation>(std::move(rel).value());
  };
  Engine::Options options;
  options.embedding_cache_bytes = 0;
  Engine engine(options);
  CEJ_CHECK(engine.RegisterTable("l", words_table(left)).ok());
  CEJ_CHECK(engine.RegisterTable("r", words_table(right)).ok());
  CEJ_CHECK(engine.RegisterModel("subword", model).ok());
  model->ResetStats();
  auto result = engine.Query("l")
                    .EJoin("r", "word", JoinCondition::Threshold(0.5f))
                    .Via(op)
                    .Execute();
  CEJ_CHECK(result.ok());
  EXPECT_EQ(result->stats.join_operator, op);
  EXPECT_EQ(result->stats.model_calls, model->embed_calls());
  return model->embed_calls();
}

TEST(ModelCostTest, PrefetchNljPaysLinearModelCost) {
  model::SubwordHashModel model;
  auto left = workload::RandomStrings(12, 4, 6, 7);
  auto right = workload::RandomStrings(9, 4, 6, 8);
  EXPECT_EQ(OptimizedJoinModelCalls("prefetch_nlj", left, right, &model),
            12u + 9u);
}

TEST(ModelCostTest, TensorJoinPaysLinearModelCost) {
  model::SubwordHashModel model;
  auto left = workload::RandomStrings(10, 4, 6, 9);
  auto right = workload::RandomStrings(14, 4, 6, 10);
  EXPECT_EQ(OptimizedJoinModelCalls("tensor", left, right, &model),
            10u + 14u);
}

TEST(ModelCostTest, SimilarityComputationCountIsCrossProduct) {
  la::Matrix left = workload::RandomUnitVectors(11, 16, 11);
  la::Matrix right = workload::RandomUnitVectors(13, 16, 12);
  auto r1 = NljJoinMatrices(left, right, JoinCondition::Threshold(0.5f));
  auto r2 = TensorJoinMatrices(left, right, JoinCondition::Threshold(0.5f));
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(r1->stats.similarity_computations, 11u * 13u);
  EXPECT_EQ(r2->stats.similarity_computations, 11u * 13u);
}

// ---------------------------------------------------------------------------
// NLJ specifics
// ---------------------------------------------------------------------------

TEST(NljTest, LoopOrderDoesNotChangeResults) {
  la::Matrix small = workload::RandomUnitVectors(10, 32, 13);
  la::Matrix large = workload::RandomUnitVectors(60, 32, 14);
  NljOptions as_given;
  as_given.loop_order = LoopOrder::kAsGiven;
  NljOptions smaller_inner;
  smaller_inner.loop_order = LoopOrder::kSmallerInner;
  auto a = NljJoinMatrices(small, large, JoinCondition::Threshold(0.1f),
                           as_given);
  auto b = NljJoinMatrices(small, large, JoinCondition::Threshold(0.1f),
                           smaller_inner);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(PairSet(a->pairs), PairSet(b->pairs));
}

TEST(NljTest, MatchesTensorSweepBitForBit) {
  // The NLJ scores one pair per call, the tensor sweep eight rows per
  // kernel call plus a leftover tail (30 rows: 3 blocks + 6). Both use the
  // one dot-product order, so pairs and similarity bits agree exactly.
  la::Matrix left = workload::RandomUnitVectors(30, 100, 15);
  la::Matrix right = workload::RandomUnitVectors(30, 100, 16);
  auto a = NljJoinMatrices(left, right, JoinCondition::Threshold(0.2f));
  auto b = TensorJoinMatrices(left, right, JoinCondition::Threshold(0.2f));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(PairSet(a->pairs), PairSet(b->pairs));
  ASSERT_EQ(a->pairs.size(), b->pairs.size());
  for (size_t p = 0; p < a->pairs.size(); ++p) {
    EXPECT_EQ(a->pairs[p].left, b->pairs[p].left);
    EXPECT_EQ(a->pairs[p].right, b->pairs[p].right);
    EXPECT_EQ(std::memcmp(&a->pairs[p].similarity, &b->pairs[p].similarity,
                          sizeof(float)),
              0);
  }
}

TEST(NljTest, RejectsTopKZero) {
  la::Matrix m = workload::RandomUnitVectors(3, 8, 17);
  EXPECT_FALSE(NljJoinMatrices(m, m, JoinCondition::TopK(0)).ok());
}

TEST(NljTest, EmptyRelationYieldsEmptyResult) {
  la::Matrix empty(0, 8);
  la::Matrix some = workload::RandomUnitVectors(5, 8, 18);
  auto r = NljJoinMatrices(empty, some, JoinCondition::Threshold(0.0f));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->pairs.empty());
}

// ---------------------------------------------------------------------------
// Tensor join specifics: batching and memory budget.
// ---------------------------------------------------------------------------

TEST(TensorJoinTest, MiniBatchSizesDoNotChangeResults) {
  la::Matrix left = workload::RandomUnitVectors(45, 64, 19);
  la::Matrix right = workload::RandomUnitVectors(77, 64, 20);
  auto expected = ReferenceThresholdJoin(left, right, 0.1f);
  for (size_t bl : {1u, 4u, 45u, 100u}) {
    for (size_t br : {1u, 16u, 77u, 200u}) {
      TensorJoinOptions options;
      options.batch_rows_left = bl;
      options.batch_rows_right = br;
      auto got = TensorJoinMatrices(left, right,
                                    JoinCondition::Threshold(0.1f), options);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(PairSet(got->pairs), PairSet(expected))
          << "bl=" << bl << " br=" << br;
    }
  }
}

TEST(TensorJoinTest, MemoryBudgetShrinksTiles) {
  TensorJoinOptions options;
  options.batch_rows_left = 1000;
  options.batch_rows_right = 1000;
  options.memory_budget_bytes = 64 * 1024;  // 64 KB.
  TileShape shape = ResolveTileShape(5000, 5000, /*dim=*/100, options);
  EXPECT_LE(shape.buffer_bytes(), options.memory_budget_bytes);
  EXPECT_GE(shape.rows_left, 1u);
  EXPECT_GE(shape.rows_right, 1u);
}

TEST(TensorJoinTest, MemoryBudgetIsRespectedInStats) {
  la::Matrix left = workload::RandomUnitVectors(200, 32, 21);
  la::Matrix right = workload::RandomUnitVectors(300, 32, 22);
  TensorJoinOptions options;
  options.batch_rows_left = 200;
  options.batch_rows_right = 300;
  options.memory_budget_bytes = 16 * 1024;
  auto got = TensorJoinMatrices(left, right, JoinCondition::Threshold(0.2f),
                                options);
  ASSERT_TRUE(got.ok());
  EXPECT_LE(got->stats.peak_buffer_bytes, options.memory_budget_bytes);
}

TEST(TensorJoinTest, NoBatchUsesFullMatrixBuffer) {
  la::Matrix left = workload::RandomUnitVectors(50, 16, 23);
  la::Matrix right = workload::RandomUnitVectors(60, 16, 24);
  TensorJoinOptions options;
  options.batch_rows_left = 50;
  options.batch_rows_right = 60;
  auto got = TensorJoinMatrices(left, right, JoinCondition::Threshold(0.2f),
                                options);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->stats.peak_buffer_bytes, 50u * 60u * sizeof(float));
}

TEST(TensorJoinTest, AutoTileShapeIsBounded) {
  TensorJoinOptions options;  // All defaults.
  TileShape shape = ResolveTileShape(1000000, 1000000, /*dim=*/100, options);
  EXPECT_LE(shape.buffer_bytes(), 8u * 1024 * 1024);
}

TEST(TensorJoinTest, RejectsInvalidConditions) {
  la::Matrix m = workload::RandomUnitVectors(3, 8, 25);
  EXPECT_FALSE(TensorJoinMatrices(m, m, JoinCondition::TopK(0)).ok());
  la::Matrix wrong_dim = workload::RandomUnitVectors(3, 4, 26);
  EXPECT_FALSE(
      TensorJoinMatrices(m, wrong_dim, JoinCondition::Threshold(0.5f)).ok());
}

TEST(TensorJoinTest, TopKWithKLargerThanRightReturnsAllRanked) {
  la::Matrix left = workload::RandomUnitVectors(4, 16, 27);
  la::Matrix right = workload::RandomUnitVectors(6, 16, 28);
  auto got = TensorJoinMatrices(left, right, JoinCondition::TopK(100));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->pairs.size(), 4u * 6u);
}

// ---------------------------------------------------------------------------
// Index join specifics
// ---------------------------------------------------------------------------

TEST(IndexJoinTest, FlatIndexTopKIsExact) {
  la::Matrix left = workload::RandomUnitVectors(20, 16, 29);
  la::Matrix right = workload::RandomUnitVectors(100, 16, 30);
  index::FlatIndex flat(right.Clone());
  auto via_index = IndexJoin(left, flat, JoinCondition::TopK(3));
  auto via_scan = NljJoinMatrices(left, right, JoinCondition::TopK(3));
  ASSERT_TRUE(via_index.ok() && via_scan.ok());
  EXPECT_EQ(PairSet(via_index->pairs), PairSet(via_scan->pairs));
}

TEST(IndexJoinTest, HnswTopKHasHighRecall) {
  la::Matrix left = workload::RandomUnitVectors(30, 32, 31);
  la::Matrix right = workload::RandomUnitVectors(1500, 32, 32);
  auto hnsw = index::HnswIndex::Build(right.Clone(),
                                      index::HnswBuildOptions::Hi());
  ASSERT_TRUE(hnsw.ok());
  (*hnsw)->set_ef_search(128);
  auto approx = IndexJoin(left, **hnsw, JoinCondition::TopK(5));
  auto exact = NljJoinMatrices(left, right, JoinCondition::TopK(5));
  ASSERT_TRUE(approx.ok() && exact.ok());
  auto truth = PairSet(exact->pairs);
  size_t hits = 0;
  for (const auto& p : approx->pairs) {
    hits += truth.count({p.left, p.right});
  }
  EXPECT_GE(static_cast<double>(hits) / truth.size(), 0.9);
}

TEST(IndexJoinTest, PreFilterExcludesFromResultsOnly) {
  la::Matrix left = workload::RandomUnitVectors(10, 16, 33);
  la::Matrix right = workload::RandomUnitVectors(200, 16, 34);
  index::FlatIndex flat(right.Clone());
  index::FilterBitmap filter = workload::ExactSelectivityBitmap(200, 25, 35);
  IndexJoinOptions options;
  options.filter = &filter;
  auto got = IndexJoin(left, flat, JoinCondition::TopK(4), options);
  ASSERT_TRUE(got.ok());
  for (const auto& p : got->pairs) EXPECT_TRUE(filter[p.right]);
  EXPECT_EQ(got->pairs.size(), 10u * 4u);  // 50 admissible rows >= k.
}

TEST(IndexJoinTest, RangeConditionMatchesFlatRangeSearch) {
  la::Matrix left = workload::RandomUnitVectors(8, 16, 36);
  la::Matrix right = workload::RandomUnitVectors(300, 16, 37);
  index::FlatIndex flat(right.Clone());
  auto got = IndexJoin(left, flat, JoinCondition::Threshold(0.3f));
  auto expected = ReferenceThresholdJoin(left, right, 0.3f);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(PairSet(got->pairs), PairSet(expected));
}

TEST(IndexJoinTest, RejectsBadInputs) {
  la::Matrix left = workload::RandomUnitVectors(2, 8, 38);
  index::FlatIndex flat(workload::RandomUnitVectors(10, 16, 39));
  EXPECT_FALSE(IndexJoin(left, flat, JoinCondition::TopK(1)).ok());

  la::Matrix ok_left = workload::RandomUnitVectors(2, 16, 40);
  EXPECT_FALSE(IndexJoin(ok_left, flat, JoinCondition::TopK(0)).ok());

  index::FilterBitmap wrong_size(5, 1);
  IndexJoinOptions options;
  options.filter = &wrong_size;
  EXPECT_FALSE(
      IndexJoin(ok_left, flat, JoinCondition::TopK(1), options).ok());
}

TEST(IndexJoinTest, ParallelProbesMatchSequential) {
  ThreadPool pool(4);
  la::Matrix left = workload::RandomUnitVectors(50, 16, 41);
  la::Matrix right = workload::RandomUnitVectors(400, 16, 42);
  index::FlatIndex flat(right.Clone());
  IndexJoinOptions parallel;
  parallel.pool = &pool;
  parallel.shard_count = 16;  // More shards than the pool's 5 threads.
  auto a = IndexJoin(left, flat, JoinCondition::TopK(2), parallel);
  auto b = IndexJoin(left, flat, JoinCondition::TopK(2));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->stats.shards_used, 16u);
  EXPECT_EQ(PairSet(a->pairs), PairSet(b->pairs));
}

}  // namespace
}  // namespace cej::join
