// Tests for cej/join E-selection: scan/string/index variants, agreement
// with reference scans, cost accounting (|R| + 1 model calls), and
// consistency with the E-join's one-query special case.

#include <gtest/gtest.h>

#include "cej/common/thread_pool.h"
#include "cej/index/flat_index.h"
#include "cej/index/hnsw_index.h"
#include "cej/join/e_selection.h"
#include "cej/join/nlj_prefetch.h"
#include "cej/model/subword_hash_model.h"
#include "cej/workload/generators.h"

namespace cej::join {
namespace {

TEST(ESelectTest, ThresholdMatchesReferenceScan) {
  la::Matrix data = workload::RandomUnitVectors(300, 32, 1);
  la::Matrix q = workload::RandomUnitVectors(1, 32, 2);
  const float threshold = 0.2f;
  auto result = ESelect(data, q.Row(0), JoinCondition::Threshold(threshold));
  ASSERT_TRUE(result.ok());
  std::vector<la::ScoredId> expected;
  for (size_t r = 0; r < data.rows(); ++r) {
    const float sim = la::Dot(q.Row(0), data.Row(r), 32);
    if (sim >= threshold) expected.push_back({sim, r});
  }
  std::sort(expected.begin(), expected.end());
  ASSERT_EQ(result->matches.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(result->matches[i].id, expected[i].id);
  }
  EXPECT_EQ(result->stats.similarity_computations, 300u);
}

TEST(ESelectTest, TopKMatchesSelectTopK) {
  la::Matrix data = workload::RandomUnitVectors(200, 16, 3);
  la::Matrix q = workload::RandomUnitVectors(1, 16, 4);
  auto result = ESelect(data, q.Row(0), JoinCondition::TopK(7));
  ASSERT_TRUE(result.ok());
  std::vector<float> scores(data.rows());
  for (size_t r = 0; r < data.rows(); ++r) {
    scores[r] = la::Dot(q.Row(0), data.Row(r), 16);
  }
  auto expected = la::SelectTopK(scores.data(), scores.size(), 7);
  ASSERT_EQ(result->matches.size(), 7u);
  for (size_t i = 0; i < 7; ++i) {
    EXPECT_EQ(result->matches[i].id, expected[i].id);
  }
}

TEST(ESelectTest, ParallelThresholdMatchesSequential) {
  ThreadPool pool(4);
  la::Matrix data = workload::RandomUnitVectors(5000, 16, 5);
  la::Matrix q = workload::RandomUnitVectors(1, 16, 6);
  JoinOptions parallel;
  parallel.pool = &pool;
  auto a = ESelect(data, q.Row(0), JoinCondition::Threshold(0.3f), parallel);
  auto b = ESelect(data, q.Row(0), JoinCondition::Threshold(0.3f));
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->matches.size(), b->matches.size());
  for (size_t i = 0; i < a->matches.size(); ++i) {
    EXPECT_EQ(a->matches[i].id, b->matches[i].id);
  }
}

TEST(ESelectTest, RejectsBadInputs) {
  la::Matrix data(3, 0);
  float q = 0;
  EXPECT_FALSE(ESelect(data, &q, JoinCondition::Threshold(0.5f)).ok());
  la::Matrix ok = workload::RandomUnitVectors(3, 4, 7);
  EXPECT_FALSE(ESelect(ok, &q, JoinCondition::TopK(0)).ok());
}

TEST(ESelectStringsTest, PaysLinearModelCost) {
  model::SubwordHashModel model;
  auto rows = workload::RandomStrings(25, 4, 8, 8);
  auto result = ESelectStrings(rows, "query", model,
                               JoinCondition::TopK(3));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.model_calls, 25u + 1u);
  EXPECT_EQ(result->matches.size(), 3u);
}

TEST(ESelectStringsTest, FindsSurfaceVariants) {
  model::SubwordHashModel model;
  std::vector<std::string> rows = {"barbecue", "mountain", "barbecues",
                                   "computer", "barbicue"};
  auto result = ESelectStrings(rows, "barbecue", model,
                               JoinCondition::Threshold(0.4f));
  ASSERT_TRUE(result.ok());
  std::set<uint64_t> ids;
  for (const auto& m : result->matches) ids.insert(m.id);
  EXPECT_TRUE(ids.count(0));  // exact
  EXPECT_TRUE(ids.count(2));  // plural
  EXPECT_TRUE(ids.count(4));  // misspelling
  EXPECT_FALSE(ids.count(1));
  EXPECT_FALSE(ids.count(3));
}

TEST(ESelectIndexTest, FlatIndexAgreesWithScan) {
  la::Matrix data = workload::RandomUnitVectors(400, 16, 9);
  la::Matrix q = workload::RandomUnitVectors(1, 16, 10);
  index::FlatIndex flat(data.Clone());
  auto via_index = ESelectIndex(flat, q.Row(0), JoinCondition::TopK(5));
  auto via_scan = ESelect(data, q.Row(0), JoinCondition::TopK(5));
  ASSERT_TRUE(via_index.ok() && via_scan.ok());
  ASSERT_EQ(via_index->matches.size(), via_scan->matches.size());
  for (size_t i = 0; i < via_scan->matches.size(); ++i) {
    EXPECT_EQ(via_index->matches[i].id, via_scan->matches[i].id);
  }
  EXPECT_EQ(via_index->stats.similarity_computations, 400u);
}

TEST(ESelectIndexTest, FilterAndValidation) {
  la::Matrix data = workload::RandomUnitVectors(100, 16, 11);
  index::FlatIndex flat(data.Clone());
  la::Matrix q = workload::RandomUnitVectors(1, 16, 12);
  index::FilterBitmap wrong(5, 1);
  EXPECT_FALSE(
      ESelectIndex(flat, q.Row(0), JoinCondition::TopK(1), &wrong).ok());
  index::FilterBitmap filter = workload::ExactSelectivityBitmap(100, 10, 13);
  auto result = ESelectIndex(flat, q.Row(0), JoinCondition::TopK(20),
                             &filter);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->matches.size(), 10u);  // Only 10 admissible rows.
  for (const auto& m : result->matches) EXPECT_TRUE(filter[m.id]);
}

TEST(ESelectTest, BatchOfSelectionsEqualsJoin) {
  // The paper's Section II.A.3 equivalence: batching per-query selections
  // IS the join. Verify the top-k E-join equals row-wise E-selections.
  la::Matrix left = workload::RandomUnitVectors(10, 16, 14);
  la::Matrix right = workload::RandomUnitVectors(80, 16, 15);
  auto joined = NljJoinMatrices(left, right, JoinCondition::TopK(3));
  ASSERT_TRUE(joined.ok());
  std::vector<JoinPair> via_selection;
  for (size_t i = 0; i < left.rows(); ++i) {
    auto sel = ESelect(right, left.Row(i), JoinCondition::TopK(3));
    ASSERT_TRUE(sel.ok());
    for (const auto& m : sel->matches) {
      via_selection.push_back({static_cast<uint32_t>(i),
                               static_cast<uint32_t>(m.id), m.score});
    }
  }
  SortPairs(&via_selection);
  ASSERT_EQ(joined->pairs.size(), via_selection.size());
  for (size_t i = 0; i < via_selection.size(); ++i) {
    EXPECT_EQ(joined->pairs[i].left, via_selection[i].left);
    EXPECT_EQ(joined->pairs[i].right, via_selection[i].right);
  }
}

}  // namespace
}  // namespace cej::join
