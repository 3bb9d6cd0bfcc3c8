// Tests for cej/index: flat index exactness, HNSW construction invariants,
// recall against the flat ground truth, Hi/Lo quality ordering, filtered
// and range search semantics.

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "cej/index/flat_index.h"
#include "cej/index/hnsw_index.h"
#include "cej/la/simd.h"
#include "cej/workload/generators.h"

namespace cej::index {
namespace {

la::Matrix Vectors(size_t n, size_t dim, uint64_t seed) {
  return workload::RandomUnitVectors(n, dim, seed);
}

// Recall@k of `got` against exact `expected` (by id set overlap).
double RecallAtK(const std::vector<la::ScoredId>& got,
                 const std::vector<la::ScoredId>& expected) {
  if (expected.empty()) return 1.0;
  std::set<uint64_t> truth;
  for (const auto& e : expected) truth.insert(e.id);
  size_t hit = 0;
  for (const auto& g : got) hit += truth.count(g.id);
  return static_cast<double>(hit) / static_cast<double>(truth.size());
}

// ---------------------------------------------------------------------------
// FlatIndex
// ---------------------------------------------------------------------------

TEST(FlatIndexTest, TopKFindsExactNearest) {
  la::Matrix vectors = Vectors(200, 32, 1);
  la::Matrix query_owner = Vectors(1, 32, 2);
  FlatIndex index(vectors.Clone());
  auto top = index.SearchTopK(query_owner.Row(0), 5);
  ASSERT_EQ(top.size(), 5u);
  // Verify against brute force.
  std::vector<la::ScoredId> all;
  for (size_t r = 0; r < vectors.rows(); ++r) {
    all.push_back({la::Dot(query_owner.Row(0), vectors.Row(r), 32), r});
  }
  std::sort(all.begin(), all.end());
  for (size_t i = 0; i < 5; ++i) EXPECT_EQ(top[i].id, all[i].id);
}

TEST(FlatIndexTest, SelfQueryReturnsSelfFirst) {
  la::Matrix vectors = Vectors(50, 16, 3);
  FlatIndex index(vectors.Clone());
  for (size_t r = 0; r < 50; r += 7) {
    auto top = index.SearchTopK(vectors.Row(r), 1);
    ASSERT_EQ(top.size(), 1u);
    EXPECT_EQ(top[0].id, r);
    EXPECT_NEAR(top[0].score, 1.0f, 1e-4f);
  }
}

TEST(FlatIndexTest, KLargerThanSizeReturnsAll) {
  FlatIndex index(Vectors(7, 8, 4));
  la::Matrix q = Vectors(1, 8, 5);
  EXPECT_EQ(index.SearchTopK(q.Row(0), 100).size(), 7u);
}

TEST(FlatIndexTest, KZeroReturnsEmpty) {
  FlatIndex index(Vectors(7, 8, 4));
  la::Matrix q = Vectors(1, 8, 5);
  EXPECT_TRUE(index.SearchTopK(q.Row(0), 0).empty());
}

TEST(FlatIndexTest, FilterExcludesEntries) {
  la::Matrix vectors = Vectors(20, 8, 6);
  FlatIndex index(vectors.Clone());
  FilterBitmap filter(20, 0);
  filter[3] = filter[9] = 1;
  auto top = index.SearchTopK(vectors.Row(3), 5, &filter);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].id, 3u);  // Self passes the filter and wins.
  for (const auto& s : top) EXPECT_TRUE(s.id == 3 || s.id == 9);
}

TEST(FlatIndexTest, RangeReturnsAllAboveThreshold) {
  la::Matrix vectors = Vectors(300, 16, 7);
  FlatIndex index(vectors.Clone());
  la::Matrix q = Vectors(1, 16, 8);
  const float threshold = 0.2f;
  auto got = index.SearchRange(q.Row(0), threshold);
  size_t expected = 0;
  for (size_t r = 0; r < vectors.rows(); ++r) {
    if (la::Dot(q.Row(0), vectors.Row(r), 16) >= threshold) {
      ++expected;
    }
  }
  EXPECT_EQ(got.size(), expected);
  // Sorted best-first.
  for (size_t i = 1; i < got.size(); ++i) {
    EXPECT_GE(got[i - 1].score, got[i].score);
  }
}

TEST(FlatIndexTest, CountsDistanceComputations) {
  la::Matrix vectors = Vectors(100, 8, 9);
  FlatIndex index(vectors.Clone());
  index.ResetStats();
  la::Matrix q = Vectors(1, 8, 10);
  index.SearchTopK(q.Row(0), 3);
  EXPECT_EQ(index.distance_computations(), 100u);
  FilterBitmap filter(100, 0);
  for (size_t i = 0; i < 50; ++i) filter[i] = 1;
  index.ResetStats();
  index.SearchTopK(q.Row(0), 3, &filter);
  EXPECT_EQ(index.distance_computations(), 50u);
}

// ---------------------------------------------------------------------------
// HnswIndex: construction invariants
// ---------------------------------------------------------------------------

TEST(HnswIndexTest, BuildRejectsBadOptions) {
  EXPECT_FALSE(HnswIndex::Build(la::Matrix(0, 8)).ok());
  HnswBuildOptions bad_m;
  bad_m.m = 1;
  EXPECT_FALSE(HnswIndex::Build(Vectors(10, 8, 1), bad_m).ok());
  HnswBuildOptions bad_ef;
  bad_ef.m = 16;
  bad_ef.ef_construction = 4;
  EXPECT_FALSE(HnswIndex::Build(Vectors(10, 8, 1), bad_ef).ok());
}

TEST(HnswIndexTest, DegreeBoundsRespected) {
  HnswBuildOptions options;
  options.m = 8;
  options.ef_construction = 32;
  auto index = HnswIndex::Build(Vectors(500, 16, 11), options);
  ASSERT_TRUE(index.ok());
  for (uint32_t node = 0; node < 500; ++node) {
    const auto& l0 = (*index)->NeighborsAt(node, 0);
    EXPECT_LE(l0.size(), 2 * options.m);
    for (uint32_t nb : l0) {
      EXPECT_LT(nb, 500u);
      EXPECT_NE(nb, node);  // No self loops.
    }
  }
}

TEST(HnswIndexTest, SingleElementIndexWorks) {
  auto index = HnswIndex::Build(Vectors(1, 8, 12));
  ASSERT_TRUE(index.ok());
  la::Matrix q = Vectors(1, 8, 13);
  auto top = (*index)->SearchTopK(q.Row(0), 3);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].id, 0u);
}

TEST(HnswIndexTest, SelfQueryFindsSelf) {
  la::Matrix vectors = Vectors(400, 32, 14);
  auto index = HnswIndex::Build(vectors.Clone());
  ASSERT_TRUE(index.ok());
  size_t found = 0;
  for (size_t r = 0; r < 400; r += 13) {
    auto top = (*index)->SearchTopK(vectors.Row(r), 1);
    ASSERT_EQ(top.size(), 1u);
    found += (top[0].id == r);
  }
  // Self is the unique global optimum; HNSW should nearly always find it.
  EXPECT_GE(found, 29u);  // 31 probes, allow <= 2 misses.
}

// ---------------------------------------------------------------------------
// HnswIndex: recall vs exact ground truth
// ---------------------------------------------------------------------------

struct RecallCase {
  size_t n;
  size_t dim;
  size_t k;
};

class HnswRecallTest : public ::testing::TestWithParam<RecallCase> {};

TEST_P(HnswRecallTest, RecallAgainstFlatIsHigh) {
  const auto [n, dim, k] = GetParam();
  la::Matrix vectors = Vectors(n, dim, 15);
  la::Matrix queries = Vectors(20, dim, 16);
  FlatIndex flat(vectors.Clone());
  auto hnsw = HnswIndex::Build(vectors.Clone(), HnswBuildOptions::Hi());
  ASSERT_TRUE(hnsw.ok());
  (*hnsw)->set_ef_search(128);
  double recall_sum = 0.0;
  for (size_t q = 0; q < queries.rows(); ++q) {
    auto expected = flat.SearchTopK(queries.Row(q), k);
    auto got = (*hnsw)->SearchTopK(queries.Row(q), k);
    recall_sum += RecallAtK(got, expected);
  }
  EXPECT_GE(recall_sum / queries.rows(), 0.9)
      << "n=" << n << " dim=" << dim << " k=" << k;
}

INSTANTIATE_TEST_SUITE_P(Configs, HnswRecallTest,
                         ::testing::Values(RecallCase{500, 16, 1},
                                           RecallCase{500, 16, 10},
                                           RecallCase{2000, 32, 1},
                                           RecallCase{2000, 32, 10},
                                           RecallCase{1000, 100, 5}));

TEST(HnswIndexTest, HiConfigBeatsLoConfigOnRecall) {
  la::Matrix vectors = Vectors(3000, 32, 17);
  la::Matrix queries = Vectors(30, 32, 18);
  FlatIndex flat(vectors.Clone());
  auto hi = HnswIndex::Build(vectors.Clone(), HnswBuildOptions::Hi());
  auto lo = HnswIndex::Build(vectors.Clone(), HnswBuildOptions::Lo());
  ASSERT_TRUE(hi.ok() && lo.ok());
  // Small beam stresses recall so the config difference shows.
  (*hi)->set_ef_search(16);
  (*lo)->set_ef_search(16);
  double hi_recall = 0.0, lo_recall = 0.0;
  for (size_t q = 0; q < queries.rows(); ++q) {
    auto expected = flat.SearchTopK(queries.Row(q), 10);
    hi_recall += RecallAtK((*hi)->SearchTopK(queries.Row(q), 10), expected);
    lo_recall += RecallAtK((*lo)->SearchTopK(queries.Row(q), 10), expected);
  }
  EXPECT_GE(hi_recall, lo_recall - 0.5);  // Hi should not be clearly worse.
  EXPECT_GT(hi_recall / queries.rows(), 0.5);
}

TEST(HnswIndexTest, LargerEfSearchImprovesOrMaintainsRecall) {
  la::Matrix vectors = Vectors(2000, 32, 19);
  la::Matrix queries = Vectors(20, 32, 20);
  FlatIndex flat(vectors.Clone());
  auto hnsw = HnswIndex::Build(vectors.Clone(), HnswBuildOptions::Lo());
  ASSERT_TRUE(hnsw.ok());
  double recall_small = 0.0, recall_large = 0.0;
  for (size_t q = 0; q < queries.rows(); ++q) {
    auto expected = flat.SearchTopK(queries.Row(q), 10);
    (*hnsw)->set_ef_search(10);
    recall_small +=
        RecallAtK((*hnsw)->SearchTopK(queries.Row(q), 10), expected);
    (*hnsw)->set_ef_search(200);
    recall_large +=
        RecallAtK((*hnsw)->SearchTopK(queries.Row(q), 10), expected);
  }
  EXPECT_GE(recall_large, recall_small);
}

// ---------------------------------------------------------------------------
// HnswIndex: filtered + range semantics
// ---------------------------------------------------------------------------

TEST(HnswIndexTest, FilterIsRespected) {
  la::Matrix vectors = Vectors(1000, 16, 21);
  auto index = HnswIndex::Build(vectors.Clone());
  ASSERT_TRUE(index.ok());
  FilterBitmap filter = workload::ExactSelectivityBitmap(1000, 30.0, 22);
  la::Matrix queries = Vectors(10, 16, 23);
  for (size_t q = 0; q < queries.rows(); ++q) {
    auto got = (*index)->SearchTopK(queries.Row(q), 20, &filter);
    for (const auto& s : got) EXPECT_TRUE(filter[s.id]) << "id " << s.id;
  }
}

TEST(HnswIndexTest, RangeSearchRespectsThresholdAndTopKMechanism) {
  la::Matrix vectors = Vectors(1000, 16, 24);
  auto index = HnswIndex::Build(vectors.Clone());
  ASSERT_TRUE(index.ok());
  (*index)->set_range_probe_k(32);
  la::Matrix q = Vectors(1, 16, 25);
  const float threshold = 0.3f;
  auto got = (*index)->SearchRange(q.Row(0), threshold);
  // All results satisfy the threshold and at most range_probe_k returned
  // (the paper's top-k-mechanism limitation).
  EXPECT_LE(got.size(), 32u);
  for (const auto& s : got) EXPECT_GE(s.score, threshold);
}

TEST(HnswIndexTest, RangeSearchMissesTailBeyondProbeK) {
  // Construct a query with many qualifying neighbours: range probes capped
  // by the top-k mechanism cannot return them all — exactly the
  // flexibility limitation of Table I / Figure 17.
  la::Matrix base = Vectors(1, 16, 26);
  la::Matrix vectors(200, 16);
  for (size_t r = 0; r < 200; ++r) {
    for (size_t c = 0; c < 16; ++c) {
      vectors.At(r, c) = base.At(0, c) + 0.01f * static_cast<float>(r % 7);
    }
  }
  vectors.NormalizeRows();
  FlatIndex flat(vectors.Clone());
  auto exact = flat.SearchRange(base.Row(0), 0.5f);
  ASSERT_GT(exact.size(), 32u);  // Many qualify.
  auto hnsw = HnswIndex::Build(vectors.Clone());
  ASSERT_TRUE(hnsw.ok());
  (*hnsw)->set_range_probe_k(32);
  auto got = (*hnsw)->SearchRange(base.Row(0), 0.5f);
  EXPECT_LE(got.size(), 32u);
  EXPECT_LT(got.size(), exact.size());
}

TEST(HnswIndexTest, BuildIsDeterministicGivenSeed) {
  la::Matrix vectors = Vectors(300, 16, 27);
  auto a = HnswIndex::Build(vectors.Clone());
  auto b = HnswIndex::Build(vectors.Clone());
  ASSERT_TRUE(a.ok() && b.ok());
  la::Matrix q = Vectors(5, 16, 28);
  for (size_t i = 0; i < q.rows(); ++i) {
    auto ta = (*a)->SearchTopK(q.Row(i), 5);
    auto tb = (*b)->SearchTopK(q.Row(i), 5);
    ASSERT_EQ(ta.size(), tb.size());
    for (size_t j = 0; j < ta.size(); ++j) EXPECT_EQ(ta[j].id, tb[j].id);
  }
}

TEST(HnswIndexTest, ProbeCostGrowsSublinearlyWithIndexSize) {
  // The index's reason to exist: per-probe distance computations should be
  // far below the scan's n.
  la::Matrix vectors = Vectors(4000, 16, 29);
  auto index = HnswIndex::Build(vectors.Clone(), HnswBuildOptions::Lo());
  ASSERT_TRUE(index.ok());
  (*index)->set_ef_search(32);
  la::Matrix q = Vectors(10, 16, 30);
  (*index)->ResetStats();
  for (size_t i = 0; i < q.rows(); ++i) (*index)->SearchTopK(q.Row(i), 1);
  const double per_probe =
      static_cast<double>((*index)->distance_computations()) / q.rows();
  EXPECT_LT(per_probe, 4000.0 * 0.5)
      << "index probe should visit far fewer than all entries";
}

TEST(HnswIndexTest, ParallelBuildMatchesSequentialRecall) {
  // Pool-parallel construction (per-node lock discipline) produces a
  // different — but equally navigable — graph: structural invariants and
  // recall must hold like the sequential build's.
  la::Matrix vectors = Vectors(2000, 16, 31);
  HnswBuildOptions options;
  options.m = 16;
  options.ef_construction = 100;
  ThreadPool pool(4);
  auto parallel = HnswIndex::Build(vectors.Clone(), options, &pool);
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ((*parallel)->size(), 2000u);
  // Degree bounds survive concurrent shrinking (every node has level 0).
  for (uint32_t node = 0; node < 2000; node += 97) {
    EXPECT_LE((*parallel)->NeighborsAt(node, 0).size(), 2 * options.m)
        << "node " << node;
  }

  FlatIndex flat(vectors.Clone());
  la::Matrix queries = Vectors(50, 16, 32);
  (*parallel)->set_ef_search(128);
  double recall = 0.0;
  for (size_t q = 0; q < queries.rows(); ++q) {
    recall += RecallAtK((*parallel)->SearchTopK(queries.Row(q), 10),
                        flat.SearchTopK(queries.Row(q), 10));
  }
  EXPECT_GE(recall / queries.rows(), 0.85)
      << "parallel-built graph lost navigability";
}

TEST(FlatIndexTest, SaveLoadRoundTripsProbes) {
  la::Matrix vectors = Vectors(300, 16, 33);
  FlatIndex index(vectors.Clone());
  const std::string path =
      std::string(::testing::TempDir()) + "/cej_flat_roundtrip.bin";
  ASSERT_TRUE(index.Save(path).ok());
  auto loaded = FlatIndex::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->size(), index.size());
  EXPECT_EQ((*loaded)->dim(), index.dim());
  la::Matrix queries = Vectors(5, 16, 34);
  for (size_t q = 0; q < queries.rows(); ++q) {
    EXPECT_EQ((*loaded)->SearchTopK(queries.Row(q), 7),
              index.SearchTopK(queries.Row(q), 7));
  }
}

}  // namespace
}  // namespace cej::index
