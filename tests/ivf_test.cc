// Tests for cej/index IVF-Flat and its k-means substrate: clustering
// invariants, recall vs exact scans, nprobe monotonicity, pre-filter
// semantics, and cross-index consistency with HNSW and Flat.

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "cej/common/rng.h"
#include "cej/index/flat_index.h"
#include "cej/index/hnsw_index.h"
#include "cej/index/ivf_index.h"
#include "cej/index/kmeans.h"
#include "cej/la/vector_ops.h"
#include "cej/workload/generators.h"

namespace cej::index {
namespace {

la::Matrix Vectors(size_t n, size_t dim, uint64_t seed) {
  return workload::RandomUnitVectors(n, dim, seed);
}

double Recall(const std::vector<la::ScoredId>& got,
              const std::vector<la::ScoredId>& expected) {
  if (expected.empty()) return 1.0;
  std::set<uint64_t> truth;
  for (const auto& e : expected) truth.insert(e.id);
  size_t hits = 0;
  for (const auto& g : got) hits += truth.count(g.id);
  return static_cast<double>(hits) / truth.size();
}

// ---------------------------------------------------------------------------
// K-means
// ---------------------------------------------------------------------------

TEST(KMeansTest, RejectsDegenerateInputs) {
  KMeansOptions options;
  EXPECT_FALSE(SphericalKMeans(la::Matrix(0, 4), options).ok());
  options.clusters = 0;
  EXPECT_FALSE(SphericalKMeans(Vectors(10, 4, 1), options).ok());
}

TEST(KMeansTest, AssignmentCoversAllRowsAndClustersAreUnit) {
  KMeansOptions options;
  options.clusters = 8;
  auto result = SphericalKMeans(Vectors(500, 16, 2), options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->assignment.size(), 500u);
  EXPECT_EQ(result->centroids.rows(), 8u);
  for (uint32_t a : result->assignment) EXPECT_LT(a, 8u);
  for (size_t c = 0; c < 8; ++c) {
    EXPECT_NEAR(la::L2Norm(result->centroids.Row(c), 16), 1.0f, 1e-4f);
  }
}

TEST(KMeansTest, ClustersClampedToRowCount) {
  KMeansOptions options;
  options.clusters = 100;
  auto result = SphericalKMeans(Vectors(5, 8, 3), options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->centroids.rows(), 5u);
}

TEST(KMeansTest, EachRowAssignedToNearestCentroid) {
  KMeansOptions options;
  options.clusters = 6;
  la::Matrix data = Vectors(300, 16, 4);
  auto result = SphericalKMeans(data, options);
  ASSERT_TRUE(result.ok());
  for (size_t r = 0; r < data.rows(); ++r) {
    const float own = la::Dot(
        data.Row(r), result->centroids.Row(result->assignment[r]), 16);
    for (size_t c = 0; c < result->centroids.rows(); ++c) {
      const float other = la::Dot(data.Row(r), result->centroids.Row(c), 16);
      EXPECT_LE(other, own + 1e-4f) << "row " << r << " cluster " << c;
    }
  }
}

TEST(KMeansTest, RecoversWellSeparatedClusters) {
  // Plant 4 tight clusters around orthogonal axes; k-means must separate
  // them perfectly.
  const size_t per_cluster = 50, dim = 16;
  la::Matrix data(4 * per_cluster, dim);
  Rng rng(5);
  for (size_t c = 0; c < 4; ++c) {
    for (size_t i = 0; i < per_cluster; ++i) {
      float* row = data.Row(c * per_cluster + i);
      row[c] = 1.0f;
      for (size_t d = 0; d < dim; ++d) {
        row[d] += 0.05f * static_cast<float>(rng.NextGaussian());
      }
      la::NormalizeInPlace(row, dim);
    }
  }
  KMeansOptions options;
  options.clusters = 4;
  auto result = SphericalKMeans(data, options);
  ASSERT_TRUE(result.ok());
  // All members of a planted cluster share an assignment.
  for (size_t c = 0; c < 4; ++c) {
    const uint32_t label = result->assignment[c * per_cluster];
    for (size_t i = 1; i < per_cluster; ++i) {
      EXPECT_EQ(result->assignment[c * per_cluster + i], label);
    }
  }
}

// ---------------------------------------------------------------------------
// IvfFlatIndex
// ---------------------------------------------------------------------------

TEST(IvfIndexTest, BuildRejectsBadOptions) {
  EXPECT_FALSE(IvfFlatIndex::Build(la::Matrix(0, 4)).ok());
  IvfBuildOptions bad;
  bad.nlist = 0;
  EXPECT_FALSE(IvfFlatIndex::Build(Vectors(10, 4, 1), bad).ok());
}

TEST(IvfIndexTest, ListsPartitionTheInput) {
  IvfBuildOptions options;
  options.nlist = 16;
  auto index = IvfFlatIndex::Build(Vectors(800, 16, 6), options);
  ASSERT_TRUE(index.ok());
  std::set<uint32_t> seen;
  size_t total = 0;
  for (size_t c = 0; c < (*index)->nlist(); ++c) {
    for (uint32_t id : (*index)->ListOf(c)) {
      EXPECT_TRUE(seen.insert(id).second) << "duplicate id " << id;
      ++total;
    }
  }
  EXPECT_EQ(total, 800u);
}

TEST(IvfIndexTest, FullProbeIsExact) {
  // nprobe == nlist degenerates to an exhaustive scan: results must match
  // the flat index exactly.
  la::Matrix vectors = Vectors(600, 32, 7);
  IvfBuildOptions options;
  options.nlist = 12;
  auto ivf = IvfFlatIndex::Build(vectors.Clone(), options);
  ASSERT_TRUE(ivf.ok());
  (*ivf)->set_nprobe(12);
  FlatIndex flat(vectors.Clone());
  la::Matrix queries = Vectors(10, 32, 8);
  for (size_t q = 0; q < queries.rows(); ++q) {
    auto got = (*ivf)->SearchTopK(queries.Row(q), 5);
    auto expected = flat.SearchTopK(queries.Row(q), 5);
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, expected[i].id);
    }
  }
}

TEST(IvfIndexTest, RecallImprovesWithNprobe) {
  la::Matrix vectors = Vectors(2000, 32, 9);
  IvfBuildOptions options;
  options.nlist = 32;
  auto ivf = IvfFlatIndex::Build(vectors.Clone(), options);
  ASSERT_TRUE(ivf.ok());
  FlatIndex flat(vectors.Clone());
  la::Matrix queries = Vectors(20, 32, 10);
  double recall_by_nprobe[3];
  const size_t nprobes[3] = {1, 4, 32};
  for (int i = 0; i < 3; ++i) {
    (*ivf)->set_nprobe(nprobes[i]);
    double sum = 0;
    for (size_t q = 0; q < queries.rows(); ++q) {
      sum += Recall((*ivf)->SearchTopK(queries.Row(q), 10),
                    flat.SearchTopK(queries.Row(q), 10));
    }
    recall_by_nprobe[i] = sum / queries.rows();
  }
  EXPECT_LE(recall_by_nprobe[0], recall_by_nprobe[1] + 1e-9);
  EXPECT_LE(recall_by_nprobe[1], recall_by_nprobe[2] + 1e-9);
  EXPECT_NEAR(recall_by_nprobe[2], 1.0, 1e-9);  // Full probe = exact.
}

TEST(IvfIndexTest, ProbeCostScalesWithNprobe) {
  auto ivf = IvfFlatIndex::Build(Vectors(2000, 16, 11));
  ASSERT_TRUE(ivf.ok());
  la::Matrix q = Vectors(1, 16, 12);
  (*ivf)->set_nprobe(1);
  (*ivf)->ResetStats();
  (*ivf)->SearchTopK(q.Row(0), 1);
  const uint64_t cost_1 = (*ivf)->distance_computations();
  (*ivf)->set_nprobe(16);
  (*ivf)->ResetStats();
  (*ivf)->SearchTopK(q.Row(0), 1);
  const uint64_t cost_16 = (*ivf)->distance_computations();
  EXPECT_GT(cost_16, cost_1);
}

TEST(IvfIndexTest, FilterRespected) {
  la::Matrix vectors = Vectors(500, 16, 13);
  auto ivf = IvfFlatIndex::Build(vectors.Clone());
  ASSERT_TRUE(ivf.ok());
  (*ivf)->set_nprobe((*ivf)->nlist());
  FilterBitmap filter = workload::ExactSelectivityBitmap(500, 20, 14);
  auto got = (*ivf)->SearchTopK(vectors.Row(0), 10, &filter);
  for (const auto& s : got) EXPECT_TRUE(filter[s.id]);
}

TEST(IvfIndexTest, RangeSearchMatchesFlatAtFullProbe) {
  la::Matrix vectors = Vectors(400, 16, 15);
  auto ivf = IvfFlatIndex::Build(vectors.Clone());
  ASSERT_TRUE(ivf.ok());
  (*ivf)->set_nprobe((*ivf)->nlist());
  FlatIndex flat(vectors.Clone());
  la::Matrix q = Vectors(1, 16, 16);
  auto got = (*ivf)->SearchRange(q.Row(0), 0.25f);
  auto expected = flat.SearchRange(q.Row(0), 0.25f);
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, expected[i].id);
  }
}

TEST(IvfIndexTest, ThreeIndexFamiliesAgreeOnEasyQueries) {
  // Self-queries are unambiguous: all three index families must find the
  // query vector itself.
  la::Matrix vectors = Vectors(800, 32, 17);
  FlatIndex flat(vectors.Clone());
  auto hnsw = HnswIndex::Build(vectors.Clone());
  auto ivf = IvfFlatIndex::Build(vectors.Clone());
  ASSERT_TRUE(hnsw.ok() && ivf.ok());
  (*ivf)->set_nprobe(8);
  size_t agree = 0, probes = 0;
  for (size_t r = 0; r < 800; r += 37) {
    ++probes;
    const auto f = flat.SearchTopK(vectors.Row(r), 1);
    const auto h = (*hnsw)->SearchTopK(vectors.Row(r), 1);
    const auto v = (*ivf)->SearchTopK(vectors.Row(r), 1);
    if (!f.empty() && !h.empty() && !v.empty() && f[0].id == r &&
        h[0].id == r && v[0].id == r) {
      ++agree;
    }
  }
  EXPECT_GE(agree, probes - 2);
}

// ---------------------------------------------------------------------------
// Seed reproducibility and parallel training
// ---------------------------------------------------------------------------

// Returns all inverted lists, flattened per list, for clustering
// comparison.
std::vector<std::vector<uint32_t>> AllLists(const IvfFlatIndex& index) {
  std::vector<std::vector<uint32_t>> lists;
  for (size_t c = 0; c < index.nlist(); ++c) lists.push_back(index.ListOf(c));
  return lists;
}

TEST(IvfIndexTest, BuildSeedIsThreadedAndReproducible) {
  // The IvfBuildOptions seed must reach the k-means RNG: identical seeds
  // give bit-identical clusterings, distinct seeds give distinct initial
  // centroid draws (the catalog-key reproducibility contract).
  la::Matrix vectors = Vectors(500, 16, 21);
  IvfBuildOptions options;
  options.nlist = 16;
  options.seed = 1;
  auto a = IvfFlatIndex::Build(vectors.Clone(), options);
  auto b = IvfFlatIndex::Build(vectors.Clone(), options);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(AllLists(**a), AllLists(**b));

  options.seed = 2;
  auto c = IvfFlatIndex::Build(vectors.Clone(), options);
  ASSERT_TRUE(c.ok());
  EXPECT_NE(AllLists(**a), AllLists(**c))
      << "a different seed produced the identical clustering — the seed "
         "is not reaching the k-means RNG";
}

TEST(IvfIndexTest, ParallelKMeansAssignmentIsBitIdentical) {
  la::Matrix data = Vectors(700, 16, 22);
  KMeansOptions sequential;
  sequential.clusters = 12;
  sequential.seed = 3;
  auto expected = SphericalKMeans(data, sequential);
  ASSERT_TRUE(expected.ok());

  ThreadPool pool(3);
  KMeansOptions parallel = sequential;
  parallel.pool = &pool;
  auto got = SphericalKMeans(data, parallel);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->assignment, expected->assignment);
  ASSERT_EQ(got->centroids.rows(), expected->centroids.rows());
  for (size_t c = 0; c < got->centroids.rows(); ++c) {
    for (size_t d = 0; d < got->centroids.cols(); ++d) {
      EXPECT_EQ(got->centroids.At(c, d), expected->centroids.At(c, d));
    }
  }
}

TEST(IvfIndexTest, SaveLoadRoundTripsListsAndNprobe) {
  la::Matrix vectors = Vectors(400, 16, 23);
  IvfBuildOptions options;
  options.nlist = 8;
  auto built = IvfFlatIndex::Build(vectors.Clone(), options);
  ASSERT_TRUE(built.ok());
  (*built)->set_nprobe(3);
  const std::string path =
      std::string(::testing::TempDir()) + "/cej_ivf_roundtrip.bin";
  ASSERT_TRUE((*built)->Save(path).ok());

  auto loaded = IvfFlatIndex::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->size(), (*built)->size());
  EXPECT_EQ((*loaded)->nprobe(), 3u);
  EXPECT_EQ(AllLists(**loaded), AllLists(**built));
  la::Matrix queries = Vectors(5, 16, 24);
  for (size_t q = 0; q < queries.rows(); ++q) {
    EXPECT_EQ((*loaded)->SearchTopK(queries.Row(q), 4),
              (*built)->SearchTopK(queries.Row(q), 4));
  }
}

}  // namespace
}  // namespace cej::index
