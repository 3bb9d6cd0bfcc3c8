// Ablation: vector-index family comparison — exact flat scan vs IVF-Flat
// (at several nprobe settings) vs HNSW (Lo/Hi), measuring per-probe
// latency, distance computations, and recall@10 against the exact result.
// Grounds Table I's qualitative scan-vs-index trade-offs quantitatively
// and extends the Section VI.E study beyond a single index family.

#include <algorithm>
#include <cstdio>
#include <set>
#include <vector>

#include "bench_common.h"
#include "cej/index/flat_index.h"
#include "cej/index/hnsw_index.h"
#include "cej/index/ivf_index.h"
#include "cej/workload/generators.h"

namespace {

double RecallAt10(const std::vector<cej::la::ScoredId>& got,
                  const std::vector<cej::la::ScoredId>& expected) {
  std::set<uint64_t> truth;
  for (const auto& e : expected) truth.insert(e.id);
  size_t hits = 0;
  for (const auto& g : got) hits += truth.count(g.id);
  return truth.empty() ? 1.0
                       : static_cast<double>(hits) /
                             static_cast<double>(truth.size());
}

}  // namespace

int main() {
  using namespace cej;
  bench::PrintHeader("bench_ablation_index_families",
                     "Table I quantified (flat vs IVF vs HNSW)");

  const size_t n =
      bench::SmokeScale() ? 2000 : bench::Scaled(20000, 1000000);
  const size_t dim = 100;
  const size_t num_queries = 100;
  la::Matrix data = workload::RandomUnitVectors(n, dim, 1);
  la::Matrix queries = workload::RandomUnitVectors(num_queries, dim, 2);

  index::FlatIndex flat(data.Clone());

  // Builds run pool-parallel (HNSW per-node-locked insertion, IVF
  // parallel k-means assignment) — the path Engine::BuildIndex uses.
  ThreadPool& pool = bench::Pool();
  std::printf("# building IVF (nlist=%zu) and HNSW Lo/Hi over %zu "
              "vectors on %d+1 threads...\n",
              static_cast<size_t>(128), n, pool.num_threads());
  index::IvfBuildOptions ivf_options;
  ivf_options.nlist = 128;
  Result<std::unique_ptr<index::IvfFlatIndex>> ivf =
      Status::Internal("unbuilt");
  Result<std::unique_ptr<index::HnswIndex>> lo = Status::Internal("unbuilt");
  Result<std::unique_ptr<index::HnswIndex>> hi = Status::Internal("unbuilt");
  const double ivf_ms = bench::TimeMs([&] {
    ivf = index::IvfFlatIndex::Build(data.Clone(), ivf_options, &pool);
  });
  const double lo_ms = bench::TimeMs([&] {
    lo = index::HnswIndex::Build(data.Clone(), index::HnswBuildOptions::Lo(),
                                 &pool);
  });
  const double hi_ms = bench::TimeMs([&] {
    hi = index::HnswIndex::Build(data.Clone(), index::HnswBuildOptions::Hi(),
                                 &pool);
  });
  CEJ_CHECK(ivf.ok() && lo.ok() && hi.ok());
  std::printf("# build ms: ivf=%.0f hnsw-lo=%.0f hnsw-hi=%.0f (the Table I "
              "construction cost the manager amortizes via Save/Load)\n",
              ivf_ms, lo_ms, hi_ms);
  (*lo)->set_ef_search(64);
  (*hi)->set_ef_search(128);

  // Exact ground truth.
  std::vector<std::vector<la::ScoredId>> truth(num_queries);
  for (size_t q = 0; q < num_queries; ++q) {
    truth[q] = flat.SearchTopK(queries.Row(q), 10);
  }

  struct Measured {
    const char* name;
    double ms_per_probe;
    double recall;
  };
  std::vector<Measured> measured;
  auto evaluate = [&](const char* name, const index::VectorIndex& idx) {
    idx.ResetStats();
    double recall = 0.0;
    const double ms = bench::TimeMs([&] {
      for (size_t q = 0; q < num_queries; ++q) {
        recall += RecallAt10(idx.SearchTopK(queries.Row(q), 10), truth[q]);
      }
    });
    measured.push_back({name, ms / num_queries, recall / num_queries});
    std::printf("%-16s %14.3f %16.0f %10.3f\n", name, ms / num_queries,
                static_cast<double>(idx.distance_computations()) /
                    num_queries,
                recall / num_queries);
  };

  std::printf("\n%-16s %14s %16s %10s\n", "index", "ms/probe",
              "dists/probe", "recall@10");
  evaluate("flat (exact)", flat);
  (*ivf)->set_nprobe(1);
  evaluate("ivf nprobe=1", **ivf);
  (*ivf)->set_nprobe(8);
  evaluate("ivf nprobe=8", **ivf);
  (*ivf)->set_nprobe(32);
  evaluate("ivf nprobe=32", **ivf);
  evaluate("hnsw Lo ef=64", **lo);
  evaluate("hnsw Hi ef=128", **hi);

  // The measured shape, not an expected one: which family was slowest
  // per probe here, and whether IVF recall rose with nprobe (rows 1-3).
  const Measured& slowest = *std::max_element(
      measured.begin(), measured.end(), [](const auto& a, const auto& b) {
        return a.ms_per_probe < b.ms_per_probe;
      });
  const bool ivf_recall_rises = measured[1].recall < measured[2].recall &&
                                measured[2].recall < measured[3].recall;
  std::printf("# measured shape: slowest per probe: %s (%.3f ms); IVF "
              "recall@10 %s with nprobe (%.3f -> %.3f -> %.3f)\n",
              slowest.name, slowest.ms_per_probe,
              ivf_recall_rises ? "rises" : "does not rise",
              measured[1].recall, measured[2].recall, measured[3].recall);
  return 0;
}
