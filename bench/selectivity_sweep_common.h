// Shared driver for the access-path selectivity sweeps (Figures 15-17):
// a left relation of query vectors joins a large right relation under a
// relational pre-filter of varying selectivity, via (a) the pre-filtered
// scan-based tensor join and (b) pre-filtered probes into HNSW indexes in
// the paper's Lo and Hi build configurations.

#ifndef CEJ_BENCH_SELECTIVITY_SWEEP_COMMON_H_
#define CEJ_BENCH_SELECTIVITY_SWEEP_COMMON_H_

#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_common.h"
#include "cej/index/hnsw_index.h"
#include "cej/join/index_join.h"
#include "cej/join/tensor_join.h"
#include "cej/workload/generators.h"

namespace cej::bench {

/// Runs the sweep and prints one row per selectivity point.
/// `print_minus_filter` adds the "Tensor Join (-filter cost)" series shown
/// in Figures 15 and 16.
inline int RunSelectivitySweep(const char* name, const char* paper_ref,
                               join::JoinCondition condition,
                               bool print_minus_filter) {
  PrintHeader(name, paper_ref);

  // Paper: 10k x 1M. Laptop: 200 x 100k — the right side must stay large
  // relative to per-probe traversal cost or the crossover the figure is
  // about cannot exist (scanning a small filtered set is always cheap).
  const size_t n_left = Scaled(200, 10000);
  const size_t n_right = Scaled(100000, 1000000);
  const size_t dim = 100;

  la::Matrix left = workload::RandomUnitVectors(n_left, dim, 1);
  la::Matrix right = workload::RandomUnitVectors(n_right, dim, 2);
  // Relational attribute controlling selectivity: attr < s selects ~s%.
  const auto attr = workload::SelectivityColumn(n_right, 3);

  // The Lo/Hi indexes depend only on (n_right, dim, data seed), which are
  // identical across the Figure 15/16/17 binaries — build once, persist,
  // and reload (construction dominates: minutes at 100k vectors).
  auto build_or_load = [&](const char* tag,
                           const index::HnswBuildOptions& options)
      -> Result<std::unique_ptr<index::HnswIndex>> {
    char path[256];
    std::snprintf(path, sizeof(path), "/tmp/cej_bench_hnsw_%s_%zu_%zu.idx",
                  tag, n_right, dim);
    auto loaded = index::HnswIndex::Load(path);
    if (loaded.ok()) {
      std::printf("# reusing cached %s index from %s\n", tag, path);
      return loaded;
    }
    Result<std::unique_ptr<index::HnswIndex>> built =
        Status::Internal("unset");
    const double build_ms = TimeMs(
        [&] { built = index::HnswIndex::Build(right.Clone(), options); });
    if (built.ok()) {
      std::printf("# built %s index in %.0f ms (one-off; cached to %s)\n",
                  tag, build_ms, path);
      CEJ_CHECK((*built)->Save(path).ok());
    }
    return built;
  };

  std::printf("# preparing HNSW Lo (M=32, efC=256) and Hi (M=64, efC=512) "
              "over %zu vectors...\n", n_right);
  auto lo = build_or_load("lo", index::HnswBuildOptions::Lo());
  auto hi = build_or_load("hi", index::HnswBuildOptions::Hi());
  CEJ_CHECK(lo.ok() && hi.ok());
  // Beam widths: scale with k as vector databases do (recall@k needs
  // ef >> k); the Hi configuration also searches wider.
  const size_t k = condition.kind == join::JoinCondition::Kind::kTopK
                       ? condition.k
                       : 32;  // Range probes use the top-32 mechanism.
  (*lo)->set_ef_search(std::max<size_t>(64, 4 * k));
  (*hi)->set_ef_search(std::max<size_t>(128, 8 * k));
  (*lo)->set_range_probe_k(32);
  (*hi)->set_range_probe_k(32);

  std::printf("\n%6s %14s", "sel%", "Tensor[ms]");
  if (print_minus_filter) std::printf(" %20s", "Tensor(-filter)[ms]");
  std::printf(" %16s %16s\n", "Index Lo[ms]", "Index Hi[ms]");

  for (int sel = 0; sel <= 100; sel += 10) {
    // --- Scan path: filter, materialize survivors, tensor join. ---
    double filter_ms = 0.0, join_ms = 0.0;
    {
      std::vector<uint32_t> kept;
      filter_ms = TimeMs([&] {
        for (uint32_t r = 0; r < n_right; ++r) {
          if (attr[r] < sel) kept.push_back(r);
        }
      });
      la::Matrix filtered(kept.size(), dim);
      filter_ms += TimeMs([&] {
        for (size_t i = 0; i < kept.size(); ++i) {
          std::memcpy(filtered.Row(i), right.Row(kept[i]),
                      dim * sizeof(float));
        }
      });
      join::TensorJoinOptions options;
      options.pool = &Pool();
      options.shard_count = 1;  // Left tiles.
      join_ms = TimeMs([&] {
        if (filtered.rows() == 0) return;
        auto r = join::TensorJoinMatrices(left, filtered, condition,
                                          options);
        CEJ_CHECK(r.ok());
      });
    }

    // --- Probe paths: bitmap pre-filter + batched index probes. ---
    auto probe = [&](const index::HnswIndex& idx) {
      index::FilterBitmap bitmap(n_right, 0);
      double ms = TimeMs([&] {
        for (uint32_t r = 0; r < n_right; ++r) bitmap[r] = attr[r] < sel;
      });
      join::IndexJoinOptions options;
      options.pool = &Pool();
      options.filter = &bitmap;
      ms += TimeMs([&] {
        auto r = join::IndexJoin(left, idx, condition, options);
        CEJ_CHECK(r.ok());
      });
      return ms;
    };
    const double lo_ms = probe(**lo);
    const double hi_ms = probe(**hi);

    std::printf("%6d %14.1f", sel, filter_ms + join_ms);
    if (print_minus_filter) std::printf(" %20.1f", join_ms);
    std::printf(" %16.1f %16.1f\n", lo_ms, hi_ms);
  }
  return 0;
}

}  // namespace cej::bench

#endif  // CEJ_BENCH_SELECTIVITY_SWEEP_COMMON_H_
