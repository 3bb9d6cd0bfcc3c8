// HNSW: Hierarchical Navigable Small World graph index, implemented from
// scratch after Malkov & Yashunin (TPAMI 2020) — the index the paper's
// vector-database baseline (Milvus) uses for Figures 15-17.
//
// Similarity is inner product over unit vectors (cosine). The two build
// configurations evaluated in the paper map directly onto BuildOptions:
//   Hi (higher recall):  M = 64, ef_construction = 512
//   Lo (lower recall):   M = 32, ef_construction = 256

#ifndef CEJ_INDEX_HNSW_INDEX_H_
#define CEJ_INDEX_HNSW_INDEX_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cej/common/rng.h"
#include "cej/common/serde.h"
#include "cej/common/status.h"
#include "cej/common/thread_pool.h"
#include "cej/la/matrix.h"
#include "cej/index/vector_index.h"

namespace cej::index {

/// Construction-time parameters (paper Table I: "Limited,
/// Construction-Time Distance" — the metric and quality are baked in at
/// build time).
struct HnswBuildOptions {
  /// Maximum out-degree per layer (level 0 uses 2M, as in the reference
  /// implementation).
  size_t m = 32;
  /// Beam width during construction.
  size_t ef_construction = 256;
  /// Level-assignment RNG seed.
  uint64_t seed = 1;
  /// Use the diversity-aware neighbour selection heuristic (Algorithm 4 of
  /// the HNSW paper) instead of plain closest-M.
  bool select_heuristic = true;

  /// The paper's high-recall configuration.
  static HnswBuildOptions Hi() {
    HnswBuildOptions o;
    o.m = 64;
    o.ef_construction = 512;
    return o;
  }
  /// The paper's lower-recall / lower-latency configuration.
  static HnswBuildOptions Lo() {
    HnswBuildOptions o;
    o.m = 32;
    o.ef_construction = 256;
    return o;
  }
};

/// Hierarchical navigable small-world graph over unit vectors.
class HnswIndex final : public VectorIndex {
 public:
  /// Builds the graph over `vectors` (one unit vector per row). Fails on an
  /// empty matrix or m < 2.
  ///
  /// With a pool, nodes are inserted concurrently behind a per-node lock
  /// discipline (every neighbour-list read or write during construction
  /// locks that node; the entry point is guarded globally, held across a
  /// whole insert only for the geometrically rare nodes that raise the top
  /// level). Level assignment is always drawn sequentially from the seeded
  /// RNG, so the level structure is reproducible; the edge sets of a
  /// parallel build depend on insertion interleaving (the index stays
  /// approximate either way). A pool-less build is bit-deterministic.
  static Result<std::unique_ptr<HnswIndex>> Build(
      la::Matrix vectors, HnswBuildOptions options = {},
      ThreadPool* pool = nullptr);

  size_t dim() const override { return vectors_.cols(); }
  size_t size() const override { return vectors_.rows(); }

  /// Beam width for queries; clamped up to k per search. Default 64.
  void set_ef_search(size_t ef) { ef_search_ = ef; }
  size_t ef_search() const { return ef_search_; }

  std::vector<la::ScoredId> SearchTopK(
      const float* query, size_t k,
      const FilterBitmap* filter = nullptr) const override;

  /// Range probe. HNSW has no native range scan; following the paper
  /// (Section VI.E, Figure 17) the index retrieves by the top-k mechanism
  /// (beam = max(ef_search, range_probe_k)) and post-filters on the
  /// threshold, so recall degrades exactly the way the paper reports.
  std::vector<la::ScoredId> SearchRange(
      const float* query, float threshold,
      const FilterBitmap* filter = nullptr) const override;

  /// Beam used by SearchRange's top-k mechanism (paper uses k = 32).
  void set_range_probe_k(size_t k) { range_probe_k_ = k; }
  size_t range_probe_k() const { return range_probe_k_; }

  uint64_t distance_computations() const override {
    return distance_computations_.load(std::memory_order_relaxed);
  }
  void ResetStats() const override {
    distance_computations_.store(0, std::memory_order_relaxed);
  }

  /// Graph introspection for tests: out-neighbours of `node` at `level`.
  const std::vector<uint32_t>& NeighborsAt(uint32_t node, size_t level) const;
  size_t max_level() const { return max_level_; }

  /// Persists the vectors + graph to `path` ("CEJH" binary format), so
  /// the construction cost (the dominant index cost, Table I) is paid
  /// once across runs. SaveTo/LoadFrom nest inside a larger stream (the
  /// IndexManager envelope).
  Status Save(const std::string& path) const;
  Status SaveTo(serde::Writer& writer) const;

  /// Restores an index previously written by Save.
  static Result<std::unique_ptr<HnswIndex>> Load(const std::string& path);
  static Result<std::unique_ptr<HnswIndex>> LoadFrom(serde::Reader& reader);

 private:
  HnswIndex(la::Matrix vectors, HnswBuildOptions options);

  struct Candidate {
    float sim;
    uint32_t id;
  };

  /// Construction-time synchronization (parallel builds only): one mutex
  /// per node guarding its neighbour lists, plus the entry-point lock.
  struct BuildSync;

  float Similarity(const float* query, uint32_t id) const;

  /// Greedy descent at one level: returns the local similarity maximum
  /// starting from `entry`. `sync` non-null = copy neighbour lists under
  /// the owning node's lock (parallel construction).
  uint32_t GreedyStep(const float* query, uint32_t entry, size_t level,
                      BuildSync* sync = nullptr) const;

  /// Beam search at one level (Algorithm 2): returns up to `ef` closest
  /// nodes to `query`, unsorted. `visited` is caller-provided scratch.
  std::vector<Candidate> SearchLayer(const float* query, uint32_t entry,
                                     size_t ef, size_t level,
                                     std::vector<uint32_t>* visited_epoch,
                                     uint32_t epoch,
                                     BuildSync* sync = nullptr) const;

  /// Neighbour selection (Algorithm 4 when select_heuristic, else top-M).
  std::vector<uint32_t> SelectNeighbors(uint32_t node,
                                        std::vector<Candidate> candidates,
                                        size_t m) const;

  /// Inserts `node` at the precomputed `level`. With `sync`, safe to call
  /// concurrently for distinct nodes (links_ must be pre-sized).
  void Insert(uint32_t node, size_t level, BuildSync* sync);

  size_t MaxDegree(size_t level) const {
    return level == 0 ? 2 * options_.m : options_.m;
  }

  la::Matrix vectors_;
  HnswBuildOptions options_;
  size_t ef_search_ = 64;
  size_t range_probe_k_ = 32;

  /// links_[node][level] = out-neighbour list. links_[node].size() =
  /// node's level + 1.
  std::vector<std::vector<std::vector<uint32_t>>> links_;
  uint32_t entry_point_ = 0;
  size_t max_level_ = 0;
  double level_lambda_ = 0.0;  // 1 / ln(M)

  mutable std::atomic<uint64_t> distance_computations_{0};
  // Visited-set epochs reused across searches from the same thread.
  mutable std::atomic<uint32_t> epoch_counter_{0};
};

}  // namespace cej::index

#endif  // CEJ_INDEX_HNSW_INDEX_H_
