// Engine-owned index lifecycle management: a named catalog of vector
// indexes keyed by (table, column, model, family), pool-parallel builds
// sourced from the embedding cache, an auto-build policy driven by
// cost-scan losses, serde-based persistence, and invalidation hooks.
//
// This is the layer between storage and the operator registry that the
// probe access path was missing: before it, index plans existed only when
// the CALLER had built an index, kept it row-aligned with the table, and
// registered it by hand. The manager owns all of that:
//
//   * Build(table, column, ...) sources the column's vectors — straight
//     from a stored vector column, from the engine's embedding cache, or
//     by embedding the column pool-parallel on a miss — and constructs the
//     requested family (flat / IVF / HNSW) on the ThreadPool. The built
//     index is published atomically into the catalog.
//   * The executor's cost scan consults an immutable catalog SNAPSHOT
//     taken at plan time; entries are shared_ptr-held, so a concurrent
//     invalidation (Engine::ReplaceTable) can never pull a probed index
//     out from under a running query (the stale-index hazard).
//   * When a cost scan loses a plan an index WOULD have won (the index
//     operator priced cheapest but no index existed), the executor records
//     the loss here; after `auto_build_after_losses` losses for the same
//     (table, column, model) the manager builds in the background and
//     publishes — the next query picks the probe path unforced.
//   * Save/Load persist built indexes in a family-tagged envelope so the
//     construction cost (the dominant index cost, paper Table I) is paid
//     once across processes.

#ifndef CEJ_INDEX_INDEX_MANAGER_H_
#define CEJ_INDEX_INDEX_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cej/common/status.h"
#include "cej/common/thread_pool.h"
#include "cej/index/hnsw_index.h"
#include "cej/index/ivf_index.h"
#include "cej/index/vector_index.h"
#include "cej/model/embedding_model.h"
#include "cej/storage/relation.h"

namespace cej {
class EmbeddingCache;
}

namespace cej::index {

/// The physical index families the manager can build.
enum class IndexFamily : uint8_t {
  kUnknown = 0,  ///< Externally registered — family not introspectable.
  kFlat = 1,
  kIvf = 2,
  kHnsw = 3,
};

const char* IndexFamilyName(IndexFamily family);

/// Per-family build (and probe-default) configuration for one Build call.
struct IndexBuildOptions {
  IndexFamily family = IndexFamily::kHnsw;
  HnswBuildOptions hnsw;
  IvfBuildOptions ivf;
  /// Probe-time knobs applied before publication (0 = family default).
  /// Setting hnsw_ef_search / ivf_nprobe to the collection size turns the
  /// approximate families into (near-)exhaustive searches — the recall=1
  /// configuration the equivalence tests pin.
  size_t hnsw_ef_search = 0;
  size_t hnsw_range_probe_k = 0;
  size_t ivf_nprobe = 0;
  /// Registered model name resolved by the Engine for string key columns
  /// ("" = the engine default model). Ignored for stored vector columns.
  std::string model;
};

/// Workload shape observed at cost-scan loss time — what the family-aware
/// auto-build policy aggregates per (table, column, model) to pick a
/// family from evidence instead of configuration.
struct IndexLossContext {
  size_t left_rows = 0;   ///< Probe batch size of the losing query.
  size_t table_rows = 0;  ///< Right (indexed) relation size.
  bool topk = false;      ///< Top-k condition (vs threshold/range).
};

/// The family-aware auto-build rule (ROADMAP "family-aware auto-build"):
///
///   * recall_target >= 0.999 -> flat    (only the exact family can keep it)
///   * small tables           -> flat    (exact, trivial build, probes cheap)
///   * top-k dominated, large probe batches -> HNSW (graph beam search is
///     the small-k sweet spot; big batches amortize the costly build)
///   * otherwise (range/threshold dominated, or tiny probe batches)
///                            -> IVF     (cluster scans cover ranges
///     without per-probe beam tuning, and build far cheaper than a graph)
IndexFamily ChooseIndexFamily(double avg_left_rows, size_t table_rows,
                              bool topk_dominated, double recall_target);

/// What one Build / Load actually did.
struct IndexBuildStats {
  IndexFamily family = IndexFamily::kUnknown;
  size_t rows = 0;
  /// Index construction wall time (graph/cluster building only).
  double build_seconds = 0.0;
  /// Vector-sourcing wall time (0 on a cache hit or a stored vector
  /// column).
  double embed_seconds = 0.0;
  uint64_t model_calls = 0;
  bool embedding_cache_hit = false;
};

/// One published catalog entry. Entries are value types holding the index
/// via shared_ptr: snapshots copy them, so invalidation never frees an
/// index a running query still probes.
struct IndexCatalogEntry {
  std::shared_ptr<const VectorIndex> index;
  IndexFamily family = IndexFamily::kUnknown;
  /// Model whose embeddings the index covers. nullptr means the index
  /// covers a stored vector column — or was registered externally, in
  /// which case it matches ANY model (the legacy RegisterIndex contract:
  /// the caller vouches for alignment).
  const model::EmbeddingModel* model = nullptr;
  bool external = false;
  /// Construction cost of the published index (0 for external entries) —
  /// surfaced in ExecStats so a probe plan's amortized build cost is
  /// visible next to its probe cost.
  double build_seconds = 0.0;
  std::string table;
  std::string column;
};

/// Immutable plan-time view of the catalog. The executor resolves probe
/// eligibility against a snapshot, so every index it might run against is
/// pinned for the query's whole lifetime.
class IndexCatalogSnapshot {
 public:
  /// Looks up an index for `table`.`column` usable under `model`.
  ///
  /// `column` is the probe column the plan joins on: a stored vector
  /// column, the optimizer-hoisted "<key>_emb" embedding column (resolved
  /// to the underlying key column automatically), or an explicitly
  /// registered name. `model` must match the entry's model; entries with a
  /// wildcard model (external registrations) match anything. The most
  /// recently published match wins.
  const IndexCatalogEntry* Find(const std::string& table,
                                const std::string& column,
                                const model::EmbeddingModel* model) const;

  /// The table's invalidation generation AS OF this snapshot — the value
  /// to hand back to RecordIndexLoss, so an auto-build triggered by this
  /// plan can never publish over a table replaced since the plan was
  /// made.
  uint64_t TableGeneration(const std::string& table) const;

  size_t size() const { return entries_; }

 private:
  friend class IndexManager;

  const IndexCatalogEntry* FindExact(const std::string& key,
                                     const model::EmbeddingModel* model) const;

  // Catalog key -> publications, oldest first.
  std::unordered_map<std::string, std::vector<IndexCatalogEntry>> by_key_;
  std::unordered_map<std::string, uint64_t> generations_;
  size_t entries_ = 0;
};

/// The subsystem. Thread-safe: builds, lookups, invalidations and
/// background publications may interleave freely.
class IndexManager {
 public:
  struct Options {
    /// Auto-build policy: after this many recorded cost-scan losses for
    /// the same (table, column, model), build `auto_build` in the
    /// background and publish. 0 disables the policy (losses are still
    /// counted for stats).
    size_t auto_build_after_losses = 0;
    /// What the policy builds.
    IndexBuildOptions auto_build;
    /// When true, `auto_build.family` is OVERRIDDEN per key by
    /// ChooseIndexFamily over the aggregated loss-time workload shapes
    /// (observed probe batch sizes, condition kinds, table size) and
    /// `auto_build_recall_target`. The remaining auto_build knobs
    /// (per-family build options, probe defaults, model) apply unchanged.
    bool family_aware = false;
    /// Recall the family-aware policy must preserve: >= 0.999 forces the
    /// exact flat family.
    double auto_build_recall_target = 1.0;
  };

  /// Monotonic counters (losses/invalidations) plus build accounting.
  struct Stats {
    uint64_t builds = 0;       ///< Successful Build/Load publications.
    uint64_t auto_builds = 0;  ///< Subset triggered by the loss policy.
    uint64_t losses_recorded = 0;
    uint64_t invalidations = 0;  ///< Entries dropped by InvalidateTable.
    /// Builds whose table was replaced while they ran: the result was
    /// discarded instead of published (it covered the OLD contents).
    uint64_t stale_builds_discarded = 0;
    double build_seconds = 0.0;  ///< Total construction wall time.
  };

  /// `pool`, `cache` may be null (single-threaded builds / no cache);
  /// both are borrowed and must outlive the manager.
  IndexManager(Options options, ThreadPool* pool, EmbeddingCache* cache);
  ~IndexManager();  // Joins in-flight background builds.

  IndexManager(const IndexManager&) = delete;
  IndexManager& operator=(const IndexManager&) = delete;

  /// The table's current invalidation generation. Capture it BEFORE
  /// snapshotting the relation you hand to Build/Load: publication is
  /// rejected unless the generation is still current, so a ReplaceTable
  /// landing anywhere between capture and publish discards the build
  /// instead of publishing an index over replaced contents.
  uint64_t TableGeneration(const std::string& table) const;

  /// Builds an index over `relation`.`column` and publishes it under
  /// `table` — only if `generation` (see TableGeneration) is still
  /// current at publish time. String columns embed under `model` (vectors
  /// served from the embedding cache when warm); stored vector columns
  /// index directly and ignore `model`. Rebuilding the same
  /// (table, column, model, family) replaces the previous entry
  /// atomically.
  Result<IndexBuildStats> Build(
      const std::string& table,
      std::shared_ptr<const storage::Relation> relation,
      const std::string& column, const model::EmbeddingModel* model,
      const IndexBuildOptions& options, uint64_t generation);

  /// Publishes a caller-owned prebuilt index (the legacy RegisterIndex
  /// contract: borrowed pointer, caller-guaranteed lifetime and row
  /// alignment, matches any model). Fails with kAlreadyExists when an
  /// external entry for (table, column) already exists.
  Status RegisterExternal(const std::string& table, const std::string& column,
                          const VectorIndex* index);

  /// Drops every entry over `table` — the ReplaceTable hook. Queries that
  /// already snapshotted the catalog keep probing the old (still-alive)
  /// indexes; new snapshots no longer see them.
  void InvalidateTable(const std::string& table);

  /// The current catalog as an immutable shared snapshot.
  std::shared_ptr<const IndexCatalogSnapshot> Snapshot() const;

  /// Records that a cost scan executed a scan plan where an index plan
  /// would have priced cheaper. At the policy threshold, kicks off ONE
  /// background build for the key (relation/model are captured here so
  /// the builder never touches engine catalogs). `generation` is the
  /// PLAN-TIME generation (IndexCatalogSnapshot::TableGeneration) the
  /// `relation` snapshot belongs to — a build from a since-replaced
  /// relation is discarded at publish. `context` carries the losing
  /// query's workload shape, aggregated per key for the family-aware
  /// policy. Cheap; called from the executor's hot path only on
  /// index-less probe-eligible joins.
  void RecordIndexLoss(const std::string& table,
                       std::shared_ptr<const storage::Relation> relation,
                       const std::string& column,
                       const model::EmbeddingModel* model,
                       uint64_t generation,
                       const IndexLossContext& context = {});

  /// Persists the most recent manager-built entry for (table, column)
  /// into a family-tagged envelope at `path`. External entries (unknown
  /// family) cannot be saved.
  Status Save(const std::string& table, const std::string& column,
              const std::string& path) const;

  /// Loads an envelope written by Save, validates it against `relation`
  /// (row count and dimensionality under `model`), and publishes it under
  /// the same generation discipline as Build.
  Result<IndexBuildStats> Load(
      const std::string& table,
      std::shared_ptr<const storage::Relation> relation,
      const std::string& column, const model::EmbeddingModel* model,
      const std::string& path, uint64_t generation);

  /// Blocks until every background build kicked off so far has finished
  /// (published or failed). Deterministic test hook; also called by the
  /// destructor.
  void WaitForBackgroundBuilds();

  Stats stats() const;

 private:
  struct LossEntry {
    size_t count = 0;
    bool build_started = false;
    // Aggregated loss-time workload shape (family-aware policy inputs).
    double sum_left_rows = 0.0;
    size_t topk_losses = 0;
    size_t table_rows = 0;  // Last observed (right) relation size.
  };

  /// One background build: the done flag lets RecordIndexLoss reap
  /// finished threads opportunistically instead of letting joinable
  /// zombies accumulate until shutdown.
  struct BackgroundBuild {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
  };

  // Sources the vectors behind `relation`.`column`, SHARED: stored
  // vector columns and embedding-cache hits cost zero copies (the flat
  // family indexes the shared matrix directly; graph/cluster families
  // clone in Construct since they own their layout). `generation` gates
  // the cache warm-up: embeddings of a since-replaced table are never
  // parked under the live key.
  Result<std::shared_ptr<const la::Matrix>> SourceVectors(
      const std::string& table,
      const std::shared_ptr<const storage::Relation>& relation,
      const std::string& column, const model::EmbeddingModel* model,
      uint64_t generation, IndexBuildStats* stats);

  // Constructs the requested family over `vectors` on the pool.
  Result<std::shared_ptr<const VectorIndex>> Construct(
      std::shared_ptr<const la::Matrix> vectors,
      const IndexBuildOptions& options, IndexBuildStats* stats);

  void PublishLocked(IndexCatalogEntry entry);
  void RebuildSnapshotLocked();
  void ReapFinishedBuildsLocked();

  // Validates `generation` (captured when the build started) against the
  // table's current invalidation generation, then publishes. A build that
  // raced a ReplaceTable covers the OLD contents and is discarded here —
  // without this check a slow build would silently reintroduce the
  // stale-index hazard the snapshots close.
  Status PublishIfCurrent(IndexCatalogEntry entry, uint64_t generation);

  const Options options_;
  ThreadPool* const pool_;
  EmbeddingCache* const cache_;

  mutable std::mutex mu_;
  std::unordered_map<std::string, std::vector<IndexCatalogEntry>> catalog_;
  std::shared_ptr<const IndexCatalogSnapshot> snapshot_;
  std::unordered_map<std::string, LossEntry> losses_;
  /// Bumped by InvalidateTable; builds capture it at start and publish
  /// only when still current.
  std::unordered_map<std::string, uint64_t> table_generations_;
  std::vector<BackgroundBuild> background_builds_;
  Stats stats_;
};

}  // namespace cej::index

#endif  // CEJ_INDEX_INDEX_MANAGER_H_
