// The cej::Engine facade: one object that owns the catalog (tables,
// embedding models, vector indexes — all registered by name) and turns a
// fluent QueryBuilder chain into the full paper pipeline:
//
//   declarative plan -> plan::Optimize -> registry-driven physical
//   operator selection -> execution (materialized or streamed).
//
//   cej::Engine engine;
//   engine.RegisterTable("photos", photos);
//   engine.RegisterTable("catalog", catalog);
//   engine.RegisterModel("fasttext", &model);
//   auto result = engine.Query("photos")
//                     .Select(expr::Cmp("taken", expr::CmpOp::kGt, 15))
//                     .EJoin("catalog", "word",
//                            join::JoinCondition::Threshold(0.45f))
//                     .Execute();
//
// Physical behaviour is controlled per query (Via("tensor") forces a
// registered operator; Stream() feeds a JoinSink without materializing)
// or per engine (thread pool, embedding cache, calibrated cost
// parameters). Selection is the one-row case: a search registers its
// query as a one-row table and E-joins it against the corpus, so it gets
// the cost scan, the index catalog, the cache and serve fusion. Every
// example drives the system through this surface; the free functions in
// cej/join remain for operator-level tests and benches.

#ifndef CEJ_API_ENGINE_H_
#define CEJ_API_ENGINE_H_

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "cej/api/embedding_cache.h"
#include "cej/common/status.h"
#include "cej/common/thread_pool.h"
#include "cej/expr/predicate.h"
#include "cej/index/index_manager.h"
#include "cej/index/vector_index.h"
#include "cej/join/join_operator.h"
#include "cej/join/join_sink.h"
#include "cej/model/embedding_model.h"
#include "cej/plan/executor.h"
#include "cej/plan/logical_plan.h"
#include "cej/serve/server.h"
#include "cej/stats/cost_calibrator.h"
#include "cej/storage/relation.h"

namespace cej {

class QueryBuilder;

/// A query's materialized output plus execution diagnostics (chosen
/// physical operator, its quote and the rejected runner-up's, operator
/// counters).
struct QueryResult {
  storage::Relation relation;
  plan::ExecStats stats;
};

/// Explicit join-graph form of a multi-relation query
/// (Engine::QueryGraph): n registered tables connected by similarity
/// edges, with NO join order — the executor's DP enumerator picks one.
/// Edge endpoints are "table.column" strings naming entries of `tables`.
///
///   cej::JoinGraphSpec spec;
///   spec.tables = {"photos", "labels", "products"};
///   spec.edges = {
///       {"photos.tag", "labels.name", join::JoinCondition::Threshold(0.8f)},
///       {"labels.name", "products.title",
///        join::JoinCondition::Threshold(0.8f)},
///   };
///   auto result = engine.QueryGraph(spec).Execute();
struct JoinGraphSpec {
  struct Edge {
    std::string left;   ///< "table.column" endpoint.
    std::string right;  ///< "table.column" endpoint.
    join::JoinCondition condition;
    /// Embedding model for string-string edges ("" = engine default);
    /// ignored for vector keys.
    std::string model;
  };
  /// Registered table names (each may appear once; the canonical output
  /// schema lists their fields in this order).
  std::vector<std::string> tables;
  std::vector<Edge> edges;
};

/// The top-level entry point. Thread-safe: catalog registration (tables,
/// models, indexes) and queries may run concurrently — queries pin the
/// table and index state they planned against via shared_ptr snapshots,
/// so a ReplaceTable racing a Stream never frees data mid-query.
class Engine {
 public:
  struct Options {
    /// Worker threads for join execution; 0 runs on the calling thread.
    int num_threads = 0;
    /// Byte budget of the per-(table, column, model) embedding cache:
    /// a registered table's key column is embedded once and reused across
    /// queries (LRU-evicted past the budget). 0 disables the cache.
    size_t embedding_cache_bytes = size_t{256} << 20;
    /// Auto-build policy: after this many cost-scan losses where an index
    /// plan *would* have won (the index operator priced cheapest but no
    /// index existed for the join key), the engine builds
    /// `index_auto_build_options` for that (table, column, model) in the
    /// background and atomically publishes it — the next query picks the
    /// probe path unforced. 0 disables auto-building.
    size_t index_auto_build_losses = 0;
    /// What the auto-build policy constructs (family + build knobs).
    index::IndexBuildOptions index_auto_build_options;
    /// Family-aware auto-build: pick flat/IVF/HNSW per key from the
    /// losing queries' observed shapes (probe batch size, condition kind,
    /// table size) and the recall target below, overriding the configured
    /// family (index::ChooseIndexFamily documents the rule).
    bool index_auto_build_family_aware = false;
    /// Recall the family-aware policy must preserve; >= 0.999 forces the
    /// exact flat family.
    double index_auto_build_recall = 1.0;

    // --- Adaptive statistics & cost calibration (cej::stats) ------------
    /// Master switch: record every executed join over embedded keys as an
    /// observation (workload features, quote, measured nanoseconds), refit
    /// the cost model online, and price new plans with the calibrated
    /// snapshot. Also enables cost-scan exploration (see
    /// plan::ExecContext::calibrator). Un-optimized string-key joins run
    /// the naive NLJ and are not recorded either way. Off by default: the
    /// static seed/CalibrateCosts behaviour is unchanged.
    bool adaptive_stats = false;
    /// Auto-refit after this many calibratable observations (0 = refit
    /// only on Engine::Recalibrate()).
    size_t stats_refit_interval = 8;
    /// Exploration bound: an eligible exact operator with no recorded
    /// observations runs once when its quote is within this factor of
    /// the best quote. 0 disables exploration.
    double stats_explore_cost_ratio = 32.0;
    /// Total exploration-overhead budget in nanoseconds: once explored
    /// runs have cumulatively cost this much over the quotes they
    /// displaced, the cost scan stops exploring. 0 = unbounded.
    double stats_explore_budget_ns = 0.0;

    // --- Serving (cej::serve) -------------------------------------------
    /// Configuration of the serving layer behind Engine::serve():
    /// admission queue depth, fusion window and tenant budgets.
    serve::ServerOptions serve;
  };

  Engine();
  explicit Engine(const Options& options);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // --- Catalog -----------------------------------------------------------

  /// Registers a table under `name`; fails with kAlreadyExists on reuse.
  Status RegisterTable(std::string name, storage::Relation table);
  Status RegisterTable(std::string name,
                       std::shared_ptr<const storage::Relation> table);

  /// Re-registers `name` with new contents (registering it if absent) and
  /// invalidates everything derived from the old contents: embedding-cache
  /// entries AND registered indexes over the table (rebuild and
  /// re-register indexes for the new data).
  Status ReplaceTable(std::string name, storage::Relation table);
  Status ReplaceTable(std::string name,
                      std::shared_ptr<const storage::Relation> table);

  /// Registers a borrowed model (must outlive the engine). The first
  /// registered model becomes the default for EJoin embedding.
  Status RegisterModel(std::string name, const model::EmbeddingModel* model);
  /// Owning overload.
  Status RegisterModel(std::string name,
                       std::unique_ptr<const model::EmbeddingModel> model);
  Status SetDefaultModel(const std::string& name);

  /// Registers a borrowed prebuilt vector index over `table`.`column`.
  /// `column` is the *join key* column: for stored vector columns the
  /// index covers them directly; for string keys it covers the embeddings
  /// the optimizer hoists (the "<column>_emb" output — aliased
  /// automatically). The index must have one entry per base-table row.
  /// Prefer BuildIndex below: the engine then owns construction,
  /// alignment and lifetime instead of trusting the caller.
  Status RegisterIndex(const std::string& table, const std::string& column,
                       const index::VectorIndex* index);

  // --- Index lifecycle ---------------------------------------------------

  /// Builds a vector index over `table`.`column` and publishes it in the
  /// engine's index catalog keyed (table, column, model, family). String
  /// key columns embed under `options.model` ("" = the default model),
  /// serving vectors from the embedding cache when warm and embedding
  /// pool-parallel on a miss; stored vector columns index directly.
  /// Construction itself runs pool-parallel (HNSW per-node-locked
  /// insertion, IVF parallel k-means assignment). Rebuilding the same key
  /// replaces the entry atomically; in-flight queries keep probing the
  /// index they planned against.
  Result<index::IndexBuildStats> BuildIndex(
      const std::string& table, const std::string& column,
      const index::IndexBuildOptions& options = {});

  /// Persists the most recent BuildIndex/LoadIndex result for
  /// (table, column) into a family-tagged envelope at `path`.
  Status SaveIndex(const std::string& table, const std::string& column,
                   const std::string& path) const;

  /// Loads an envelope written by SaveIndex, validates it against the
  /// CURRENT contents of `table` (row count, dimensionality under
  /// `model_name` for string columns), and publishes it like BuildIndex.
  Result<index::IndexBuildStats> LoadIndex(const std::string& table,
                                           const std::string& column,
                                           const std::string& path,
                                           const std::string& model_name = "");

  /// The index subsystem — exposed for introspection (catalog snapshots,
  /// build/loss counters) and the WaitForBackgroundBuilds test hook.
  index::IndexManager* index_manager() const { return index_manager_.get(); }

  Result<std::shared_ptr<const storage::Relation>> Table(
      const std::string& name) const;
  Result<const model::EmbeddingModel*> Model(const std::string& name) const;
  Result<const model::EmbeddingModel*> DefaultModel() const;
  /// The model registered as `name`, or the default model when `name` is
  /// empty — how every query, graph edge and served request names one.
  Result<const model::EmbeddingModel*> ResolveModel(
      const std::string& name) const;

  // --- Querying ----------------------------------------------------------

  /// Starts a fluent query over a registered table. Errors (unknown
  /// table/model, malformed chains) surface at Execute()/Stream() time.
  /// Chaining two or more .EJoin() calls builds a join GRAPH: the
  /// executor's DP enumerator owns the join order, intermediate results
  /// carry their embedding columns zero-copy, and the output schema is
  /// canonical (independent of the executed order).
  QueryBuilder Query(std::string table) const;

  /// Starts a query from an explicit join-graph spec (see JoinGraphSpec).
  /// The returned builder accepts Select (applied over the canonical
  /// graph output; pushed down when legal), Via, RequireExact, Stream and
  /// friends — but not further .EJoin() calls (declare edges in the spec).
  QueryBuilder QueryGraph(JoinGraphSpec spec) const;

  // --- Serving -----------------------------------------------------------

  /// The concurrent serving layer (cej/serve): admission queue with
  /// per-tenant fairness and deadlines, plus multi-query fusion — queued
  /// queries of the same shape coalesce into one batched sweep. Created
  /// lazily from Options::serve on first use; owned by the engine and shut
  /// down before any engine state it executes against.
  serve::Server* serve();

  // --- Environment -------------------------------------------------------

  /// Micro-benchmarks the host against `model` to replace the default
  /// cost-model parameters (plan::Calibrate). With adaptive stats enabled
  /// this re-seeds the calibrator (discarding what it learned).
  void CalibrateCosts(const model::EmbeddingModel& model);
  void set_cost_params(const join::CostParams& params);
  /// The SEED parameters. With adaptive stats enabled, queries price with
  /// the calibrator's current snapshot instead: calibrator()->Current().
  const join::CostParams& cost_params() const { return cost_params_; }

  // --- Adaptive statistics ------------------------------------------------

  /// The cost calibrator, or nullptr when Options::adaptive_stats is off.
  /// Exposes the observation history (workload_stats()), the refit error
  /// history, and the current calibrated snapshot.
  stats::CostCalibrator* calibrator() const { return calibrator_.get(); }

  /// Forces a refit of the calibrated cost parameters from the recorded
  /// observations and publishes a fresh snapshot. Queries already running
  /// keep the snapshot they planned with. Fails when adaptive stats are
  /// disabled.
  Status Recalibrate();

  /// Persists the calibration state (seed, fitted coefficients, decayed
  /// regression state) so a new process starts with — and keeps learning
  /// from — this one's observations. Checksummed; LoadCalibration rejects
  /// corrupt or foreign envelopes without touching the current state.
  Status SaveCalibration(const std::string& path) const;
  Status LoadCalibration(const std::string& path);

  ThreadPool* pool() const { return pool_.get(); }

  /// The engine's embedding cache, or nullptr when disabled
  /// (Options::embedding_cache_bytes == 0). Exposed for introspection
  /// (hit/miss/byte counters) and manual Clear().
  EmbeddingCache* embedding_cache() const { return embedding_cache_.get(); }

  /// The execution context queries run under — exposed for advanced
  /// callers mixing the facade with the plan layer.
  plan::ExecContext MakeExecContext() const;

 private:
  friend class QueryBuilder;

  /// The model covering `column` of `relation`: resolves `model_name`
  /// (or the default) for string columns, nullptr for vector columns.
  Result<const model::EmbeddingModel*> ResolveColumnModel(
      const storage::Relation& relation, const std::string& column,
      const std::string& model_name) const;

  Options options_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<EmbeddingCache> embedding_cache_;
  join::CostParams cost_params_;
  /// Non-null iff Options::adaptive_stats. Queries borrow the pointer for
  /// observation recording; refits publish immutable snapshots, so plans
  /// copied their prices at MakeExecContext time and never race one.
  std::unique_ptr<stats::CostCalibrator> calibrator_;

  /// Guards the name catalogs below. The index catalog has its own
  /// synchronization inside the manager.
  mutable std::mutex catalog_mu_;
  std::unordered_map<std::string, std::shared_ptr<const storage::Relation>>
      tables_;
  std::unordered_map<std::string, const model::EmbeddingModel*> models_;
  std::vector<std::unique_ptr<const model::EmbeddingModel>> owned_models_;
  std::string default_model_;

  /// Declared after the catalogs: the manager's destructor joins
  /// background index builds, which may still be using the pool, the
  /// embedding cache and owned models — all of which must therefore
  /// outlive it.
  std::unique_ptr<index::IndexManager> index_manager_;

  /// Declared LAST (destroyed first): the server's destructor joins its
  /// dispatcher threads, whose in-flight batches execute against
  /// everything above — pool, caches, catalogs, calibrator, indexes.
  mutable std::mutex serve_mu_;
  std::unique_ptr<serve::Server> server_;
};

/// Fluent construction of a logical plan over the engine's catalog.
/// Builders are cheap value types; each call appends one step. The chain
/// is validated when the plan is built (Execute/Stream/Explain).
class QueryBuilder {
 public:
  /// sigma_theta: relational predicate over the current plan's columns
  /// (after a join: the joined schema, including "similarity").
  QueryBuilder& Select(expr::PredicatePtr predicate);

  /// E-join against a registered table on the same-named key column.
  QueryBuilder& EJoin(std::string right_table, std::string key,
                      join::JoinCondition condition);
  /// E-join with distinct key column names.
  QueryBuilder& EJoin(std::string right_table, std::string left_key,
                      std::string right_key, join::JoinCondition condition);

  /// Uses the named registered model for subsequent EJoin embedding
  /// (default: the engine's default model).
  QueryBuilder& UsingModel(std::string model_name);

  /// Forces the named physical operator from the registry ("tensor",
  /// "index", "prefetch_nlj", "naive_nlj", or an extension). The operator
  /// is a name, not a layout: "tensor" sweeps left tiles or, on a pooled
  /// engine with at least 2 x join::kMinShardRows right rows, right
  /// shards, by the same rule as an unforced run. Operators take the
  /// vectors the optimizer's Embed rewrite produces; under
  /// WithoutOptimizer() only "naive_nlj" accepts string keys, and any
  /// other forced operator is an InvalidArgument before a model call.
  QueryBuilder& Via(std::string operator_name);

  /// Restricts cost-based operator selection to exact implementations:
  /// approximate index probes (recall < 1) are never auto-chosen. An
  /// explicit Via() still overrides.
  QueryBuilder& RequireExact();

  /// Skips plan::Optimize — the Figure 8 naive baseline: string keys stay
  /// unembedded, so their joins run naive_nlj (2·|R|·|S| model calls),
  /// unpriced and never recorded by adaptive stats.
  QueryBuilder& WithoutOptimizer();

  /// Join-order override for multi-join (graph) queries: executes the
  /// graph's edges in exactly this order — a permutation of the edge
  /// submission indexes (chained .EJoin() calls number their edges 0, 1,
  /// ... in call order; QueryGraph numbers JoinGraphSpec::edges) — instead
  /// of letting the DP enumerator choose. Results are identical either
  /// way (the output schema is canonical); only the work differs. A test
  /// and experiment hook. Ignored by single-join queries.
  QueryBuilder& ForceJoinOrder(std::vector<size_t> order);

  /// The logical plan before / after optimization.
  Result<plan::NodePtr> Build() const;
  Result<plan::NodePtr> OptimizedPlan() const;

  /// EXPLAIN-style rendering of both plans.
  Result<std::string> Explain() const;

  /// Optimizes and executes, materializing the result relation.
  Result<QueryResult> Execute() const;

  /// Optimizes and executes with the final join streaming into `sink`
  /// (no result materialization; the plan must end in an EJoin). Pair ids
  /// address the rows of the join's *immediate* input relations — i.e.
  /// positions AFTER any Select below the join, not registered-table
  /// rows (and base-table rows on index-probe plans). Map ids back
  /// through your predicate, or use Execute() for resolved rows. Stats
  /// cover the work performed, which is less than the full cross product
  /// when the sink stops early.
  Result<join::JoinStats> Stream(join::JoinSink* sink,
                                 plan::ExecStats* stats = nullptr) const;

 private:
  friend class Engine;

  struct Step {
    enum class Kind { kSelect, kEJoin };
    Kind kind;
    // kSelect
    expr::PredicatePtr predicate;
    // kEJoin
    std::string right_table;
    std::string left_key, right_key;
    join::JoinCondition condition;
    std::string model;  // Empty = engine default.
  };

  QueryBuilder(const Engine* engine, std::string table)
      : engine_(engine), table_(std::move(table)) {}
  QueryBuilder(const Engine* engine, JoinGraphSpec spec)
      : engine_(engine), graph_spec_(std::move(spec)), has_graph_spec_(true) {}

  /// Build() for Engine::QueryGraph builders: the spec's tables/edges
  /// become a kJoinGraph node; Select steps wrap the canonical output.
  Result<plan::NodePtr> BuildFromGraphSpec() const;

  /// Build() for chained multi-join builders (>= 2 EJoin steps, Selects
  /// only before the first or after the last): steps become a kJoinGraph
  /// with one input per table and one edge per EJoin call.
  Result<plan::NodePtr> BuildChainedGraph() const;

  const Engine* engine_;
  std::string table_;
  std::vector<Step> steps_;
  JoinGraphSpec graph_spec_;    // Set by Engine::QueryGraph.
  bool has_graph_spec_ = false;
  std::string pending_model_;   // Set by UsingModel for the next joins.
  std::string force_operator_;  // Set by Via.
  std::vector<size_t> force_join_order_;  // Set by ForceJoinOrder.
  bool optimize_ = true;
  bool require_exact_ = false;
};

}  // namespace cej

#endif  // CEJ_API_ENGINE_H_
