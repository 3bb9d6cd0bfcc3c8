// Physical planning and execution of logical plans.
//
// The executor materializes bottom-up. For an EJoin over embedded keys it
// performs access-path selection (Section VI.E) as a *registry scan*:
// every physical operator registered in join::JoinOperatorRegistry::Global()
// that can serve the workload (declared via its traits — vector inputs, or
// an index) prices itself through JoinOperator::EstimateCost, and the
// cheapest eligible one runs. The scan is
// join::JoinOperatorRegistry::EligibleQuotes, which the join-order DP
// prices its edges with too. New operators (async, remote) participate in
// planning by registering — no executor changes. The
// decision is reported in ExecStats::join_operator with its quote and the
// rejected runner-up.
//
// A join's right input is matched once against the scan pipeline
// [Embed ->] [Select ->] Scan over one base table, whose Select is
// evaluated at most once and which one routine materializes. With one
// Embed, or none over a stored vector key, an index in the catalog
// snapshot makes the index operator eligible (pre-filtered probes);
// otherwise the scan-family operators compete. Any other right input is
// materialized, and so embedded, before pricing. String-key joins
// (un-rewritten plans) execute the naive NLJ, unpriced and unrecorded —
// deliberately, so un-optimized plans behave like Figure 8's baseline; a
// forced vector operator rejects them. Run plan::Optimize first for
// production behaviour: its Embed rewrite is where keys are embedded.

#ifndef CEJ_PLAN_EXECUTOR_H_
#define CEJ_PLAN_EXECUTOR_H_

#include <memory>
#include <string>
#include <vector>

#include "cej/common/status.h"
#include "cej/common/thread_pool.h"
#include "cej/index/index_manager.h"
#include "cej/join/join_operator.h"
#include "cej/join/join_sink.h"
#include "cej/plan/cost_model.h"
#include "cej/plan/join_order.h"
#include "cej/plan/logical_plan.h"

namespace cej {
class EmbeddingCache;
}

namespace cej::stats {
class CostCalibrator;
}

namespace cej::plan {

/// Execution environment.
struct ExecContext {
  ThreadPool* pool = nullptr;
  join::CostParams cost_params;
  /// Index catalog snapshot, taken at plan time: the only source of
  /// indexes. Entries are keyed (table, vector column, model) — the Embed
  /// output column for rewritten plans, or a stored vector column — and
  /// must cover the *base table* rows of their Scan. They are
  /// shared_ptr-held by the snapshot, so an invalidation racing this query
  /// (Engine::ReplaceTable) can never free an index mid-probe. Borrowed
  /// indexes enter through IndexManager::RegisterExternal. Lookups are
  /// counted in ExecStats.
  std::shared_ptr<const index::IndexCatalogSnapshot> index_catalog;
  /// When set, the executor reports cost-scan losses (an index plan would
  /// have won but no index existed) here — feeding the manager's
  /// auto-build policy.
  index::IndexManager* index_manager = nullptr;
  /// Engine-owned cache of full-column embeddings keyed by
  /// (table, column, model) and tied to the Scan's relation snapshot;
  /// nullptr = no caching. Embed nodes over a base table serve from (and
  /// populate) it; filtered Embed pipelines gather surviving rows out of a
  /// cached full-table matrix on a hit. The executor also PEEKS it at
  /// plan time: a warm right column drops its model term from every
  /// quote (cache-aware costing; the left key is always embedded before
  /// pricing, so no quote carries a left model term).
  EmbeddingCache* embedding_cache = nullptr;
  /// Adaptive cost calibration (cej/stats): when set, every executed join
  /// over embedded keys is recorded as an observation (workload features,
  /// quote, measured nanoseconds) — feeding online CostParams refits — and
  /// the cost scan explores: an eligible exact operator with no recorded
  /// observations is tried once when quoted within the calibrator's
  /// explore ratio of the best quote, so over-priced seeds cannot hide an
  /// operator forever. String-key joins (un-optimized plans) always run
  /// the naive NLJ and are not recorded. `cost_params` should be the
  /// calibrator's current snapshot: refits publish new snapshots, never
  /// mutate old ones, so a running plan's prices are immutable.
  stats::CostCalibrator* calibrator = nullptr;
  /// Forces the named registered operator for every EJoin ("" = cost
  /// based): "tensor" forces the scan path, "index" the probe path. The
  /// tensor sweep still picks left tiles or right shards from the pool
  /// width and the right side's rows (join::ResolveShardCount).
  std::string force_operator;
  /// Restricts cost-based selection to operators whose traits declare
  /// exact results (excludes approximate index probes). Ignored by
  /// force_operator.
  bool require_exact = false;
  /// Join-graph order override (test hook): executes a kJoinGraph's edges
  /// in exactly this order (a permutation of the edge submission indexes)
  /// instead of letting EnumerateJoinOrder choose. Empty = enumerate.
  std::vector<size_t> force_join_order;
};

/// Post-execution diagnostics.
struct ExecStats {
  /// Name of the physical operator that ran the plan's last EJoin —
  /// string-key (naive) or vector-key alike; empty when the plan had no
  /// EJoin at all. Multi-join plans report only the last join executed.
  std::string join_operator;
  uint64_t model_calls = 0;
  /// Embedding-cache lookups made while executing this plan (counted only
  /// when an EmbeddingCache is configured). A hit means a whole-column
  /// embedding was served with zero model calls.
  uint64_t embedding_cache_hits = 0;
  uint64_t embedding_cache_misses = 0;
  /// Index-catalog lookups made while planning probe-eligible joins
  /// (counted only when an index catalog is configured, mirroring the
  /// embedding-cache counters). A hit made an index plan eligible; a miss
  /// explains why no probe path was available — and feeds the auto-build
  /// policy.
  uint64_t index_catalog_hits = 0;
  uint64_t index_catalog_misses = 0;
  /// Construction wall time of the catalog-backed indexes this plan's
  /// probe paths ran against — the amortized cost side of the probe
  /// decision (0 when no managed index served the plan).
  double index_build_seconds = 0.0;
  /// Estimated-vs-actual accounting for the plan's last EJoin: the chosen
  /// operator's quote (cost-model units — nanoseconds once calibrated),
  /// the nanoseconds it actually took (right-side preparation + operator
  /// run), and the misprediction |ln(estimated / measured)| (0 until both
  /// sides are known). Feeds — and is the per-query view of — the
  /// adaptive calibrator's error history.
  double estimated_cost_ns = 0.0;
  double measured_cost_ns = 0.0;
  double cost_abs_log_error = 0.0;
  /// The second-cheapest eligible operator the cost scan rejected for the
  /// last EJoin ("" when fewer than two were eligible), and its quote.
  std::string runner_up_operator;
  double runner_up_cost_ns = 0.0;
  /// True when the last EJoin's operator was chosen by calibration
  /// exploration (first timing for an unobserved operator), not price.
  bool explored_operator = false;
  /// Nanoseconds the last EJoin's exploration cost over the price-ranked
  /// quote it displaced (0 when the join was not explored, or exploration
  /// turned out cheaper). The calibrator accumulates these against
  /// Engine::Options::stats_explore_budget_ns.
  double exploration_overhead_ns = 0.0;
  /// Client queries the serving layer stacked into this plan's probe batch
  /// (ExecuteToDemuxSinks; 1 = an ordinary solo plan).
  size_t fused_queries = 1;
  /// Join-graph diagnostics (empty outside kJoinGraph plans): the edge
  /// submission indexes in the order they executed (bottom-up) and how
  /// that order was chosen ("dp", "forced", or "submission").
  std::vector<size_t> join_edge_order;
  std::string join_order_source;
  /// Per-edge estimated vs observed output cardinalities, indexed by edge
  /// submission index — the feed for the learned-cardinality direction.
  /// Also populated for hand-built binary trees lowered from a graph
  /// (nodes tagged with graph_edge >= 0).
  std::vector<double> edge_card_est;
  std::vector<uint64_t> edge_card_obs;
  /// Merged operator counters across every join in the plan (e.g.
  /// index_probe_rows: left rows actually probed by index operators).
  join::JoinStats join_stats;
};

/// Orders and lowers the kJoinGraph node `graph` exactly as Execute does
/// under `context`: the same pricing snapshot, pool width and forced
/// order. Explain renders its memo.
Result<JoinOrderPlan> PlanJoinOrder(const NodePtr& graph,
                                    const ExecContext& context);

/// Executes `plan`, returning the materialized result relation.
/// EJoin output rows: all left fields, all right fields (collisions
/// prefixed "right_"), plus "similarity". A kJoinGraph root executes in
/// the enumerator's chosen order and is projected back onto the graph's
/// CANONICAL OutputSchema, so its result is independent of that order.
Result<storage::Relation> Execute(const NodePtr& plan,
                                  const ExecContext& context,
                                  ExecStats* stats = nullptr);

/// Streaming execution: `plan`'s root must be an EJoin or a JoinGraph.
/// Subtrees materialize as usual, but the final join's matched pairs
/// stream into `sink` (chunked, unordered, honouring early termination)
/// instead of being materialized into a relation. Pair ids address the
/// rows of the final join's input relations — for a JoinGraph root those
/// are the inputs of the LAST edge in the chosen order (see
/// ExecStats::join_edge_order), so id-sensitive callers should force or
/// pin the order. A null `sink` is an InvalidArgument.
Result<join::JoinStats> ExecuteToSink(const NodePtr& plan,
                                      const ExecContext& context,
                                      join::JoinSink* sink,
                                      ExecStats* stats = nullptr);

/// One member query of a fused (pre-stacked) probe batch: its contiguous
/// left-row range [begin, end) within the batch's stacked left matrix and
/// the sink receiving its pairs.
struct ProbeSlice {
  size_t begin = 0;
  size_t end = 0;
  join::JoinSink* sink = nullptr;
};

/// Fused-batch execution for the serving layer (cej/serve): `plan`'s root
/// must be an EJoin whose left side is the STACKED probe batch of several
/// client queries. The join runs ONCE — one operator selection, one
/// catalog/cache snapshot, one sweep over the taller left matrix — and
/// every emitted pair is routed to the slice covering its left row, with
/// the left id re-based to the slice (pair.left - slice.begin). Slices
/// must be non-empty, contiguous from 0, and ascending; each slice's sink
/// observes the standard JoinSink contract (its Finish() runs when the
/// batch finishes). Early termination propagates to the operator only
/// when EVERY slice has requested it. With a single slice covering all
/// left rows this is exactly ExecuteToSink.
Result<join::JoinStats> ExecuteToDemuxSinks(
    const NodePtr& plan, const ExecContext& context,
    const std::vector<ProbeSlice>& slices, ExecStats* stats = nullptr);

}  // namespace cej::plan

#endif  // CEJ_PLAN_EXECUTOR_H_
