// The paper's abstract cost model (Section IV.A), owned by the join layer
// so every physical operator can price itself (JoinOperator::EstimateCost)
// against the same calibrated parameters:
//
//   A = per-tuple data access cost      M = model (embedding) cost
//   C = per-pair computation cost       I_probe = per-probe traversal cost
//
//   Cost(sigma_E(R))     = |R| * (A + M + C)
//   Cost(naive E-NLJ)    = |R| * |S| * (A + M + C)
//   Cost(prefetch E-NLJ) = |R| * |S| * (A + C) + (|R| + |S|) * M
//   Cost(E-index join)   = |R| * I_probe(|S|) * (A + C)
//
// The tensor formulation performs the same |R|*|S| similarity work with a
// cache-efficiency factor < 1 relative to the NLJ (calibrated, not assumed).
//
// These formulas document the feature decomposition below; they are not
// code. Every operator is priced by ONE rule,
// PriceFeatures(FeaturesForOperator(name, w, p), p), which adds the terms
// the paper's formulas leave implicit (the |S| * A scan of a filtered
// right side, a cache-aware right model term, shard and beam factors).
// The left key's |R| * M is paid by the plan's Embed before the join is
// priced, so no feature carries it.
// plan/cost_model.h adds host calibration (plan::Calibrate).

#ifndef CEJ_JOIN_JOIN_COST_H_
#define CEJ_JOIN_JOIN_COST_H_

#include <cstddef>
#include <string_view>

#include "cej/join/join_common.h"

namespace cej::join {

/// Calibrated per-unit costs. Units are arbitrary but mutually normalized
/// (nanoseconds when produced by plan::Calibrate()).
struct CostParams {
  double access = 1.0;        ///< A: per-tuple access.
  double model = 50.0;        ///< M: per-tuple embedding.
  double compute = 5.0;       ///< C: per-pair similarity computation.
  /// Tensor-formulation efficiency vs the per-pair NLJ baseline (< 1 means
  /// the blocked kernel is faster per pair; Figure 14 measures ~0.1).
  double tensor_efficiency = 0.15;
  /// I_probe(n) = probe_base + probe_per_candidate * ef * ln(n) * (A + C):
  /// graph-traversal candidates scale with beam width and graph depth.
  /// The default per-candidate factor is calibrated so the top-1
  /// scan-vs-probe crossover lands at the paper's ~20-30% selectivity for
  /// a 10k x 1M join (Figure 15); pre-filtered probes traverse far more
  /// than ef*ln(n) nodes in practice.
  double probe_base = 10.0;
  double probe_per_candidate = 40.0;
  size_t probe_ef = 64;
  /// Pool-scaling efficiency of partition-parallel operators in (0, 1]:
  /// the realized speedup of P-way parallel work is 1 + (P - 1) * eta
  /// (1 = perfect scaling, the seed assumption; the calibrator lowers it
  /// when measured sharded runs scale worse than linearly).
  double parallel_efficiency = 1.0;
};

/// The realized speedup of `min(shards, workers)`-way parallel work under
/// `p.parallel_efficiency` — the ONE rule every sharded cost uses.
double ParallelSpeedup(size_t shards, size_t workers, const CostParams& p);

/// A workload descriptor an operator prices itself against: the shape the
/// planner knows *before* running anything. `right_rows` is the base
/// (pre-filter) size of S — also the size of any index over it;
/// `right_selectivity` is the fraction of S surviving pushed-down
/// relational predicates (scan paths shrink with it, probe paths do not —
/// pre-filter semantics, Section IV.B).
struct JoinWorkload {
  size_t left_rows = 0;
  size_t right_rows = 0;
  size_t dim = 0;  ///< Embedding dimensionality (0 = unknown).
  double right_selectivity = 1.0;
  JoinCondition condition;
  bool index_available = false;
  /// The served index produces exact results (a flat family entry): the
  /// planner's RequireExact() filter admits the probe path despite the
  /// index operator's conservative `exact = false` trait.
  bool index_exact = false;
  /// Expected embedding-cache state of the right side: true means its
  /// model term will NOT be paid (the engine cache already holds the
  /// full-column embedding, or the side is already embedded). The left key
  /// is always embedded before a join is priced, so no quote carries a
  /// left model term.
  bool right_embed_cached = false;
  /// The side is a materialized intermediate join result (a chained
  /// multi-join pipeline), not a base relation: its carried columns are
  /// gathered row-by-row when it was built, so the join pays one extra
  /// per-row access on that side. Keeps wide intermediates from pricing
  /// identically to base-table scans in the join-order DP.
  bool left_intermediate = false;
  bool right_intermediate = false;
  /// Worker threads the executor will hand the operator, counting the
  /// calling thread (a caller-runs pool of T workers supplies T + 1;
  /// 1 = no pool). Partition-parallel operators price their speedup with
  /// it and bow out when there is nothing to fan out across.
  size_t pool_threads = 1;
  /// Client queries stacked into `left_rows` by the serving layer's
  /// multi-query fusion (1 = an ordinary solo plan). The sweep already
  /// scales with the taller left matrix; > 1 additionally prices the
  /// per-pair result demultiplexing back to the member queries.
  size_t fused_queries = 1;
};

/// A workload's cost decomposed over the CALIBRATED coefficients — the
/// contract between pricing and the adaptive cost calibrator
/// (cej/stats/cost_calibrator.h). Every built-in operator's quote is
/// PriceFeatures(FeaturesForOperator(name, w, p), p) (the JoinOperator
/// default), so the features the calibrator regresses over are — by
/// construction, not by convention — the exact multipliers the planner
/// priced with:
///
///   predicted = fixed
///            + model * p.model                                 (theta_M)
///            + pair  * (p.access + p.compute)                  (theta_P)
///            + sweep * (p.access + p.compute) * p.tensor_efficiency
///            + probe * (p.access + p.compute) * p.probe_per_candidate
///
/// so every built-in operator is linear in the coefficients.
struct CostFeatures {
  double model = 0.0;  ///< Expected model invocations (cache-discounted).
  double pair = 0.0;   ///< Per-pair NLJ work units (incl. merge fan-in).
  double sweep = 0.0;  ///< Blocked-GEMM pair units, post parallel speedup.
  double probe = 0.0;  ///< Index candidate traversals, post speedup.
  /// Cost priced with NON-calibrated parameters (linear access scans,
  /// probe_base), evaluated at estimate time.
  double fixed = 0.0;
  /// False when the features do not describe the operator (a name the
  /// built-ins do not know): the observation is kept for history but
  /// excluded from the least-squares fit.
  bool calibratable = true;
  /// False when the operator cannot serve the workload (no index for the
  /// probe path). Such an operator quotes +infinity and leaves the cost
  /// scan.
  bool eligible = true;
};

/// The pricing rule above.
double PriceFeatures(const CostFeatures& f, const CostParams& p);

/// The feature decomposition for the named built-in operator
/// ("naive_nlj", "prefetch_nlj", "tensor", "index"). The tensor features
/// describe the split its run will use: right shards when the auto shard
/// count over the filtered right side is above 1, else left tiles.
/// Unknown names return an all-zero, ineligible, non-calibratable vector.
CostFeatures FeaturesForOperator(std::string_view op_name,
                                 const JoinWorkload& w, const CostParams& p);

}  // namespace cej::join

#endif  // CEJ_JOIN_JOIN_COST_H_
