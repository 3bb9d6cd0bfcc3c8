// Join-order enumeration for n-ary E-join graphs (plan::JoinGraph).
//
// A JoinGraph node carries NO join order; this enumerator picks one by
// dynamic programming over CONNECTED subsets of the input relations
// (DPccp-style subset splitting, bushy trees allowed — left-deep-only
// enumeration forfeits the shapes that make multi-relation semantic
// pipelines cheap). Each memo entry records the relation subset it
// covers, the estimated output rows, the cumulative cost, the physical
// operator the registry priced cheapest for the connecting join, and the
// chosen child split. Joins are priced with the SAME calibrated
// CostParams snapshot the executor runs under, so the adaptive
// calibrator's learned coefficients drive ordering decisions too.
//
// Cardinality estimates are deliberately simple (the learned-cardinality
// feed is recorded per edge, not consumed yet): a leaf contributes its
// relation's row count, a threshold join |L|*|R|*kThresholdSelectivity,
// a top-k join |L|*min(k, |R|).
//
// Semantics guardrails: threshold conditions are symmetric and
// order-independent, so all-threshold graphs reorder (and may flip edge
// orientation) freely. A top-k edge's matches depend on which rows sit on
// its probe side, so any top-k edge pins the graph to submission order —
// unless a forced order (test hook) overrides it explicitly.
//
// EnumerateJoinOrder also LOWERS the winning order to a binary kEJoin tree:
// with hoist_embeddings set, every string edge key is embedded once at
// its leaf (the graph-level E-theta-Join equivalence) and downstream
// joins reference the carried embedding columns zero-copy — an
// intermediate result is never re-embedded. Because intermediate column
// names depend on the executed order, the plan carries a positional
// `canonical_projection` mapping the lowered tree's output columns back
// to the graph's canonical OutputSchema.

#ifndef CEJ_PLAN_JOIN_ORDER_H_
#define CEJ_PLAN_JOIN_ORDER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cej/common/status.h"
#include "cej/join/join_cost.h"
#include "cej/plan/logical_plan.h"

namespace cej::plan {

/// One memo entry of the join-order DP: a connected subset of the graph's
/// inputs and the cheapest way found to produce it.
struct DPJoinEntry {
  /// Bitmask of the input relations this entry covers (bit i = input i).
  uint64_t relations = 0;
  /// Cumulative cost in cost-model units (children included; leaves 0).
  double cost = 0.0;
  /// Estimated output rows of this (sub)plan.
  double estimated_rows = 0.0;
  /// Physical operator the registry priced cheapest for the connecting
  /// join ("" for leaves).
  std::string op;
  /// Leaf input index, or -1 for join entries.
  int relation_id = -1;
  /// The connecting edge's submission index (-1 for leaves).
  int edge = -1;
  /// True when the edge was applied right-to-left: the LEFT child holds
  /// the edge's right_input endpoint (threshold edges are symmetric, so
  /// the DP may flip orientation when the flipped shape prices cheaper).
  bool swapped = false;
  /// Chosen child split (null for leaves).
  std::shared_ptr<const DPJoinEntry> left;
  std::shared_ptr<const DPJoinEntry> right;

  bool IsLeaf() const { return relation_id >= 0; }
};

/// How the executed edge order was chosen.
enum class JoinOrderSource {
  kDp,          ///< Dynamic programming over connected subsets.
  kForced,      ///< ExecContext::force_join_order (test hook).
  kSubmission,  ///< Pinned to edge-submission order (top-k semantics, or
                ///< a graph too wide for the DP).
};

struct JoinOrderOptions {
  /// Pricing snapshot — pass the SAME params the executor will run with
  /// (the calibrated snapshot under adaptive stats).
  join::CostParams cost_params;
  /// Worker threads the executor will hand the operators (see
  /// join::JoinWorkload::pool_threads).
  size_t pool_threads = 1;
  /// Executes the edges in exactly this order (a permutation of the edge
  /// submission indexes) instead of enumerating. Empty = enumerate.
  std::vector<size_t> force_edge_order;
};

/// The enumerator's verdict: the lowered tree to execute plus everything
/// diagnostics (Explain, ExecStats, benches) need about the decision.
struct JoinOrderPlan {
  /// The winning order lowered to a binary kEJoin tree (leaf embeddings
  /// hoisted when the graph asked for it). Execute this.
  NodePtr root;
  /// The winning memo entry (costs/estimates for the whole plan).
  std::shared_ptr<const DPJoinEntry> best;
  /// Winning entry per connected subset, ordered by subset size then
  /// mask. Populated only when the DP ran (source == kDp).
  std::vector<std::shared_ptr<const DPJoinEntry>> memo;
  /// Edge submission indexes in execution order (bottom-up).
  std::vector<size_t> edge_order;
  /// Estimated output rows per edge, indexed by submission index.
  std::vector<double> edge_est_rows;
  /// canonical_projection[i] = the lowered tree's output column that the
  /// canonical OutputSchema's column i came from (column names in the
  /// tree depend on the executed order; positions via this map do not).
  std::vector<size_t> canonical_projection;
  JoinOrderSource source = JoinOrderSource::kDp;
};

/// Expected fraction of |L|*|R| pairs surviving a threshold edge.
inline constexpr double kThresholdSelectivity = 0.02;

/// Orders and lowers `graph` (a kJoinGraph node; validated here).
Result<JoinOrderPlan> EnumerateJoinOrder(const NodePtr& graph,
                                         const JoinOrderOptions& options);

/// Renders `plan`'s memo and chosen order for Explain(): one line per
/// subset (relations, est. rows, cost, operator) and the final order.
std::string MemoToString(const NodePtr& graph, const JoinOrderPlan& plan);

}  // namespace cej::plan

#endif  // CEJ_PLAN_JOIN_ORDER_H_
