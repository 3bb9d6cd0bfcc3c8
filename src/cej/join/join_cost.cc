#include "cej/join/join_cost.h"

#include <algorithm>
#include <cmath>

#include "cej/join/index_join.h"
#include "cej/join/tensor_join.h"

namespace cej::join {
namespace {

// |S| surviving the pushed-down relational predicates.
size_t FilteredRight(const JoinWorkload& w) {
  const double sel = std::clamp(w.right_selectivity, 0.0, 1.0);
  return static_cast<size_t>(static_cast<double>(w.right_rows) * sel + 0.5);
}

// Model invocations a vector operator's right side costs: its surviving
// rows, unless the embedding cache already holds them. The left key is
// embedded before any join is priced.
double UncachedModelCalls(const JoinWorkload& w, size_t filtered_right) {
  return w.right_embed_cached ? 0.0 : static_cast<double>(filtered_right);
}

// The index operator's effective beam width: top-k > 1 widens the beam,
// range conditions probe via the top-k mechanism with post-filtering and
// traverse roughly twice the candidates per beam slot on top of a 3x beam
// (the Figure 16/17 relative crossover shifts). Mirrors the historical
// probe pricing exactly, size_t truncation included.
double ProbeCandidateMultiplier(const JoinWorkload& w, const CostParams& p) {
  double beam_factor;
  double per_candidate_factor = 1.0;
  if (w.condition.kind == JoinCondition::Kind::kTopK) {
    beam_factor =
        1.0 + static_cast<double>(std::max<size_t>(w.condition.k, 1)) / 16.0;
  } else {
    beam_factor = 3.0;
    per_candidate_factor = 2.0;
  }
  const size_t ef_eff = std::max<size_t>(
      1, static_cast<size_t>(static_cast<double>(p.probe_ef) * beam_factor));
  const double depth =
      w.right_rows > 1 ? std::log(static_cast<double>(w.right_rows)) : 1.0;
  return static_cast<double>(ef_eff) * depth * per_candidate_factor;
}

}  // namespace

double ParallelSpeedup(size_t shards, size_t workers, const CostParams& p) {
  const double parallelism = static_cast<double>(
      std::max<size_t>(std::min(shards, workers), 1));
  const double eta = std::clamp(p.parallel_efficiency, 0.0, 1.0);
  return std::max(1.0, 1.0 + (parallelism - 1.0) * eta);
}

double PriceFeatures(const CostFeatures& f, const CostParams& p) {
  const double pair_cost = p.access + p.compute;
  return f.fixed + f.model * p.model + f.pair * pair_cost +
         f.sweep * pair_cost * p.tensor_efficiency +
         f.probe * pair_cost * p.probe_per_candidate;
}

CostFeatures FeaturesForOperator(std::string_view op_name,
                                 const JoinWorkload& w, const CostParams& p) {
  CostFeatures f;
  const double m = static_cast<double>(w.left_rows);
  const double n = static_cast<double>(w.right_rows);
  const double filtered = static_cast<double>(FilteredRight(w));
  const double scan_access = n * p.access;  // Filtering S is linear.

  if (op_name == "naive_nlj") {
    // Model invoked inside the pair loop: the cache cannot help.
    f.model = m * filtered;
    f.pair = m * filtered;
    f.fixed = scan_access;
  } else if (op_name == "prefetch_nlj") {
    f.model = UncachedModelCalls(w, FilteredRight(w));
    f.pair = m * filtered;
    f.fixed = scan_access;
  } else if (op_name == "tensor") {
    // The shard count the run resolves (TensorSweepToSink) with no pin.
    const size_t shards = ResolveShardCount(FilteredRight(w), w.pool_threads,
                                            0, kMinShardRows);
    f.model = UncachedModelCalls(w, FilteredRight(w));
    f.sweep = m * filtered;
    f.fixed = scan_access;
    if (shards > 1) {
      // Right shards: the sweep divides by the realized parallelism, and
      // the top-k re-collection fans in per left row per shard (priced
      // with the current compute coefficient; small, kept out of the
      // regression).
      f.sweep /= ParallelSpeedup(shards, w.pool_threads, p);
      f.fixed += m * static_cast<double>(shards) * p.compute;
    }
  } else if (op_name == "index") {
    // Probes traverse the FULL index (pre-filter semantics), over the
    // probe shards the run executes.
    const double speedup = ParallelSpeedup(
        ResolveProbeShardCount(w.left_rows, w.pool_threads, 0),
        w.pool_threads, p);
    f.probe = m * ProbeCandidateMultiplier(w, p) / speedup;
    f.fixed = m * p.probe_base / speedup;
    f.eligible = w.index_available;
  } else {
    f.calibratable = false;
    f.eligible = false;
    return f;
  }

  // Intermediate (chained-join) inputs pay one extra per-row access for
  // the materialization gather that produced them — linear terms, but
  // order-sensitive: the join-order DP sees that stacking joins onto a
  // wide intermediate is not free.
  if (w.left_intermediate) f.fixed += m * p.access;
  if (w.right_intermediate) f.fixed += filtered * p.access;

  // Fused serving batches demultiplex every emitted pair back to its
  // member query by a log2(Q) slice search (plan::ExecuteToDemuxSinks).
  // Only top-k has a plan-time pair count; threshold match counts are
  // unknown and the routing term is noise next to the sweep there.
  if (w.fused_queries > 1 &&
      w.condition.kind == JoinCondition::Kind::kTopK) {
    const double q = static_cast<double>(w.fused_queries);
    f.fixed += m * static_cast<double>(std::max<size_t>(w.condition.k, 1)) *
               std::log2(q) * p.access;
  }
  return f;
}

}  // namespace cej::join
