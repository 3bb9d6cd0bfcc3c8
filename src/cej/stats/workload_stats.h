// Adaptive workload statistics: the observation store behind the cost
// calibrator (cej/stats/cost_calibrator.h).
//
// Every executed join over embedded keys produces one Observation — the
// cost features the planner priced, the quote it priced them at, the
// operator it chose (and the runner-up's quote), and the seconds the
// operator actually took. WorkloadStats keeps a bounded ring of them per
// operator so the engine can show the per-join misprediction history in
// Explain() and count each operator's observations for exploration; the
// CostCalibrator refits the cost model from the same records.
//
// The store is deliberately dumb: it never interprets the features — the
// CostCalibrator owns the regression. (The index auto-build policy reads
// the losing queries' shapes from index::IndexLossContext, not from
// here.) Thread-safe; recording is O(1).

#ifndef CEJ_STATS_WORKLOAD_STATS_H_
#define CEJ_STATS_WORKLOAD_STATS_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cej/join/join_cost.h"

namespace cej::stats {

/// One executed join, as the calibrator sees it: the cost decomposition
/// the planner priced (join::CostFeatures), the quote, and reality.
struct Observation {
  std::string op;              ///< Chosen physical operator.
  double estimated_ns = 0.0;   ///< The chosen operator's quote at plan time.
  /// The rejected runner-up's quote (0 = none): what an explored run's
  /// overrun is charged against.
  double runner_up_ns = 0.0;
  double measured_ns = 0.0;    ///< embed + join wall time actually spent.
  join::CostFeatures features; ///< Calibration features at plan time.
  /// Realized parallelism min(shards, workers) — feeds the pool-scaling
  /// efficiency estimate (1 = serial).
  size_t parallel_workers = 1;
  /// The speedup the plan-time quote divided parallel work by
  /// (join::ParallelSpeedup under the plan's params; 1 = serial). Lets the
  /// calibrator reconstruct the serial work behind a parallel observation.
  double speedup_estimated = 1.0;
  /// True when the scan chose this operator to gather a first timing for
  /// it (see CostCalibrator exploration) rather than because it quoted
  /// cheapest.
  bool explored = false;
  /// Join-graph edge this join executed (submission index; -1 = a plain
  /// binary query outside a graph). Multi-join pipelines record one
  /// Observation per edge.
  int graph_edge = -1;
  /// The enumerator's output-cardinality estimate for the edge and the
  /// rows the edge actually produced — the feed for the learned-
  /// cardinality (AQO-style) direction. 0 / 0 outside a graph.
  double edge_card_est = 0.0;
  uint64_t edge_card_obs = 0;
  /// Monotonic record number, assigned by WorkloadStats::Record.
  uint64_t sequence = 0;
};

/// Bounded per-operator observation rings. Owned by the CostCalibrator;
/// exposed read-only through Engine::calibrator()->workload_stats().
class WorkloadStats {
 public:
  explicit WorkloadStats(size_t ring_capacity)
      : ring_capacity_(ring_capacity == 0 ? 1 : ring_capacity) {}

  WorkloadStats(const WorkloadStats&) = delete;
  WorkloadStats& operator=(const WorkloadStats&) = delete;

  /// Appends `obs` to its operator's ring (evicting the oldest past the
  /// capacity) and stamps `obs.sequence`. Returns the stamped sequence.
  uint64_t Record(Observation obs);

  /// Every retained observation across operators, ordered by sequence.
  std::vector<Observation> AllObservations() const;

  /// Total observations EVER recorded for `op` (monotonic — unlike the
  /// ring, never forgets). The exploration policy keys off zero.
  uint64_t RecordedCount(std::string_view op) const;

 private:
  struct OperatorRing {
    std::vector<Observation> ring;  // Circular once full.
    size_t next = 0;                // Insertion cursor.
    uint64_t recorded = 0;          // Monotonic count.
  };

  const size_t ring_capacity_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, OperatorRing> rings_;
  uint64_t sequence_ = 0;
};

}  // namespace cej::stats

#endif  // CEJ_STATS_WORKLOAD_STATS_H_
