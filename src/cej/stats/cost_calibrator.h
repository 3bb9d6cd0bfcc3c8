// Online cost-model calibration (the cej::stats tentpole): the planner
// learns from every query.
//
// The paper's analytical cost model (join/join_cost.h) prices operators
// with machine- and workload-specific constants; the seed values are
// guesses, and a wrong guess makes the registry cost scan pick the wrong
// operator FOREVER — nothing feeds execution reality back into planning.
// This class closes the loop with the lightweight systems alternative to
// learned optimizers (cf. Krishnan et al., "Learning to Optimize Join
// Queries With Deep RL"): every executed join becomes an observation
// (workload features, quote, measured nanoseconds), and an incremental
// least-squares fit with exponential forgetting refits the model's
// coefficients:
//
//   theta_M  per-string embedding cost        -> CostParams::model
//   theta_P  per-pair NLJ compute+access      -> CostParams::compute
//   theta_S  per-pair blocked-sweep cost      -> CostParams::tensor_efficiency
//   theta_I  per-candidate probe traversal    -> CostParams::probe_per_candidate
//   eta      pool-scaling efficiency (EWMA)   -> CostParams::parallel_efficiency
//
// Every operator's quote is linear in these (join::CostFeatures — the
// SAME decomposition the operators price with), so the fit is a 4-way
// recursive least squares over decayed normal equations, ridge-regularized
// toward the seed so never-observed coefficients stay put. Refits publish
// immutable shared_ptr<const CostParams> snapshots: a running plan copied
// its snapshot at MakeExecContext time and never races a refit.
//
// Exploration: an eligible exact operator that has never produced an
// observation is tried once when its quote lands within
// `explore_cost_ratio` of the best quote. Without it, an operator whose
// seed coefficients OVER-price it would never run, never be observed, and
// never be corrected (the quotes of the chosen operator alone cannot
// reprice a rival's distinct coefficients).

#ifndef CEJ_STATS_COST_CALIBRATOR_H_
#define CEJ_STATS_COST_CALIBRATOR_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "cej/common/status.h"
#include "cej/join/join_cost.h"
#include "cej/stats/workload_stats.h"

namespace cej::stats {

class CostCalibrator {
 public:
  struct Options {
    /// Starting coefficients (and the ridge anchor for coefficients no
    /// observation has touched yet).
    join::CostParams seed;
    /// Per-operator observation ring size (history/Explain depth).
    size_t ring_capacity = 64;
    /// Auto-refit after this many new calibratable observations
    /// (0 = refit only on explicit Refit() / Engine::Recalibrate()).
    size_t refit_interval = 8;
    /// Exponential forgetting per observation in (0, 1]: 1 never forgets,
    /// lower values track drifting machines faster.
    double decay = 0.98;
    /// Exploration bound: an unobserved exact operator is chosen once when
    /// its quote is <= ratio * best quote. 0 disables exploration.
    double explore_cost_ratio = 32.0;
    /// Total exploration-overhead budget in nanoseconds: once the
    /// cumulative overrun of explored runs over the quote they displaced
    /// (sum of max(0, measured - runner_up quote)) exceeds this, the cost
    /// scan stops exploring (ExplorationAllowed()). 0 = unbounded.
    double explore_budget_ns = 0.0;
    /// Ridge pull toward the seed (absolute, in normal-equation units —
    /// negligible once a coefficient has real observations).
    double ridge = 1.0;
  };

  /// One refit's outcome, kept for Explain() and the convergence tests.
  struct RefitRecord {
    uint64_t refit_number = 0;
    /// Calibratable observations the fit had seen in total by this refit.
    uint64_t observations = 0;
    /// Mean |ln(estimated / measured)| over the observations recorded
    /// SINCE the previous refit — each estimated with the params in force
    /// when it was planned. Converging calibration drives this toward 0
    /// monotonically.
    double mean_abs_log_error = 0.0;
    join::CostParams published;
  };

  struct Stats {
    uint64_t observations = 0;     ///< All recorded (incl. history-only).
    uint64_t calibratable = 0;     ///< Fed into the least-squares fit.
    uint64_t refits = 0;
    uint64_t explorations = 0;     ///< Observations chosen by exploration.
    double last_mean_abs_log_error = 0.0;  ///< Of the latest refit window.
    /// Cumulative nanoseconds explored runs cost over the quote they
    /// displaced — what Options::explore_budget_ns bounds.
    double exploration_overhead_ns = 0.0;
  };

  explicit CostCalibrator(Options options);

  CostCalibrator(const CostCalibrator&) = delete;
  CostCalibrator& operator=(const CostCalibrator&) = delete;

  /// The current calibrated parameter snapshot (never null; the seed until
  /// the first refit). Immutable — copy it into an ExecContext and a
  /// concurrent refit can never change a running plan's prices.
  std::shared_ptr<const join::CostParams> Current() const;

  /// The seed the calibration is anchored to (by value: the seed can be
  /// swapped by ResetSeed / Load concurrently).
  join::CostParams seed() const;

  /// Records one executed join. Calibratable observations update the
  /// decayed normal equations incrementally; every `refit_interval`-th one
  /// triggers a refit. Thread-safe.
  void Record(Observation obs);

  /// Refits and publishes a new snapshot now (Engine::Recalibrate).
  void Refit();

  /// Replaces the seed and discards everything learned (observations stay
  /// in the history ring). The hook behind Engine::set_cost_params /
  /// CalibrateCosts when adaptive stats are enabled.
  void ResetSeed(const join::CostParams& seed);

  /// Observations ever recorded for `op` — the exploration predicate.
  uint64_t ObservationCount(std::string_view op) const;

  double explore_cost_ratio() const { return options_.explore_cost_ratio; }

  /// True while the cost scan may still explore: the cumulative overhead
  /// of explored runs is under Options::explore_budget_ns (always true
  /// with an unbounded budget of 0).
  bool ExplorationAllowed() const;

  /// Cumulative exploration overhead so far (Stats field, exposed for the
  /// executor's per-query gate and Explain).
  double exploration_overhead_ns() const;

  const WorkloadStats& workload_stats() const { return workload_stats_; }

  std::vector<RefitRecord> refit_history() const;

  Stats stats() const;

  /// Persists the calibration state (seed, fitted coefficients, decayed
  /// normal equations, scaling EWMA) into a checksummed envelope so a new
  /// process prices with — and keeps learning from — everything this one
  /// observed. The observation history ring is NOT persisted.
  Status Save(const std::string& path) const;

  /// Restores an envelope written by Save. Rejects foreign, truncated or
  /// bit-corrupted files without touching the current state.
  Status Load(const std::string& path);

 private:
  static constexpr size_t kCoeffs = 4;  // theta_M, theta_P, theta_S, theta_I

  void AccumulateLocked(const Observation& obs);
  void RefitLocked();
  join::CostParams PublishedFromThetaLocked() const;
  void ResetLearningLocked();

  Options options_;  // seed is replaced by ResetSeed / Load.
  WorkloadStats workload_stats_;

  mutable std::mutex mu_;
  std::shared_ptr<const join::CostParams> current_;
  // Decayed normal equations of the linear system
  //   measured - fixed = phi . theta,  phi = (model, pair, sweep, probe).
  double normal_[kCoeffs][kCoeffs] = {};
  double rhs_[kCoeffs] = {};
  double theta_[kCoeffs] = {};
  double theta_seed_[kCoeffs] = {};
  // Pool-scaling efficiency EWMA over sharded observations.
  double eta_ = 1.0;
  double eta_weight_ = 0.0;
  // Refit bookkeeping.
  uint64_t calibratable_ = 0;
  uint64_t since_refit_ = 0;
  double window_abs_log_error_ = 0.0;
  uint64_t window_count_ = 0;
  std::vector<RefitRecord> refit_history_;
  Stats stats_;
};

}  // namespace cej::stats

#endif  // CEJ_STATS_COST_CALIBRATOR_H_
