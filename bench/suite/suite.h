// Shared types of the CEJ benchmark suite: the workload interface the
// main program (main.cc) runs, and what one measured phase reports.

#ifndef CEJ_BENCH_SUITE_SUITE_H_
#define CEJ_BENCH_SUITE_SUITE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cej/cej.h"
#include "cej/workload/corpus.h"
#include "oracle.h"
#include "trace.h"

namespace cej::suite {

/// Pool workers of every engine the suite builds. The pool is caller-runs,
/// so joins compute on these plus the calling thread: 4 threads, one per
/// core of the 4-core reference host. A fifth compute thread made
/// serve_probe slower and its run-to-run spread wider there.
inline constexpr int kEngineThreads = 3;

/// What every workload is built from. `model` is what engines register
/// (the TimedModel decorator in traced runs); `tracer` is null in
/// untraced runs.
struct Environment {
  uint64_t seed = 1;
  const workload::Corpus* corpus = nullptr;
  const model::EmbeddingModel* model = nullptr;
  Tracer* tracer = nullptr;
};

enum class PhaseKind {
  kWarmup,   ///< Results discarded, nothing sampled.
  kMeasure,  ///< Timed; outputs sampled for the oracle.
  kTraced,   ///< Timed with spans on; per-layer counters filled too.
};

/// Per-layer counters a workload fills during a traced phase (main.cc
/// adds the model and cache deltas around it).
struct LayerCounters {
  double queries = 0.0;  ///< Ops (closed loop) or requests (serve).
  std::vector<double> optimize_ms;
  std::vector<double> replace_table_ms;
  std::map<std::string, double> operator_queries;
  double cost_log_error_sum = 0.0;
  double cost_log_error_n = 0.0;
  double edge_log_error_sum = 0.0;
  double edge_log_error_n = 0.0;
  double join_seconds = 0.0;
  double hidden_embed_seconds = 0.0;
  double similarities = 0.0;
  double flops = 0.0;
  double shards = 0.0;
  size_t peak_buffer_bytes = 0;
  double sink_consume_ms = 0.0;
  double sink_pairs = 0.0;
  double rows_out = 0.0;
  double bytes_out = 0.0;

  /// Folds one query's execution diagnostics in. `share` splits a fused
  /// serving batch's costs across its member queries.
  void AddExec(const plan::ExecStats& stats, size_t dim, double share);
};

/// What one timed phase measured.
struct PhaseResult {
  /// Per completed op; open-loop requests are timed from their due time.
  std::vector<double> latency_ms;
  double throughput_qps = 0.0;
  uint64_t attempted = 0;
  uint64_t failed = 0;  ///< Errors, shed and expired requests.
  LayerCounters layers;
  // Serving only: per request of the open-loop phase...
  std::vector<double> queue_wait_ms;
  std::vector<double> exec_ms;
  std::vector<double> generator_lag_ms;
  // ...and over the closed-loop phase, where batches form.
  double fusion_ratio = 0.0;
  double batch_queries_mean = 0.0;
  uint64_t shed = 0;
  uint64_t expired = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Input sizes, recorded in the provenance header.
  virtual std::vector<std::pair<std::string, double>> Sizes() const = 0;

  /// Discards any previous engine and builds a fresh one: registration,
  /// cold embedding and the first query. Timed by main.cc as set-up.
  virtual Status Setup() = 0;

  /// Runs the workload for `seconds` against the current engine.
  virtual PhaseResult Run(double seconds, PhaseKind kind) = 0;

  /// Checks the outputs sampled during timed phases; returns the number of
  /// sampled rows or requests that disagree with the oracle.
  virtual size_t Check(const Oracle& oracle) = 0;

  /// Outputs the last Check() covered.
  virtual size_t checked() const = 0;

  virtual Engine* engine() = 0;
};

const std::vector<std::string>& WorkloadNames();

/// nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const Environment& env);

/// Linear-interpolated quantile (q in [0, 1]); 0 for no samples.
double Quantile(std::vector<double> values, double q);

}  // namespace cej::suite

#endif  // CEJ_BENCH_SUITE_SUITE_H_
