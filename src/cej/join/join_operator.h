// The polymorphic physical-operator interface for the context-enhanced
// join (paper Section III): *one logical operator* — R ⋈_{E,mu,theta} S —
// with interchangeable physical implementations chosen by the cost model.
//
// Embedding is the plan's job, not the join's: the Embed node (hoisted out
// of the join by the optimizer's E-θ-join rewrite) turns keys into
// vectors, and every operator consumes those vectors — except the paper's
// Figure 8 baseline, naive_nlj, which takes the raw keys plus the model
// and embeds inside its pair loop. An operator streams matched pairs into
// a JoinSink and prices itself via EstimateCost, so the planner's
// access-path selection is a registry scan instead of a hard-wired
// if/else. New operators (a remote backend, say) plug in by registering —
// the planner and the cej::Engine facade pick them up without
// modification.
//
// The four built-ins (registered by default in the global registry):
//
//   naive_nlj        strings + model, embeds inside the pair loop
//                    — |R|·|S| model calls; un-optimized plans only
//   prefetch_nlj     vectors, pairwise NLJ
//   tensor           vectors, blocked GEMM formulation — Figure 6/7
//   index            left vectors, per-tuple index probes — Section IV.B
//
// `tensor` runs one routine (TensorSweepToSink), which picks how the frame
// is split — left tiles, or right-relation row shards one per pool worker
// — from the shard count it resolves (ResolveShardCount). Its quote prices
// the split the run will use, so the cost scan sees one tensor candidate.

#ifndef CEJ_JOIN_JOIN_OPERATOR_H_
#define CEJ_JOIN_JOIN_OPERATOR_H_

#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "cej/common/status.h"
#include "cej/index/vector_index.h"
#include "cej/join/join_common.h"
#include "cej/join/join_cost.h"
#include "cej/join/join_sink.h"
#include "cej/la/matrix.h"
#include "cej/model/embedding_model.h"

namespace cej::join {

/// The representations of the two join sides available to an operator.
/// All pointers are borrowed and must outlive the Run() call; unavailable
/// representations stay null. Pair ids emitted by an operator address rows
/// of whichever right-side representation it consumed (matrix rows or
/// index entries — the caller keeps them aligned).
struct JoinInputs {
  // naive_nlj's inputs: raw join keys plus the embedding model mu, which
  // it invokes per pair. No other operator reads them.
  const std::vector<std::string>* left_strings = nullptr;
  const std::vector<std::string>* right_strings = nullptr;
  const model::EmbeddingModel* model = nullptr;

  // Embedded, L2-normalized keys (the plan's Embed output).
  const la::Matrix* left_vectors = nullptr;
  const la::Matrix* right_vectors = nullptr;

  // Index domain: a prebuilt index over the right relation, with an
  // optional relational pre-filter bitmap (Milvus semantics).
  const index::VectorIndex* right_index = nullptr;
  const index::FilterBitmap* right_filter = nullptr;
};

/// Static capabilities an operator declares; the planner uses these to
/// decide eligibility before pricing.
struct JoinOperatorTraits {
  bool needs_strings = false;  ///< Requires left/right_strings + model.
  bool needs_vectors = false;  ///< Requires left/right_vectors.
  bool needs_index = false;    ///< Requires left_vectors + right_index.
  bool exact = true;           ///< False: may miss pairs (recall < 1).
  bool supports_topk = true;
};

/// A physical implementation of the E-join.
class JoinOperator {
 public:
  virtual ~JoinOperator() = default;

  /// Stable registry key ("tensor", "index", ...).
  virtual std::string_view Name() const = 0;

  virtual JoinOperatorTraits Traits() const = 0;

  /// Estimated execution cost for `workload` under the calibrated
  /// parameters, in the cost model's units. Operators that cannot serve
  /// the workload (e.g. no index available) return +infinity. The default
  /// prices the built-in cost features under Name() (join_cost.h):
  /// PriceFeatures(FeaturesForOperator(Name(), w, p), p) when they are
  /// eligible, +infinity otherwise. An extension operator overrides it.
  virtual double EstimateCost(const JoinWorkload& workload,
                              const CostParams& params) const;

  /// Executes the join, streaming matched pairs into `sink` (chunked, in
  /// no particular order) and honouring the sink's early-termination
  /// request at chunk granularity. Returns the counters for the work
  /// actually performed. `sink->Finish()` fires on every OK return.
  virtual Result<JoinStats> Run(const JoinInputs& inputs,
                                const JoinCondition& condition,
                                const JoinOptions& options,
                                JoinSink* sink) const = 0;

  /// Validates `inputs` against Traits() and the shared dimensionality /
  /// condition rules; implementations call this first in Run().
  Status ValidateInputs(const JoinInputs& inputs,
                        const JoinCondition& condition) const;
};

/// One candidate of a cost scan: an eligible operator and its quote.
struct OperatorQuote {
  const JoinOperator* op = nullptr;
  double cost = 0.0;
  /// The operator's results are exact: its trait, or a served flat index
  /// (JoinWorkload::index_exact) under the conservatively approximate
  /// index operator.
  bool exact = true;
};

/// Name-keyed catalog of physical join operators. The global instance is
/// pre-seeded with the four built-ins; extensions register at startup.
class JoinOperatorRegistry {
 public:
  /// The process-wide registry (thread-safe).
  static JoinOperatorRegistry& Global();

  JoinOperatorRegistry() = default;

  /// Takes ownership; fails with kAlreadyExists on a duplicate name.
  Status Register(std::unique_ptr<const JoinOperator> op);

  /// Lookup by name, or NotFound listing the registered operators.
  Result<const JoinOperator*> Find(std::string_view name) const;

  /// All registered operators, registration-ordered.
  std::vector<const JoinOperator*> operators() const;

  /// The ONE cost scan over embedded keys: every registered operator that
  /// can serve `workload` — no string inputs, an index when it needs one,
  /// `require_exact`, top-k support — with its finite EstimateCost quote,
  /// registration-ordered. Operators quoting +infinity have bowed out and
  /// are omitted. The executor's access-path selection and the join-order
  /// DP both price through it.
  std::vector<OperatorQuote> EligibleQuotes(const JoinWorkload& workload,
                                            const CostParams& params,
                                            bool require_exact) const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<const JoinOperator>> ops_;
};

/// Factories for the built-in operators (exposed for tests and custom
/// registries; the global registry already holds one of each).
std::unique_ptr<const JoinOperator> MakeNaiveNljOperator();
std::unique_ptr<const JoinOperator> MakePrefetchNljOperator();
std::unique_ptr<const JoinOperator> MakeTensorOperator();
std::unique_ptr<const JoinOperator> MakeIndexJoinOperator();

}  // namespace cej::join

#endif  // CEJ_JOIN_JOIN_OPERATOR_H_
