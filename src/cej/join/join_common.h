// Shared types for the context-enhanced join operators (paper Section III).
//
// An E-join R ⋈_{E,mu,theta} S matches tuple pairs whose *embedded*
// join-key similarity satisfies a condition theta: either a similarity
// threshold (range join) or per-left-tuple top-k. The physical operators
// implementing it (see join_operator.h for the full registry):
//
//   NaiveNljJoin       embeds inside the pair loop — |R|·|S| model calls
//   PrefetchNljJoin    embeds once, then NLJ       — |R|+|S| model calls
//   TensorSweepToSink  blocked GEMM formulation    — Figure 6/7, with the
//                      frame split over left tiles, right row shards, or
//                      a right string stream embedded alongside the sweep
//   IndexJoin          per-tuple index probes      — Section IV.B
//
// All return identical pairs on exact paths (the index path is
// approximate); the tensor layouts share one driver and one sweep kernel,
// and tests cross-validate everything.
//
// The operators are registrable implementations of the polymorphic
// join::JoinOperator interface (join_operator.h) and stream their output
// through join::JoinSink (join_sink.h); the cej::Engine facade
// (cej/api/engine.h) and the plan executor select among them via the
// registry. The free functions above each operator remain as materializing
// conveniences for operator-level work. There is no selection function: an
// E-selection is the one-row E-join (Section II.A.3), and the engine runs
// it as one. Nor is there a decoding function: E^{-1} (Section III.C) is a
// top-k E-join against a table of the decoded objects. The operators take
// FP32 only.

#ifndef CEJ_JOIN_JOIN_COMMON_H_
#define CEJ_JOIN_JOIN_COMMON_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "cej/common/status.h"
#include "cej/common/thread_pool.h"
#include "cej/la/matrix.h"
#include "cej/la/simd.h"

namespace cej::join {

/// One matched tuple pair with its similarity.
struct JoinPair {
  uint32_t left;
  uint32_t right;
  float similarity;

  friend bool operator==(const JoinPair& a, const JoinPair& b) {
    return a.left == b.left && a.right == b.right &&
           a.similarity == b.similarity;
  }
};

/// The join condition theta over embedded keys.
struct JoinCondition {
  enum class Kind {
    kThreshold,  ///< match iff cosine >= threshold (range join, Fig 17)
    kTopK,       ///< match each left tuple's k most similar (Figs 15/16)
  };

  Kind kind = Kind::kThreshold;
  float threshold = 0.9f;
  size_t k = 1;

  static JoinCondition Threshold(float t) {
    JoinCondition c;
    c.kind = Kind::kThreshold;
    c.threshold = t;
    return c;
  }
  static JoinCondition TopK(size_t k) {
    JoinCondition c;
    c.kind = Kind::kTopK;
    c.k = k;
    c.threshold = -std::numeric_limits<float>::infinity();
    return c;
  }
};

/// Execution counters shared by all operators.
///
/// The time components are NON-OVERLAPPING by contract: embed_seconds +
/// join_seconds is a faithful end-to-end total.
struct JoinStats {
  uint64_t model_calls = 0;          ///< Embedding invocations.
  uint64_t similarity_computations = 0;  ///< Pairwise similarity evals.
  size_t peak_buffer_bytes = 0;      ///< Largest intermediate buffer.
  double embed_seconds = 0.0;        ///< Model time outside the join phase.
  double join_seconds = 0.0;         ///< Wall time of the join phase.
  /// Always 0: no operator overlaps model time with the join phase. Kept
  /// only because the benchmark suite still reads it (as
  /// `join.hidden_embed_ms`); the next benchmark change drops both.
  double embed_overlapped_seconds = 0.0;
  /// Relation shards the join ran over (sharded operators partition the
  /// right relation; the index join partitions its LEFT probe batch;
  /// 0 = the operator does not shard). Merged as a maximum, like peak
  /// buffers.
  size_t shards_used = 0;
  /// Left rows actually probed by index operators (0 for scan-family
  /// operators; less than |R| when early termination cut probing short).
  uint64_t index_probe_rows = 0;

  /// Merges counters from a sub-step: counts and times accumulate, the
  /// peak buffer and shard count are maxima across steps. Every operator
  /// and the executor use this instead of field-by-field accumulation.
  JoinStats& operator+=(const JoinStats& other);
};

JoinStats operator+(JoinStats lhs, const JoinStats& rhs);

/// Result pairs plus counters. Pairs are sorted by (left, right).
struct JoinResult {
  std::vector<JoinPair> pairs;
  JoinStats stats;
};

/// Canonical (left, right) ordering used by every operator before
/// returning, making results directly comparable.
void SortPairs(std::vector<JoinPair>* pairs);

/// Common execution knobs.
struct JoinOptions {
  /// Kernel speed only: both modes return the same scores. kForceScalar is
  /// the NO-SIMD arm of Figures 8 and 9.
  la::SimdMode simd = la::SimdMode::kAuto;
  /// Worker pool; nullptr = single-threaded on the caller.
  ThreadPool* pool = nullptr;
  /// Shard count (0 = auto, sized from the pool width and a shard-row
  /// floor): right-relation row shards for `sharded_tensor`, left probe
  /// shards for `index`; the other operators ignore it. Lives on the
  /// common options so the knob survives the polymorphic
  /// JoinOperator::Run interface.
  size_t shard_count = 0;
};

/// Validates that two embedded sides are joinable (same non-zero dim).
/// Single source of the error text: every operator — scan and
/// index-backed — reports the identical message for mismatched dims.
Status ValidateJoinDims(size_t left_dim, size_t right_dim);

/// Validates that two embedding batches are joinable (same non-zero dim).
Status ValidateJoinInputs(const la::Matrix& left, const la::Matrix& right);

/// Validates the condition itself, with one shared error text across
/// operators and the serving layer: rejects top-k with k == 0 and a NaN
/// threshold (which no pair could meet). Thresholds outside [-1, 1] stay
/// legal: above 1 selects nothing, below -1 everything.
Status ValidateJoinCondition(const JoinCondition& condition);

}  // namespace cej::join

#endif  // CEJ_JOIN_JOIN_COMMON_H_
