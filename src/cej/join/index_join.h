// Index-based E-join (paper Section IV.B, Eq. "E-Index Join Cost"):
// each left tuple probes a vector index built over the right relation.
// Probes are batched across the worker pool — "batching many search queries
// [is] equivalent to a join operation for better use of the available
// parallelism" (Section II.A.3). Supports the Milvus-style relational
// pre-filter bitmap the selectivity experiments (Figures 15-17) sweep.
//
// Parallelism uses the sharded-merge discipline of the tensor sweep's
// right-shard layout (tensor_join.h), applied to the LEFT probe batch:
// contiguous left-row shards run concurrently on the pool and fan into ONE
// locked sink (SinkFeed), with cooperative early termination biting at
// probe granularity. Every left row's matches come from a single probe
// inside a single shard, so the top-k merge degenerates — no cross-shard
// re-collection pass is needed — and results are byte-identical across
// shard counts by construction.
// Shard resolution is ResolveProbeShardCount, which the index operator's
// cost features call too, so the planner's probe-parallelism quote
// matches the executed configuration.

#ifndef CEJ_JOIN_INDEX_JOIN_H_
#define CEJ_JOIN_INDEX_JOIN_H_

#include "cej/common/status.h"
#include "cej/index/vector_index.h"
#include "cej/join/join_common.h"
#include "cej/join/join_sink.h"

namespace cej::join {

/// Options for the index join. The inherited JoinOptions::shard_count
/// pins the left-shard count (0 = auto from the pool width and the
/// shard-row floor).
struct IndexJoinOptions : JoinOptions {
  /// Admissibility bitmap over the indexed (right) relation, or nullptr.
  /// Entries failing the bitmap never reach the result set, but the
  /// traversal cost is still paid (pre-filtering semantics).
  const index::FilterBitmap* filter = nullptr;
};

/// Auto-sharding floor of the probe batch: a probe shard never covers
/// fewer left rows than this. Probes are orders of magnitude heavier than
/// sweep rows, so the floor is far below the tensor sweep's kMinShardRows.
inline constexpr size_t kMinProbeShardRows = 8;

/// The probe-shard count for `left_rows` probes on `workers` threads
/// (counting the caller) with `pinned_shard_count` (0 = auto) — the ONE
/// rule the index join runs and its quote prices (ResolveShardCount with
/// the kMinProbeShardRows floor).
size_t ResolveProbeShardCount(size_t left_rows, size_t workers,
                              size_t pinned_shard_count);

/// Probes `right_index` once per left row. Top-k conditions map to index
/// top-k probes; threshold conditions map to range probes (which, on HNSW,
/// use the top-k mechanism with post-filtering — the paper's Figure 17
/// configuration).
Result<JoinResult> IndexJoin(const la::Matrix& left,
                             const index::VectorIndex& right_index,
                             const JoinCondition& condition,
                             const IndexJoinOptions& options = {});

/// Streaming form: emits pair chunks into `sink` (unordered; honours early
/// termination at probe granularity) and returns counters for the work
/// actually performed.
Result<JoinStats> IndexJoinToSink(const la::Matrix& left,
                                  const index::VectorIndex& right_index,
                                  const JoinCondition& condition,
                                  const IndexJoinOptions& options,
                                  JoinSink* sink);

}  // namespace cej::join

#endif  // CEJ_JOIN_INDEX_JOIN_H_
