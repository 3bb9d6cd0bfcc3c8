// Tensor-join formulation (paper Section IV.C, Figures 6 and 7).
//
// The E-join over unit vectors is a dense similarity matrix D = R · Sᵀ
// followed by a condition scan. The block-matrix decomposition partitions
// both relations along *tuple* boundaries into mini-batches: a pair of
// tiles produces a bounded |part(R)| x |part(S)| intermediate buffer that
// is scanned for qualifying pairs and immediately reused — this is how the
// operator trades repeated kernel invocations for a constrained memory
// footprint (Figure 13) instead of materializing the full |R| x |S| matrix.
//
// One routine, TensorSweepToSink, runs that sweep. It splits the |R| x |S|
// frame in one of two ways, chosen from the shard count ResolveShardCount
// gives for |S|; every split runs the shared sweep kernel
// (sweep_kernel.h), so per-pair similarities do not depend on it:
//
//   left tiles    one shard: the whole right relation is one slice and
//                 the pool splits R into left tiles;
//   right shards  two or more: |S| split into contiguous row shards, one
//                 pool worker per shard sweeping all of R — parallelism
//                 that keeps scaling when |R| is below one left tile.
//
// So JoinOptions::shard_count = 1 pins left tiles, a pin above 1 runs that
// many shards, and no pin (0) shards when a pool is attached and |S| is
// at least 2 x kMinShardRows.
//
// The sweep reads embedded matrices: a string column is embedded once, by
// the plan's Embed node before the sweep, and kept in the engine's
// embedding cache (paper Section V hoists Embed out of the join for the
// same reason).
//
// Threshold slices stream pairs through one locked sink as they are found,
// with early termination biting mid-slice. Top-k over one whole-relation
// slice finalizes per left tile inside the sweep; top-k over several
// slices pushes into collector sets that survive the slices, and one
// finalize merges the k best per left row across them (a per-slice top-k
// alone would be wrong).

#ifndef CEJ_JOIN_TENSOR_JOIN_H_
#define CEJ_JOIN_TENSOR_JOIN_H_

#include <cstddef>

#include "cej/common/status.h"
#include "cej/join/join_common.h"
#include "cej/join/join_sink.h"
#include "cej/la/matrix.h"

namespace cej::join {

/// Tensor-join execution knobs.
struct TensorJoinOptions : JoinOptions {
  /// Mini-batch height over the left relation (0 = auto). Setting this to 1
  /// reproduces the "Non-Batched" configuration of Figure 12 (one side
  /// streamed vector-by-vector).
  size_t batch_rows_left = 0;
  /// Mini-batch height over the right relation (0 = auto).
  size_t batch_rows_right = 0;
  /// Upper bound on one intermediate tile buffer, in bytes (0 = none).
  /// When set, batch sizes are shrunk to respect it.
  size_t memory_budget_bytes = 0;
};

/// The one tensor-sweep entry point: joins `left` against `right`, emitting
/// pair chunks into `sink` (unordered; early termination honoured at row
/// granularity). Pair right-ids address rows of the right matrix. A run
/// over right shards reports its shard count in shards_used; a left-tile
/// run reports 0.
Result<JoinStats> TensorSweepToSink(const la::Matrix& left,
                                    const la::Matrix& right,
                                    const JoinCondition& condition,
                                    const TensorJoinOptions& options,
                                    JoinSink* sink);

/// Joins two embedded batches with the blocked-GEMM formulation.
Result<JoinResult> TensorJoinMatrices(const la::Matrix& left,
                                      const la::Matrix& right,
                                      const JoinCondition& condition,
                                      const TensorJoinOptions& options = {});

/// The concrete tile shape the operator will use for the given inputs and
/// options (exposed for tests and the Figure 13 bench). `dim` informs the
/// auto default: the right tile is sized to keep one B tile L1-resident
/// (the block-size ablation shows ~40% at dim=100 over L2-sized tiles).
struct TileShape {
  size_t rows_left;
  size_t rows_right;
  /// Bytes of one intermediate buffer (rows_left * rows_right * 4).
  size_t buffer_bytes() const {
    return rows_left * rows_right * sizeof(float);
  }
};
TileShape ResolveTileShape(size_t left_rows, size_t right_rows, size_t dim,
                           const TensorJoinOptions& options);

/// The right-shard floor: an auto-sized shard never covers fewer right
/// rows than this (amortizes per-shard scheduling and merge overhead).
inline constexpr size_t kMinShardRows = 1024;

/// The ONE shard-resolution rule: a pinned count wins (clamped to the row
/// count); otherwise clamp(rows / min_shard_rows, 1, workers). `workers`
/// counts the caller too (a caller-runs pool of T threads supplies T + 1).
/// The tensor sweep, the index join's probe shards and their cost quotes
/// all call this, so a quoted shard count cannot drift from the one run.
size_t ResolveShardCount(size_t rows, size_t workers,
                         size_t pinned_shard_count, size_t min_shard_rows);

/// The shard count TensorSweepToSink runs over `right_rows` rows: workers
/// from options.pool, the pin from options.shard_count, the kMinShardRows
/// floor. Above 1 the sweep runs right shards, otherwise left tiles.
size_t ResolveShardCount(size_t right_rows, const JoinOptions& options);

}  // namespace cej::join

#endif  // CEJ_JOIN_TENSOR_JOIN_H_
