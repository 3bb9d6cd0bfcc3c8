// The shared blocked similarity sweep (paper Figure 6 step 2): produce a
// bounded dense tile of the similarity matrix, scan it for qualifying
// pairs, stream them out, reuse the buffer.
//
// Exactly ONE copy of this loop exists. The tensor-sweep driver
// (TensorSweepToSink in tensor_join.h) runs it for every layout, so the
// byte-identity of `tensor` and `sharded_tensor` results holds by
// construction rather than only by cross-validation tests. A sweep covers
// one right-relation *slice* [s0, s1) of the right matrix, with ids as-is
// (one slice [0, n) for left tiles, a shard otherwise). What differs
// between slices is collector ownership for top-k: a sweep over the whole
// right range finalizes per-left-tile collectors itself, while a sweep
// covering only a SLICE of the right relation pushes into externally-owned
// collectors that survive across sweeps, because a per-slice top-k alone
// would be wrong; the driver merges them once at the end.
//
// Threshold conditions stream row by row (early termination bites inside a
// tile); the cooperative stop flag is polled at tile and row granularity.

#ifndef CEJ_JOIN_SWEEP_KERNEL_H_
#define CEJ_JOIN_SWEEP_KERNEL_H_

#include <atomic>
#include <cstddef>
#include <vector>

#include "cej/common/thread_pool.h"
#include "cej/join/join_common.h"
#include "cej/join/join_sink.h"
#include "cej/join/tensor_join.h"
#include "cej/la/matrix.h"
#include "cej/la/simd.h"
#include "cej/la/topk.h"

namespace cej::join {

/// Everything one sweep needs. All pointers are borrowed and must outlive
/// the call. Each dense tile is la::GemmTile(*left, *right, ...): rows of
/// `left` against rows of `right`, in those matrices' own coordinates.
struct SweepSpec {
  const la::Matrix* left = nullptr;
  const la::Matrix* right = nullptr;
  la::SimdMode simd = la::SimdMode::kAuto;
  /// Left rows covered by the whole sweep.
  size_t left_begin = 0;
  size_t left_end = 0;
  /// Rows of `right` covered: [0, n) for left tiles, [s0, s1) for a
  /// shard.
  size_t right_begin = 0;
  size_t right_end = 0;
  /// Inner (L1-resident) blocking of the dense tile buffer.
  TileShape tile;
  JoinCondition condition;
  SinkFeed* feed = nullptr;
  std::atomic<uint64_t>* sims = nullptr;
  /// Top-k only. Non-null: externally-owned collectors indexed by LEFT row
  /// id, shared across sweeps over right-relation slices — the sweep only
  /// pushes; finalizing them is the caller's job once every slice is done.
  /// Null: the sweep covers the whole right range, owns per-left-tile
  /// collectors, and emits each left tile's top-k itself.
  std::vector<la::TopKCollector>* collectors = nullptr;
};

/// Sweeps left rows [i_begin, i_end) against the spec's right range on the
/// calling thread, delivering through spec.feed. Concurrent calls over
/// disjoint left ranges are race-free: workers own their rows' collectors
/// and worker-local pair buffers fan in through the (locked) feed.
void SweepLeftRows(const SweepSpec& spec, size_t i_begin, size_t i_end);

/// Runs the whole sweep, partitioned over left tiles across `pool` when
/// one is supplied and there is more than one tile. Returns the worker
/// concurrency actually used (= concurrently live tile buffers, for
/// peak-memory accounting); the caller-runs pool wait means up to
/// num_threads() + 1 buffers can be live.
size_t RunSweep(const SweepSpec& spec, ThreadPool* pool);

}  // namespace cej::join

#endif  // CEJ_JOIN_SWEEP_KERNEL_H_
