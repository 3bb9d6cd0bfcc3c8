#include "cej/join/sweep_kernel.h"

#include <algorithm>

#include "cej/la/gemm.h"

namespace cej::join {

void SweepLeftRows(const SweepSpec& spec, size_t i_begin, size_t i_end) {
  SinkFeed* feed = spec.feed;
  const bool topk = spec.condition.kind == JoinCondition::Kind::kTopK;
  std::vector<float> buffer(spec.tile.rows_left * spec.tile.rows_right);
  std::vector<JoinPair> local;
  std::vector<la::TopKCollector> own;  // Per-left-tile collectors.
  for (size_t i0 = i_begin; i0 < i_end; i0 += spec.tile.rows_left) {
    if (feed->stopped()) break;
    const size_t i1 = std::min(i_end, i0 + spec.tile.rows_left);
    if (topk && spec.collectors == nullptr) {
      own.clear();
      own.reserve(i1 - i0);
      for (size_t i = i0; i < i1; ++i) own.emplace_back(spec.condition.k);
    }
    for (size_t j0 = spec.right_begin; j0 < spec.right_end && !feed->stopped();
         j0 += spec.tile.rows_right) {
      const size_t j1 = std::min(spec.right_end, j0 + spec.tile.rows_right);
      la::GemmTile(*spec.left, *spec.right, i0, i1, j0, j1, buffer.data(),
                   spec.simd);
      spec.sims->fetch_add(static_cast<uint64_t>(i1 - i0) * (j1 - j0),
                           std::memory_order_relaxed);
      const size_t tile_cols = j1 - j0;
      // Scan the dense tile; the sparse qualifying set is emitted as
      // (batch offset) tuple pairs — the late-materialization result
      // format of Figure 6 step 2. Threshold scans stream row by row
      // (early termination bites within a tile); top-k rows finalize only
      // once their collector has seen the whole right range.
      if (!topk) {
        for (size_t i = i0; i < i1 && !feed->stopped(); ++i) {
          const float* row = buffer.data() + (i - i0) * tile_cols;
          for (size_t j = 0; j < tile_cols; ++j) {
            if (row[j] >= spec.condition.threshold) {
              local.push_back(
                  {static_cast<uint32_t>(i),
                   static_cast<uint32_t>(spec.right_id_offset + j0 + j),
                   row[j]});
            }
          }
          feed->MaybeDeliver(&local);
        }
      } else {
        for (size_t i = i0; i < i1; ++i) {
          const float* row = buffer.data() + (i - i0) * tile_cols;
          auto& collector = spec.collectors != nullptr
                                ? (*spec.collectors)[i]
                                : own[i - i0];
          for (size_t j = 0; j < tile_cols; ++j) {
            collector.Push(
                row[j],
                static_cast<uint64_t>(spec.right_id_offset + j0 + j));
          }
        }
      }
    }
    if (topk && spec.collectors == nullptr && !feed->stopped()) {
      for (size_t i = i0; i < i1; ++i) {
        for (const auto& scored : own[i - i0].TakeSorted()) {
          local.push_back({static_cast<uint32_t>(i),
                           static_cast<uint32_t>(scored.id), scored.score});
        }
      }
    }
    feed->MaybeDeliver(&local);
  }
  feed->Deliver(&local);
}

size_t RunSweep(const SweepSpec& spec, ThreadPool* pool) {
  if (spec.left_begin >= spec.left_end ||
      spec.right_begin >= spec.right_end) {
    return 0;
  }
  const size_t m = spec.left_end - spec.left_begin;
  const size_t num_left_tiles =
      (m + spec.tile.rows_left - 1) / spec.tile.rows_left;
  if (pool == nullptr || num_left_tiles <= 1) {
    SweepLeftRows(spec, spec.left_begin, spec.left_end);
    return 1;
  }
  pool->ParallelForRange(
      spec.left_begin, spec.left_end,
      [&spec](size_t begin, size_t end) { SweepLeftRows(spec, begin, end); },
      spec.tile.rows_left);
  // The caller executes chunks too while it waits (caller-runs pool).
  return std::min(static_cast<size_t>(pool->num_threads()) + 1,
                  num_left_tiles);
}

}  // namespace cej::join
