#include "cej/join/tensor_join.h"

#include <algorithm>
#include <atomic>

#include "cej/common/timer.h"
#include "cej/join/join_sink.h"
#include "cej/join/sweep_kernel.h"
#include "cej/la/topk.h"

namespace cej::join {
namespace {

// Default mini-batch targets: the right (inner) tile is sized so its
// vectors fit in half the L1 data cache — it is swept once per left row
// and must stay resident; the left block amortizes that sweep.
constexpr size_t kDefaultLeftBatch = 256;
constexpr size_t kL1BudgetFloats = 4096;  // 16 KB of B-tile per sweep.

// Merge grain: left rows re-collected per worker chunk in the top-k merge
// pass. Coarse enough to amortize scheduling, fine enough to balance.
constexpr size_t kMergeGrainRows = 64;

size_t DefaultRightBatch(size_t dim) {
  const size_t rows = kL1BudgetFloats / std::max<size_t>(dim, 1);
  return std::clamp<size_t>(rows, 16, 2048);
}

// The one place that splits the right relation [0, n), n > 0, into
// `shards` slices: slice s covers [bounds[s], bounds[s + 1]).
std::vector<size_t> SliceBounds(size_t n, size_t shards) {
  std::vector<size_t> bounds = {0};
  for (size_t s = 1; s < shards; ++s) bounds.push_back(n * s / shards);
  bounds.push_back(n);
  return bounds;
}

size_t MaxSliceRows(const std::vector<size_t>& bounds) {
  size_t rows = 0;
  for (size_t s = 0; s + 1 < bounds.size(); ++s) {
    rows = std::max(rows, bounds[s + 1] - bounds[s]);
  }
  return rows;
}

// State one sweep shares across all of its slices: the feed into the sink,
// the similarity counter, and — for top-k over slices that each cover only
// part of the right relation — the collector sets the slices push into.
class SweepRun {
 public:
  SweepRun(const la::Matrix& left, la::SimdMode simd, const TileShape& tile,
           const JoinCondition& condition, JoinSink* sink)
      : left_(left),
        simd_(simd),
        m_(left.rows()),
        tile_(tile),
        condition_(condition),
        sink_(sink),
        feed_(sink) {}

  size_t m() const { return m_; }
  const TileShape& tile() const { return tile_; }
  const JoinCondition& condition() const { return condition_; }
  bool topk() const { return condition_.kind == JoinCondition::Kind::kTopK; }
  bool stopped() const { return feed_.stopped(); }

  // Every left row against rows [begin, end) of `right`. Without
  // collectors the sweep owns per-left-tile top-k collectors.
  SweepSpec Spec(const la::Matrix& right, size_t begin, size_t end) {
    SweepSpec spec;
    spec.left = &left_;
    spec.right = &right;
    spec.simd = simd_;
    spec.left_end = m_;
    spec.right_begin = begin;
    spec.right_end = end;
    spec.tile = tile_;
    spec.condition = condition_;
    spec.feed = &feed_;
    spec.sims = &sims_;
    return spec;
  }

  // Top-k only: makes room for `count` collector sets, which the one
  // finalize merges per left row.
  void ReserveCollectorSets(size_t count) {
    if (topk()) sets_.resize(count);
  }

  // Collector set `s` (one collector per left row), allocated on first use
  // by the thread that sweeps its slice; nullptr for threshold joins.
  // Distinct sets may be used concurrently.
  std::vector<la::TopKCollector>* CollectorSet(size_t s) {
    if (!topk()) return nullptr;
    std::vector<la::TopKCollector>& set = sets_[s];
    if (set.empty()) {
      set.reserve(m_);
      for (size_t i = 0; i < m_; ++i) set.emplace_back(condition_.k);
    }
    return &set;
  }

  // The one top-k finalize: per left row, re-collects the k best across
  // every collector set and emits them. Then fills the shared counters and
  // finishes the sink.
  void Finish(ThreadPool* pool, JoinStats* stats) {
    if (!sets_.empty() && !feed_.stopped()) {
      // Workers own disjoint left-row ranges, so collector access stays
      // synchronization-free.
      auto merge_rows = [this](size_t begin, size_t end) {
        std::vector<JoinPair> local;
        for (size_t i = begin; i < end && !feed_.stopped(); ++i) {
          la::TopKCollector merged(condition_.k);
          for (auto& set : sets_) {
            if (set.empty()) continue;  // Slice never ran.
            for (const auto& scored : set[i].TakeSorted()) {
              merged.Push(scored.score, scored.id);
            }
          }
          for (const auto& scored : merged.TakeSorted()) {
            local.push_back({static_cast<uint32_t>(i),
                             static_cast<uint32_t>(scored.id),
                             scored.score});
          }
          feed_.MaybeDeliver(&local);
        }
        feed_.Deliver(&local);
      };
      if (pool != nullptr && m_ > kMergeGrainRows) {
        pool->ParallelForRange(0, m_, merge_rows, kMergeGrainRows);
      } else {
        merge_rows(0, m_);
      }
    }
    stats->join_seconds = timer_.ElapsedSeconds();
    stats->similarity_computations = sims_.load(std::memory_order_relaxed);
    sink_->Finish();
  }

 private:
  const la::Matrix& left_;
  const la::SimdMode simd_;
  const size_t m_;
  const TileShape tile_;
  const JoinCondition condition_;
  JoinSink* const sink_;
  WallTimer timer_;
  SinkFeed feed_;
  std::atomic<uint64_t> sims_{0};
  std::vector<std::vector<la::TopKCollector>> sets_;
};

// Left tiles: the whole right range as one slice, its left tiles spread
// over the pool; each left tile finalizes its own top-k.
void SweepLeftTiles(const la::Matrix& right, ThreadPool* pool, SweepRun* run,
                    JoinStats* stats) {
  const size_t used_buffers =
      RunSweep(run->Spec(right, 0, right.rows()), pool);
  stats->peak_buffer_bytes = run->tile().buffer_bytes() * used_buffers;
}

// Right shards: one worker owns each shard's whole sweep of R against its
// slice — the parallelism is ACROSS shards, not within one — and top-k
// keeps one collector set per shard.
void SweepRightShards(const std::vector<size_t>& bounds,
                      const la::Matrix& right, ThreadPool* pool,
                      SweepRun* run, JoinStats* stats) {
  const size_t shards = bounds.size() - 1;
  run->ReserveCollectorSets(shards);
  auto run_shard = [&](size_t s) {
    if (run->stopped()) return;
    SweepSpec spec = run->Spec(right, bounds[s], bounds[s + 1]);
    spec.collectors = run->CollectorSet(s);
    SweepLeftRows(spec, 0, run->m());
  };
  if (pool != nullptr && shards > 1) {
    pool->ParallelForRange(
        0, shards,
        [&run_shard](size_t begin, size_t end) {
          for (size_t s = begin; s < end; ++s) run_shard(s);
        },
        1);
  } else {
    for (size_t s = 0; s < shards; ++s) run_shard(s);
  }
  const size_t concurrency =
      pool == nullptr
          ? 1
          : std::min<size_t>(static_cast<size_t>(pool->num_threads()) + 1,
                             shards);
  stats->shards_used = shards;
  stats->peak_buffer_bytes =
      run->tile().buffer_bytes() * concurrency +
      (run->topk()
           ? shards * run->m() * run->condition().k * sizeof(la::ScoredId)
           : 0);
}

}  // namespace

size_t ResolveShardCount(size_t rows, size_t workers,
                         size_t pinned_shard_count, size_t min_shard_rows) {
  if (rows == 0) return 1;
  if (pinned_shard_count != 0) {
    return std::min(rows, pinned_shard_count);
  }
  min_shard_rows = std::max<size_t>(min_shard_rows, 1);
  workers = std::max<size_t>(workers, 1);
  return std::clamp<size_t>(rows / min_shard_rows, 1, workers);
}

size_t ResolveShardCount(size_t right_rows, const JoinOptions& options) {
  // The caller-runs pool contributes its own thread on top of the workers.
  const size_t workers =
      options.pool == nullptr
          ? 1
          : static_cast<size_t>(options.pool->num_threads()) + 1;
  return ResolveShardCount(right_rows, workers, options.shard_count,
                           kMinShardRows);
}

TileShape ResolveTileShape(size_t left_rows, size_t right_rows, size_t dim,
                           const TensorJoinOptions& options) {
  TileShape shape;
  shape.rows_left = options.batch_rows_left == 0
                        ? std::min(left_rows, kDefaultLeftBatch)
                        : std::min(left_rows, options.batch_rows_left);
  shape.rows_right =
      options.batch_rows_right == 0
          ? std::min(right_rows, DefaultRightBatch(dim))
          : std::min(right_rows, options.batch_rows_right);
  shape.rows_left = std::max<size_t>(shape.rows_left, 1);
  shape.rows_right = std::max<size_t>(shape.rows_right, 1);
  if (options.memory_budget_bytes > 0) {
    // Shrink the right block first (it is the streamed side), then the
    // left, until the tile fits the budget.
    while (shape.buffer_bytes() > options.memory_budget_bytes &&
           shape.rows_right > 1) {
      shape.rows_right = (shape.rows_right + 1) / 2;
    }
    while (shape.buffer_bytes() > options.memory_budget_bytes &&
           shape.rows_left > 1) {
      shape.rows_left = (shape.rows_left + 1) / 2;
    }
  }
  return shape;
}

Result<JoinStats> TensorSweepToSink(const la::Matrix& left,
                                    const la::Matrix& right,
                                    const JoinCondition& condition,
                                    const TensorJoinOptions& options,
                                    JoinSink* sink) {
  CEJ_RETURN_IF_ERROR(ValidateJoinInputs(left, right));
  CEJ_RETURN_IF_ERROR(ValidateJoinCondition(condition));
  const size_t m = left.rows();
  const size_t n = right.rows();
  if (m == 0 || n == 0) {
    sink->Finish();
    return JoinStats{};
  }

  // More than one shard runs right shards, otherwise left tiles. Inner
  // blocking is sized for ONE slice's sweep: the whole left side against
  // at most the widest slice.
  const size_t shards = ResolveShardCount(n, options);
  const std::vector<size_t> bounds = SliceBounds(n, shards);
  const TileShape tile =
      ResolveTileShape(m, MaxSliceRows(bounds), left.cols(), options);
  SweepRun run(left, options.simd, tile, condition, sink);
  JoinStats stats;
  if (shards > 1) {
    SweepRightShards(bounds, right, options.pool, &run, &stats);
  } else {
    SweepLeftTiles(right, options.pool, &run, &stats);
  }
  run.Finish(options.pool, &stats);
  return stats;
}

Result<JoinResult> TensorJoinMatrices(const la::Matrix& left,
                                      const la::Matrix& right,
                                      const JoinCondition& condition,
                                      const TensorJoinOptions& options) {
  MaterializingSink sink;
  CEJ_ASSIGN_OR_RETURN(
      JoinStats stats,
      TensorSweepToSink(left, right, condition, options, &sink));
  JoinResult result;
  result.pairs = sink.TakePairs();
  result.stats = stats;
  return result;
}

}  // namespace cej::join
