#include "cej/join/index_join.h"

#include <algorithm>
#include <atomic>

#include "cej/common/timer.h"
#include "cej/join/join_sink.h"
#include "cej/join/tensor_join.h"

namespace cej::join {

Result<JoinStats> IndexJoinToSink(const la::Matrix& left,
                                  const index::VectorIndex& right_index,
                                  const JoinCondition& condition,
                                  const IndexJoinOptions& options,
                                  JoinSink* sink) {
  CEJ_RETURN_IF_ERROR(ValidateJoinDims(left.cols(), right_index.dim()));
  CEJ_RETURN_IF_ERROR(ValidateJoinCondition(condition));
  if (options.filter != nullptr &&
      options.filter->size() != right_index.size()) {
    return Status::InvalidArgument(
        "index join: filter bitmap size mismatch");
  }

  JoinStats stats;
  const size_t m = left.rows();
  if (m == 0) {
    sink->Finish();
    return stats;
  }

  // Left-shard resolution shares the sharded-merge rule so the planner's
  // quote (ShardedIndexJoinCost prices the same resolver) matches the
  // executed configuration. Each shard probes sequentially, so the
  // concurrent-probe cap bounds the shard count.
  const size_t workers =
      options.pool == nullptr
          ? 1
          : static_cast<size_t>(options.pool->num_threads()) + 1;
  size_t shards = ResolveShardCount(m, workers, options.shard_count,
                                    std::max<size_t>(options.min_shard_rows,
                                                     1));
  if (options.max_batched_probes != 0) {
    shards = std::min(shards, options.max_batched_probes);
  }

  WallTimer timer;
  const uint64_t probes_before = right_index.distance_computations();
  SinkFeed feed(sink);
  std::atomic<uint64_t> probed{0};

  auto probe_rows = [&](size_t row_begin, size_t row_end) {
    std::vector<JoinPair> local;
    uint64_t rows_done = 0;
    for (size_t i = row_begin; i < row_end; ++i) {
      if (feed.stopped()) break;
      std::vector<la::ScoredId> matches;
      if (condition.kind == JoinCondition::Kind::kTopK) {
        matches = right_index.SearchTopK(left.Row(i), condition.k,
                                         options.filter);
      } else {
        matches = right_index.SearchRange(left.Row(i), condition.threshold,
                                          options.filter);
      }
      ++rows_done;
      for (const auto& scored : matches) {
        local.push_back({static_cast<uint32_t>(i),
                         static_cast<uint32_t>(scored.id), scored.score});
      }
      feed.MaybeDeliver(&local);
    }
    feed.Deliver(&local);
    probed.fetch_add(rows_done, std::memory_order_relaxed);
  };

  // Every left row is probed wholly inside one shard, so the per-left-row
  // merge degenerates: shards stream straight through the one locked
  // sink and results are byte-identical across shard counts.
  auto run_shard = [&](size_t s) {
    if (feed.stopped()) return;
    probe_rows(m * s / shards, m * (s + 1) / shards);
  };

  if (options.pool != nullptr && shards > 1) {
    options.pool->ParallelForRange(
        0, shards,
        [&run_shard](size_t begin, size_t end) {
          for (size_t s = begin; s < end; ++s) run_shard(s);
        },
        1);
  } else {
    for (size_t s = 0; s < shards; ++s) run_shard(s);
  }

  stats.join_seconds = timer.ElapsedSeconds();
  stats.similarity_computations =
      right_index.distance_computations() - probes_before;
  stats.shards_used = shards;
  stats.index_probe_rows = probed.load(std::memory_order_relaxed);
  sink->Finish();
  return stats;
}

Result<JoinResult> IndexJoin(const la::Matrix& left,
                             const index::VectorIndex& right_index,
                             const JoinCondition& condition,
                             const IndexJoinOptions& options) {
  MaterializingSink sink;
  CEJ_ASSIGN_OR_RETURN(JoinStats stats,
                       IndexJoinToSink(left, right_index, condition, options,
                                       &sink));
  JoinResult result;
  result.pairs = sink.TakePairs();
  result.stats = stats;
  return result;
}

}  // namespace cej::join
