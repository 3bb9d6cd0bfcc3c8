#include "cej/join/index_join.h"

#include <atomic>

#include "cej/common/timer.h"
#include "cej/join/join_sink.h"
#include "cej/join/tensor_join.h"

namespace cej::join {

size_t ResolveProbeShardCount(size_t left_rows, size_t workers,
                              size_t pinned_shard_count) {
  return ResolveShardCount(left_rows, workers, pinned_shard_count,
                           kMinProbeShardRows);
}

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

  // The quote prices the same resolver, so it matches the executed
  // configuration.
  const size_t workers =
      options.pool == nullptr
          ? 1
          : static_cast<size_t>(options.pool->num_threads()) + 1;
  const size_t shards =
      ResolveProbeShardCount(m, workers, options.shard_count);

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
