#include "cej/join/nlj_prefetch.h"

#include <atomic>

#include "cej/common/timer.h"
#include "cej/join/join_sink.h"
#include "cej/la/topk.h"

namespace cej::join {
namespace {

// Threshold NLJ over matrices with the requested loop order. Parallelism is
// over the outer relation; each worker streams a local buffer into the
// sink feed and polls the stop flag between outer rows.
void ThresholdNlj(const la::Matrix& outer, const la::Matrix& inner,
                  float threshold, bool swapped, const NljOptions& options,
                  SinkFeed* feed, std::atomic<uint64_t>* sims) {
  const size_t dim = outer.cols();
  auto run_rows = [&](size_t row_begin, size_t row_end) {
    std::vector<JoinPair> local;
    for (size_t i = row_begin; i < row_end; ++i) {
      if (feed->stopped()) break;
      const float* outer_vec = outer.Row(i);
      for (size_t j = 0; j < inner.rows(); ++j) {
        const float sim =
            la::Dot(outer_vec, inner.Row(j), dim, options.simd);
        if (sim >= threshold) {
          const uint32_t l = static_cast<uint32_t>(swapped ? j : i);
          const uint32_t r = static_cast<uint32_t>(swapped ? i : j);
          local.push_back({l, r, sim});
          // Flush inside the inner loop too: one low-threshold outer row
          // can match all of |S|, and chunked emission must hold then.
          feed->MaybeDeliver(&local);
        }
      }
      sims->fetch_add(inner.rows(), std::memory_order_relaxed);
      feed->MaybeDeliver(&local);
    }
    feed->Deliver(&local);
  };
  if (options.pool != nullptr) {
    options.pool->ParallelForRange(0, outer.rows(), run_rows);
  } else {
    run_rows(0, outer.rows());
  }
}

// Top-k per left row. Parallelism over left rows: each row's collector is
// owned by exactly one worker, so no synchronization beyond sink delivery.
void TopKNlj(const la::Matrix& left, const la::Matrix& right, size_t k,
             const NljOptions& options, SinkFeed* feed,
             std::atomic<uint64_t>* sims) {
  const size_t dim = left.cols();
  auto run_rows = [&](size_t row_begin, size_t row_end) {
    std::vector<JoinPair> local;
    for (size_t i = row_begin; i < row_end; ++i) {
      if (feed->stopped()) break;
      la::TopKCollector collector(k);
      const float* left_vec = left.Row(i);
      for (size_t j = 0; j < right.rows(); ++j) {
        collector.Push(la::Dot(left_vec, right.Row(j), dim, options.simd),
                       j);
      }
      for (const auto& scored : collector.TakeSorted()) {
        local.push_back({static_cast<uint32_t>(i),
                         static_cast<uint32_t>(scored.id), scored.score});
      }
      sims->fetch_add(right.rows(), std::memory_order_relaxed);
      feed->MaybeDeliver(&local);
    }
    feed->Deliver(&local);
  };
  if (options.pool != nullptr) {
    options.pool->ParallelForRange(0, left.rows(), run_rows);
  } else {
    run_rows(0, left.rows());
  }
}

}  // namespace

Result<JoinStats> NljJoinMatricesToSink(const la::Matrix& left,
                                        const la::Matrix& right,
                                        const JoinCondition& condition,
                                        const NljOptions& options,
                                        JoinSink* sink) {
  CEJ_RETURN_IF_ERROR(ValidateJoinInputs(left, right));
  CEJ_RETURN_IF_ERROR(ValidateJoinCondition(condition));
  JoinStats stats;
  WallTimer timer;
  SinkFeed feed(sink);
  std::atomic<uint64_t> sims{0};
  switch (condition.kind) {
    case JoinCondition::Kind::kThreshold: {
      // Loop-order heuristic applies to the symmetric threshold condition:
      // keep the smaller relation inner for cache locality (Section V.A).
      const bool swap = options.loop_order == LoopOrder::kSmallerInner &&
                        left.rows() < right.rows();
      const la::Matrix& outer = swap ? right : left;
      const la::Matrix& inner = swap ? left : right;
      ThresholdNlj(outer, inner, condition.threshold, swap, options, &feed,
                   &sims);
      break;
    }
    case JoinCondition::Kind::kTopK:
      TopKNlj(left, right, condition.k, options, &feed, &sims);
      break;
  }
  stats.join_seconds = timer.ElapsedSeconds();
  stats.similarity_computations = sims.load(std::memory_order_relaxed);
  sink->Finish();
  return stats;
}

Result<JoinResult> NljJoinMatrices(const la::Matrix& left,
                                   const la::Matrix& right,
                                   const JoinCondition& condition,
                                   const NljOptions& options) {
  MaterializingSink sink;
  CEJ_ASSIGN_OR_RETURN(
      JoinStats stats,
      NljJoinMatricesToSink(left, right, condition, options, &sink));
  JoinResult result;
  result.pairs = sink.TakePairs();
  result.stats = stats;
  return result;
}

}  // namespace cej::join
