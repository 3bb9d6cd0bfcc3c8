#include "cej/join/join_common.h"

#include <algorithm>
#include <cmath>

namespace cej::join {

JoinStats& JoinStats::operator+=(const JoinStats& other) {
  model_calls += other.model_calls;
  similarity_computations += other.similarity_computations;
  peak_buffer_bytes = std::max(peak_buffer_bytes, other.peak_buffer_bytes);
  embed_seconds += other.embed_seconds;
  join_seconds += other.join_seconds;
  embed_overlapped_seconds += other.embed_overlapped_seconds;
  shards_used = std::max(shards_used, other.shards_used);
  index_probe_rows += other.index_probe_rows;
  return *this;
}

JoinStats operator+(JoinStats lhs, const JoinStats& rhs) {
  lhs += rhs;
  return lhs;
}

void SortPairs(std::vector<JoinPair>* pairs) {
  std::sort(pairs->begin(), pairs->end(),
            [](const JoinPair& a, const JoinPair& b) {
              if (a.left != b.left) return a.left < b.left;
              return a.right < b.right;
            });
}

Status ValidateJoinDims(size_t left_dim, size_t right_dim) {
  if (left_dim == 0 || right_dim == 0) {
    return Status::InvalidArgument("E-join: zero-dimensional embeddings");
  }
  if (left_dim != right_dim) {
    return Status::InvalidArgument(
        "E-join: embedding dimensionality mismatch (" +
        std::to_string(left_dim) + " vs " + std::to_string(right_dim) +
        "); both sides must use the same model mu");
  }
  return Status::OK();
}

Status ValidateJoinInputs(const la::Matrix& left, const la::Matrix& right) {
  return ValidateJoinDims(left.cols(), right.cols());
}

Status ValidateJoinCondition(const JoinCondition& condition) {
  if (condition.kind == JoinCondition::Kind::kTopK && condition.k == 0) {
    return Status::InvalidArgument("E-join: top-k condition with k == 0");
  }
  if (condition.kind == JoinCondition::Kind::kThreshold &&
      std::isnan(condition.threshold)) {
    return Status::InvalidArgument("E-join: threshold is NaN");
  }
  return Status::OK();
}

}  // namespace cej::join
