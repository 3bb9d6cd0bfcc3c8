// Figure 12: "The impact of vector batching. Non-batched indicates that
// one of the join inputs is processed one vector at a time." — the tensor
// formulation with both sides fully batched vs the left side streamed
// vector-by-vector (batch_rows_left = 1), same grid as Figure 11.
//
// Expected shape: indistinguishable at tiny inputs; fully-batched pulls
// ahead as input grows (amortized kernel invocations + cache reuse).

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "cej/join/tensor_join.h"
#include "cej/workload/generators.h"

int main() {
  using namespace cej;
  bench::PrintHeader("bench_fig12_batching",
                     "Figure 12 (fully-batched vs non-batched tensor)");

  const std::vector<double> op_counts = {25600, 2560000, 256000000};
  const std::vector<size_t> dims = {1, 4, 16, 64, 256};
  // Unreachable threshold: isolates compute cost (see Figure 11 bench).
  const auto condition = join::JoinCondition::Threshold(1.01f);

  std::printf("\n%12s %6s %8s %22s %22s\n", "#FP32 ops", "dim", "tuples",
              "Fully-Batched [ns/e]", "Non-Batched [ns/e]");
  for (double ops : op_counts) {
    for (size_t dim : dims) {
      const size_t tuples =
          static_cast<size_t>(std::sqrt(ops / static_cast<double>(dim)));
      if (tuples == 0) continue;
      const int reps = ops >= 1e8 ? 1 : 3;
      la::Matrix left = workload::RandomUnitVectors(tuples, dim, 1);
      la::Matrix right = workload::RandomUnitVectors(tuples, dim, 2);
      const double elems = static_cast<double>(tuples) * tuples * dim;

      join::TensorJoinOptions batched;
      batched.pool = &bench::Pool();
      batched.shard_count = 1;  // Left tiles: the batch height is measured.
      double batched_ms = 1e300;
      for (int r = 0; r < reps; ++r) {
        batched_ms = std::min(batched_ms, bench::TimeMs([&] {
          auto res =
              join::TensorJoinMatrices(left, right, condition, batched);
          CEJ_CHECK(res.ok());
        }));
      }

      join::TensorJoinOptions non_batched;
      non_batched.pool = &bench::Pool();
      non_batched.shard_count = 1;
      non_batched.batch_rows_left = 1;  // One vector at a time.
      double non_batched_ms = 1e300;
      for (int r = 0; r < reps; ++r) {
        non_batched_ms = std::min(non_batched_ms, bench::TimeMs([&] {
          auto res =
              join::TensorJoinMatrices(left, right, condition, non_batched);
          CEJ_CHECK(res.ok());
        }));
      }

      std::printf("%12.0f %6zu %8zu %22.3f %22.3f\n", ops, dim, tuples,
                  batched_ms * 1e6 / elems, non_batched_ms * 1e6 / elems);
    }
  }
  std::printf(
      "# shape check: batching matters more as input grows; the gap is "
      "negligible at the smallest op counts.\n");
  return 0;
}
