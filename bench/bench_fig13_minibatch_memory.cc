// Figure 13: "Batch size impact on memory requirements and execution
// time." — the tensor join over an N x N, 100-D input run with shrinking
// mini-batch shapes; reports relative slowdown and relative decrease of
// required intermediate RAM, both against the No-Batch configuration.
//
// Expected shape: RAM drops by orders of magnitude with small batches
// while the slowdown stays within a small constant factor.

#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "cej/join/tensor_join.h"
#include "cej/workload/generators.h"

int main() {
  using namespace cej;
  bench::PrintHeader("bench_fig13_minibatch_memory",
                     "Figure 13 (mini-batch memory/time trade-off)");

  // Paper: 100k x 100k (the No-Batch intermediate would be 40 GB); laptop
  // scale uses 8k x 8k (256 MB No-Batch buffer).
  const size_t n = bench::Scaled(8000, 100000);
  const size_t dim = 100;
  la::Matrix left = workload::RandomUnitVectors(n, dim, 1);
  la::Matrix right = workload::RandomUnitVectors(n, dim, 2);
  const auto condition = join::JoinCondition::Threshold(0.95f);

  // Mini-batch grid mirroring the paper's ratios (fractions of N).
  struct BatchCase {
    const char* label;
    size_t bl, br;
  };
  const std::vector<BatchCase> cases = {
      {"No Batch", n, n},
      {"N/2 x N/2", n / 2, n / 2},
      {"N x N/10", n, n / 10},
      {"N/10 x N/2", n / 10, n / 2},
      {"N/20 x N/2", n / 20, n / 2},
      {"N/10 x N/10", n / 10, n / 10},
      {"N/10 x N/20", n / 10, n / 20},
      {"N/20 x N/20", n / 20, n / 20},
  };

  double base_ms = 0.0;
  size_t base_bytes = 0;
  std::printf("\n%-14s %12s %14s %14s %16s\n", "mini-batch", "time[ms]",
              "buffer[MB]", "rel.slowdown", "rel.RAM.decrease");
  for (const auto& c : cases) {
    join::TensorJoinOptions options;
    options.pool = &bench::Pool();
    options.shard_count = 1;  // Left tiles: one buffer per worker.
    options.batch_rows_left = c.bl;
    options.batch_rows_right = c.br;
    size_t peak_bytes = 0;
    const double ms = bench::TimeMs([&] {
      auto r = join::TensorJoinMatrices(left, right, condition, options);
      CEJ_CHECK(r.ok());
      peak_bytes = r->stats.peak_buffer_bytes;
    });
    if (base_ms == 0.0) {
      base_ms = ms;
      base_bytes = peak_bytes;
    }
    std::printf("%-14s %12.1f %14.2f %13.2fx %15.1fx\n", c.label, ms,
                peak_bytes / (1024.0 * 1024.0), ms / base_ms,
                static_cast<double>(base_bytes) /
                    static_cast<double>(peak_bytes));
  }
  std::printf(
      "# shape check: RAM decrease reaches orders of magnitude at small "
      "batches while the slowdown stays modest (paper: negligible).\n");
  return 0;
}
