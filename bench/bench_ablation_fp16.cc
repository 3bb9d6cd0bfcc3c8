// Ablation: FP16 embedding storage (paper Section V.A.2) — the tensor
// join over FP32 vs FP16-stored embeddings. FP16 is an at-rest format:
// the FP16 column widens both stored matrices once (HalfMatrix::ToFloat,
// timed) and runs the same FP32 sweep, so it differs from FP32 only by
// the quantization of the inputs. Also reports the memory footprint
// ratio, the at-rest saving.

#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "cej/join/tensor_join.h"
#include "cej/la/half.h"
#include "cej/workload/generators.h"

int main() {
  using namespace cej;
  bench::PrintHeader("bench_ablation_fp16",
                     "Section V.A.2 (FP16 embedding storage)");

  struct Case {
    size_t m, n, dim;
  };
  const std::vector<Case> cases = {
      {2000, 2000, 100},
      {1000, 20000, 100},
      {1000, 20000, 256},
      {bench::Scaled(4000, 10000), bench::Scaled(4000, 10000), 100},
  };
  const auto condition = join::JoinCondition::Threshold(1.01f);

  std::printf("\n%-20s %5s %12s %12s %9s %12s\n", "|R| x |S|", "dim",
              "FP32[ms]", "FP16[ms]", "speedup", "mem ratio");
  for (const auto& c : cases) {
    la::Matrix left = workload::RandomUnitVectors(c.m, c.dim, 1);
    la::Matrix right = workload::RandomUnitVectors(c.n, c.dim, 2);
    la::HalfMatrix hleft = la::HalfMatrix::FromFloat(left);
    la::HalfMatrix hright = la::HalfMatrix::FromFloat(right);

    join::TensorJoinOptions options;
    options.pool = &bench::Pool();
    const double fp32_ms = bench::TimeMs([&] {
      auto r = join::TensorJoinMatrices(left, right, condition, options);
      CEJ_CHECK(r.ok());
    });
    const double fp16_ms = bench::TimeMs([&] {
      auto r = join::TensorJoinMatrices(hleft.ToFloat(), hright.ToFloat(),
                                        condition, options);
      CEJ_CHECK(r.ok());
    });
    char label[40];
    std::snprintf(label, sizeof(label), "%zu x %zu", c.m, c.n);
    std::printf("%-20s %5zu %12.1f %12.1f %8.2fx %11.2fx\n", label, c.dim,
                fp32_ms, fp16_ms, fp32_ms / fp16_ms,
                static_cast<double>(left.MemoryBytes() +
                                    right.MemoryBytes()) /
                    static_cast<double>(hleft.MemoryBytes() +
                                        hright.MemoryBytes()));
  }
  std::printf(
      "# shape check: FP16 halves the embedding footprint (mem ratio 2x). "
      "Runtime: FP16 pays one widening pass over |R| + |S| rows on top of "
      "the FP32 sweep, so its speedup stays near 1x; the sweep itself "
      "never runs on half-width data.\n");
  return 0;
}
