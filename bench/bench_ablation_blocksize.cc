// Ablation: GEMM/tensor-join tile-size sweep (google-benchmark).
//
// The paper's batching and mini-batch results (Figs 12/13) show tile shape
// as the knob that turns the NLJ into a cache-efficient kernel; this
// ablation quantifies the sensitivity so the defaults in TensorJoinOptions
// are evidence-based.

#include <benchmark/benchmark.h>

#include "cej/join/tensor_join.h"
#include "cej/workload/generators.h"

namespace {

using cej::join::JoinCondition;
using cej::join::TensorJoinMatrices;
using cej::join::TensorJoinOptions;

void BM_TensorJoinBlockSize(benchmark::State& state) {
  const size_t n = 2000, dim = 100;
  static const cej::la::Matrix& left =
      *new cej::la::Matrix(cej::workload::RandomUnitVectors(n, dim, 1));
  static const cej::la::Matrix& right =
      *new cej::la::Matrix(cej::workload::RandomUnitVectors(n, dim, 2));

  TensorJoinOptions options;
  options.batch_rows_left = static_cast<size_t>(state.range(0));
  options.batch_rows_right = static_cast<size_t>(state.range(1));
  for (auto _ : state) {
    auto r = TensorJoinMatrices(left, right, JoinCondition::Threshold(0.95f),
                                options);
    benchmark::DoNotOptimize(r);
  }
  state.counters["pairs/s"] = benchmark::Counter(
      static_cast<double>(n) * n * state.iterations(),
      benchmark::Counter::kIsRate);
}

}  // namespace

BENCHMARK(BM_TensorJoinBlockSize)
    ->ArgsProduct({{1, 16, 64, 128, 512}, {64, 256, 2048, 2000}})
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
