// Figure 14: "Tensor join vs. NLJ formulation, 100-D, 48 threads." —
// end-to-end execution time of the two scan-based formulations across
// growing input sizes (paper: 10k x 10k ... 1M x 1M, where NLJ at
// 1M x 1M times out beyond 40 minutes), extended with the layers this
// repo adds on top of the figure:
//
//   [1] the original tensor-vs-NLJ sweep over prefetched matrices;
//   [2] EmbedBatch throughput, sequential vs pool-parallel;
//   [3] end-to-end string joins through the Engine for the scan-family
//       operators, with a NON-OVERLAPPING time breakdown: embed[ms] +
//       join[ms] components sum to (at most) the end-to-end wall;
//   [4] cold vs warm embedding-cache runs of the same query;
//   [5] the tensor sweep's right-shard layout across shard counts on
//       one prefetched matrix join (whole-right-relation parallelism vs
//       the left-tile layout of the `tensor` operator).
//
// Expected shape: [1] tensor ~an order of magnitude faster, both linear
// in |R|*|S|; [2] parallel embedding scales with cores; [3] tensor <
// prefetch_nlj end-to-end, both paying |R| + |S| model calls; [4] warm
// runs report zero model calls and drop the embedding term entirely; [5]
// sharded time falls with shard count until the pool saturates,
// identical pair counts throughout.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "cej/api/engine.h"
#include "cej/common/cpu_info.h"
#include "cej/join/nlj_prefetch.h"
#include "cej/join/tensor_join.h"
#include "cej/model/subword_hash_model.h"
#include "cej/workload/generators.h"

namespace {

using namespace cej;

constexpr size_t kDim = 100;

storage::Relation WordsRelation(const std::vector<std::string>& words) {
  auto schema = storage::Schema::Create(
      {{"word", storage::DataType::kString, 0}});
  CEJ_CHECK(schema.ok());
  std::vector<storage::Column> columns;
  columns.push_back(storage::Column::String(words));
  auto rel = storage::Relation::Create(std::move(schema).value(),
                                       std::move(columns));
  CEJ_CHECK(rel.ok());
  return std::move(rel).value();
}

// [1] The original figure: tensor vs NLJ over prefetched matrices.
void BenchMatrixFormulations() {
  struct Case {
    size_t m, n;
    bool run_nlj;
  };
  std::vector<Case> cases;
  if (bench::FullScale()) {
    cases = {{10000, 10000, true},
             {100000, 10000, true},
             {100000, 100000, true},
             {1000000, 100000, true},
             {1000000, 1000000, false}};  // NLJ times out.
  } else if (bench::SmokeScale()) {
    cases = {{500, 500, true}, {2000, 1000, true}};
  } else {
    cases = {{1000, 1000, true},
             {10000, 1000, true},
             {10000, 10000, true},
             {30000, 10000, true},
             {100000, 30000, false}};
  }

  const auto condition = join::JoinCondition::Threshold(0.95f);
  std::printf("\n[1] tensor vs NLJ, prefetched matrices\n");
  std::printf("%-20s %14s %14s %10s\n", "|R| x |S|", "Tensor[ms]",
              "NLJ[ms]", "speedup");
  for (const auto& c : cases) {
    la::Matrix left = workload::RandomUnitVectors(c.m, kDim, 1);
    la::Matrix right = workload::RandomUnitVectors(c.n, kDim, 2);

    join::TensorJoinOptions tensor_options;
    tensor_options.pool = &bench::Pool();
    tensor_options.shard_count = 1;  // Left tiles, as the figure measures.
    const double tensor_ms = bench::TimeMs([&] {
      auto r =
          join::TensorJoinMatrices(left, right, condition, tensor_options);
      CEJ_CHECK(r.ok());
    });

    double nlj_ms = -1.0;
    if (c.run_nlj) {
      join::NljOptions nlj_options;
      nlj_options.pool = &bench::Pool();
      nlj_ms = bench::TimeMs([&] {
        auto r = join::NljJoinMatrices(left, right, condition, nlj_options);
        CEJ_CHECK(r.ok());
      });
    }

    char label[40];
    std::snprintf(label, sizeof(label), "%zu x %zu", c.m, c.n);
    if (c.run_nlj) {
      std::printf("%-20s %14.1f %14.1f %9.2fx\n", label, tensor_ms, nlj_ms,
                  nlj_ms / tensor_ms);
    } else {
      std::printf("%-20s %14.1f %14s %10s\n", label, tensor_ms,
                  "(timeout)", "-");
    }
  }
}

// [2] Batch embedding: sequential loop vs pool-parallel chunks.
void BenchEmbedBatch(const model::SubwordHashModel& model) {
  const size_t n = bench::SmokeScale() ? 2000 : bench::Scaled(30000, 200000);
  auto words = workload::RandomStrings(n, 6, 14, 11);

  const double seq_ms =
      bench::TimeMs([&] { auto m = model.EmbedBatch(words); });
  const double par_ms = bench::TimeMs(
      [&] { auto m = model.EmbedBatch(words, &bench::Pool()); });
  std::printf("\n[2] EmbedBatch, %zu strings, dim %zu, %d threads\n", n,
              model.dim(), bench::Pool().num_threads());
  std::printf("%-24s %12.1f ms\n", "sequential", seq_ms);
  std::printf("%-24s %12.1f ms  (%.2fx)\n", "parallel", par_ms,
              seq_ms / par_ms);
}

struct E2eCase {
  size_t m, n;
};

struct E2eRun {
  double ms = 0.0;
  uint64_t model_calls = 0;
  join::JoinStats join_stats;
};

// One cold end-to-end string join through the Engine streaming surface.
E2eRun RunE2e(const std::vector<std::string>& left_words,
              const std::vector<std::string>& right_words,
              const model::SubwordHashModel& model, const char* op) {
  Engine::Options options;
  options.num_threads = CpuInfo::HardwareThreads();
  Engine engine(options);
  CEJ_CHECK(engine.RegisterTable("l", WordsRelation(left_words)).ok());
  CEJ_CHECK(engine.RegisterTable("r", WordsRelation(right_words)).ok());
  CEJ_CHECK(engine.RegisterModel("m", &model).ok());

  plan::ExecStats stats;
  E2eRun run;
  run.ms = bench::TimeMs([&] {
    join::CountingSink sink;
    auto builder = engine.Query("l").EJoin(
        "r", "word", join::JoinCondition::Threshold(0.8f));
    auto result = builder.Via(op).Stream(&sink, &stats);
    CEJ_CHECK(result.ok());
  });
  run.model_calls = stats.model_calls;
  run.join_stats = stats.join_stats;
  return run;
}

// [3] End-to-end string joins: the scan-family operators, with a
// NON-OVERLAPPING component breakdown. embed[ms] + join[ms] add up to
// (at most) the e2e wall.
void BenchE2eOperators(const model::SubwordHashModel& model) {
  std::vector<E2eCase> cases;
  if (bench::FullScale()) {
    cases = {{1000, 300000}, {10000, 300000}, {100000, 300000}};
  } else if (bench::SmokeScale()) {
    cases = {{100, 2000}};
  } else {
    // Spans embed-dominant (small |R|) to sweep-dominant (large |R|).
    cases = {{200, 30000}, {2000, 30000}, {10000, 30000}};
  }

  std::printf(
      "\n[3] end-to-end string join, dim %zu, threshold 0.8, cold cache\n",
      model.dim());
  std::printf("%-16s %-18s %10s %10s %10s %10s\n", "|R| x |S|", "operator",
              "e2e[ms]", "embed[ms]", "join[ms]", "calls");
  for (const auto& c : cases) {
    auto left_words = workload::RandomStrings(c.m, 6, 14, 21);
    auto right_words = workload::RandomStrings(c.n, 6, 14, 22);
    char label[40];
    std::snprintf(label, sizeof(label), "%zu x %zu", c.m, c.n);
    for (const char* op : {"prefetch_nlj", "tensor"}) {
      const E2eRun run = RunE2e(left_words, right_words, model, op);
      std::printf("%-16s %-18s %10.1f %10.1f %10.1f %10llu\n", label, op,
                  run.ms, run.join_stats.embed_seconds * 1e3,
                  run.join_stats.join_seconds * 1e3,
                  static_cast<unsigned long long>(run.model_calls));
      // The component sum must never exceed the measured wall.
      CEJ_CHECK(run.join_stats.embed_seconds + run.join_stats.join_seconds <=
                run.ms / 1e3 * 1.05 + 1e-3);
      // Each side is embedded exactly once on a cold cache.
      CEJ_CHECK(run.model_calls == c.m + c.n);
    }
  }
}

// [4] The embedding cache: the same query, cold then warm.
void BenchColdWarmCache(const model::SubwordHashModel& model) {
  const size_t m = bench::SmokeScale() ? 200 : bench::Scaled(5000, 100000);
  const size_t n = bench::SmokeScale() ? 1000 : bench::Scaled(30000, 300000);
  auto left_words = workload::RandomStrings(m, 6, 14, 31);
  auto right_words = workload::RandomStrings(n, 6, 14, 32);

  Engine::Options options;
  options.num_threads = CpuInfo::HardwareThreads();
  Engine engine(options);
  CEJ_CHECK(engine.RegisterTable("l", WordsRelation(left_words)).ok());
  CEJ_CHECK(engine.RegisterTable("r", WordsRelation(right_words)).ok());
  CEJ_CHECK(engine.RegisterModel("m", &model).ok());

  std::printf("\n[4] embedding cache, %zu x %zu, tensor operator\n", m, n);
  std::printf("%-10s %12s %14s %12s %12s\n", "run", "time[ms]",
              "model_calls", "cache_hits", "cache_miss");
  for (const char* label : {"cold", "warm", "warm"}) {
    QueryResult result;
    const double ms = bench::TimeMs([&] {
      auto r = engine.Query("l")
                   .EJoin("r", "word", join::JoinCondition::Threshold(0.8f))
                   .Via("tensor")
                   .Execute();
      CEJ_CHECK(r.ok());
      result = std::move(*r);
    });
    std::printf("%-10s %12.1f %14llu %12llu %12llu\n", label, ms,
                static_cast<unsigned long long>(result.stats.model_calls),
                static_cast<unsigned long long>(
                    result.stats.embedding_cache_hits),
                static_cast<unsigned long long>(
                    result.stats.embedding_cache_misses));
    CEJ_CHECK(std::string(label) != "warm" ||
              result.stats.model_calls == 0);  // Warm = zero model calls.
  }
}

// [5] The tensor sweep by shard count: one prefetched matrix join swept
// in left tiles (shard_count 1) and at growing right-shard counts. Shards
// parallelize over the RIGHT relation, so the sweep keeps scaling even
// when |R| is below one left tile (where left-tile parallelism starves).
void BenchShardSweep() {
  const size_t m = bench::SmokeScale() ? 300 : bench::Scaled(192, 192);
  const size_t n = bench::SmokeScale() ? 4000 : bench::Scaled(120000, 600000);
  la::Matrix left = workload::RandomUnitVectors(m, kDim, 51);
  la::Matrix right = workload::RandomUnitVectors(n, kDim, 52);
  // Top-k: the condition that exercises the sharded per-left-row collector
  // merge (a threshold join streams pairs without a merge pass).
  const auto condition = join::JoinCondition::TopK(8);

  std::printf("\n[5] tensor sweep by shard count, %zu x %zu, dim %zu, "
              "%d threads\n",
              m, n, kDim, bench::Pool().num_threads());
  std::printf("%-24s %12s %10s %12s\n", "configuration", "time[ms]",
              "speedup", "pairs");
  double left_tiles_ms = 0.0;
  size_t left_tiles_pairs = 0;
  for (size_t shard_count : {size_t{1}, size_t{2}, size_t{4}, size_t{8},
                             size_t{0}}) {
    join::TensorJoinOptions options;
    options.pool = &bench::Pool();
    options.shard_count = shard_count;
    join::CountingSink sink;
    size_t shards_used = 0;
    const double ms = bench::TimeMs([&] {
      auto r = join::TensorSweepToSink(left, right, condition, options, &sink);
      CEJ_CHECK(r.ok());
      shards_used = r->shards_used;
    });
    if (shard_count == 1) {
      left_tiles_ms = ms;
      left_tiles_pairs = sink.count();
    }
    char label[40];
    if (shards_used == 0) {
      std::snprintf(label, sizeof(label), "left tiles%s",
                    shard_count == 0 ? " (auto)" : "");
    } else {
      std::snprintf(label, sizeof(label), "sharded x%zu%s", shards_used,
                    shard_count == 0 ? " (auto)" : "");
    }
    // Sharding must never change the result, only the wall time.
    CEJ_CHECK(sink.count() == left_tiles_pairs);
    std::printf("%-24s %12.1f %9.2fx %12llu\n", label, ms,
                left_tiles_ms / ms,
                static_cast<unsigned long long>(sink.count()));
  }
}

}  // namespace

int main() {
  bench::PrintHeader("bench_fig14_tensor_vs_nlj_e2e",
                     "Figure 14 (tensor vs NLJ end-to-end) + embedding "
                     "pipeline extensions");
  model::SubwordHashModel model;  // dim 100, the paper's configuration.

  BenchMatrixFormulations();
  BenchEmbedBatch(model);
  BenchE2eOperators(model);
  BenchColdWarmCache(model);
  BenchShardSweep();

  std::printf(
      "\n# shape check: [1] tensor ~an order of magnitude faster; "
      "[2] parallel EmbedBatch scales with cores; [3] tensor < prefetch_nlj, "
      "embed+join components never exceed the wall; [4] warm runs report zero model calls; [5] sharded "
      "speedup grows with shards until the pool saturates, pair counts "
      "identical.\n");
  return 0;
}
