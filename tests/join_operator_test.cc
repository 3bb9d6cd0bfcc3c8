// Tests for the polymorphic join-operator layer: the registry, operator
// traits and pricing, JoinInputs validation (identical error text across
// operators), the streaming JoinSink contract (chunking, bounds, early
// termination), and the JoinStats merge helper.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <mutex>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cej/common/thread_pool.h"
#include "cej/index/flat_index.h"
#include "cej/join/join_operator.h"
#include "cej/join/join_sink.h"
#include "cej/join/tensor_join.h"
#include "cej/la/simd.h"
#include "cej/model/subword_hash_model.h"
#include "cej/workload/generators.h"

namespace cej::join {
namespace {

// ---------------------------------------------------------------------------
// JoinStats merge helper
// ---------------------------------------------------------------------------

TEST(JoinStatsTest, MergeAccumulatesCountsAndMaxesBuffers) {
  JoinStats a;
  a.model_calls = 10;
  a.similarity_computations = 100;
  a.peak_buffer_bytes = 512;
  a.embed_seconds = 1.5;
  a.join_seconds = 0.5;
  JoinStats b;
  b.model_calls = 5;
  b.similarity_computations = 50;
  b.peak_buffer_bytes = 1024;
  b.embed_seconds = 0.25;
  b.join_seconds = 2.0;

  a.embed_overlapped_seconds = 0.125;
  a.shards_used = 4;
  b.embed_overlapped_seconds = 0.5;
  b.shards_used = 2;

  a += b;
  EXPECT_EQ(a.model_calls, 15u);
  EXPECT_EQ(a.similarity_computations, 150u);
  EXPECT_EQ(a.peak_buffer_bytes, 1024u);  // max, not sum
  EXPECT_DOUBLE_EQ(a.embed_seconds, 1.75);
  EXPECT_DOUBLE_EQ(a.join_seconds, 2.5);
  EXPECT_DOUBLE_EQ(a.embed_overlapped_seconds, 0.625);
  EXPECT_EQ(a.shards_used, 4u);  // max, not sum

  const JoinStats c = a + b;
  EXPECT_EQ(c.model_calls, 20u);
  EXPECT_EQ(c.peak_buffer_bytes, 1024u);
}

// ---------------------------------------------------------------------------
// Shared validation
// ---------------------------------------------------------------------------

TEST(ValidationTest, DimMismatchTextIsIdenticalAcrossOperators) {
  // Every operator must report the same message for mismatched dims —
  // the tensor sweep and the index-backed probe alike.
  const Status direct = ValidateJoinDims(8, 16);
  ASSERT_FALSE(direct.ok());

  la::Matrix left = workload::RandomUnitVectors(4, 8, 1);
  la::Matrix right = workload::RandomUnitVectors(4, 16, 2);
  auto tensor = TensorJoinMatrices(left, right,
                                   JoinCondition::Threshold(0.5f));
  EXPECT_EQ(tensor.status(), direct);

  index::FlatIndex flat(right.Clone());
  JoinInputs inputs;
  inputs.left_vectors = &left;
  inputs.right_index = &flat;
  auto& registry = JoinOperatorRegistry::Global();
  MaterializingSink sink;
  auto probe = (*registry.Find("index"))
                   ->Run(inputs, JoinCondition::Threshold(0.5f), {}, &sink);
  EXPECT_EQ(probe.status(), direct);
}

TEST(ValidationTest, ZeroKTopKRejectedEverywhere) {
  la::Matrix vecs = workload::RandomUnitVectors(4, 8, 3);
  const Status expected = ValidateJoinCondition(JoinCondition::TopK(0));
  ASSERT_FALSE(expected.ok());
  auto& registry = JoinOperatorRegistry::Global();
  for (const char* name : {"prefetch_nlj", "tensor"}) {
    JoinInputs inputs;
    inputs.left_vectors = &vecs;
    inputs.right_vectors = &vecs;
    MaterializingSink sink;
    auto result = (*registry.Find(name))
                      ->Run(inputs, JoinCondition::TopK(0), {}, &sink);
    EXPECT_EQ(result.status(), expected) << name;
  }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(RegistryTest, GlobalHoldsTheFourBuiltins) {
  auto& registry = JoinOperatorRegistry::Global();
  for (const char* name : {"naive_nlj", "prefetch_nlj", "tensor", "index"}) {
    auto op = registry.Find(name);
    ASSERT_TRUE(op.ok()) << name;
    EXPECT_EQ((*op)->Name(), name);
  }
  EXPECT_EQ(registry.operators().size(), 4u);
  // The tensor sweep's splits are not registered operators.
  for (const char* name : {"sharded_tensor", "pipelined_tensor"}) {
    EXPECT_EQ(registry.Find(name).status().code(), StatusCode::kNotFound)
        << name;
  }
}

TEST(RegistryTest, UnknownNameListsRegisteredOperators) {
  auto result = JoinOperatorRegistry::Global().Find("sharded");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_NE(result.status().message().find("tensor"), std::string::npos);
}

TEST(RegistryTest, DuplicateRegistrationFails) {
  JoinOperatorRegistry registry;
  ASSERT_TRUE(registry.Register(MakeTensorOperator()).ok());
  auto dup = registry.Register(MakeTensorOperator());
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);
}

TEST(RegistryTest, TraitsDescribeTheBuiltins) {
  auto& registry = JoinOperatorRegistry::Global();
  EXPECT_TRUE((*registry.Find("naive_nlj"))->Traits().needs_strings);
  EXPECT_FALSE((*registry.Find("naive_nlj"))->Traits().supports_topk);
  EXPECT_TRUE((*registry.Find("tensor"))->Traits().needs_vectors);
  EXPECT_TRUE((*registry.Find("index"))->Traits().needs_index);
  EXPECT_FALSE((*registry.Find("index"))->Traits().exact);
}

// ---------------------------------------------------------------------------
// Pricing
// ---------------------------------------------------------------------------

TEST(PricingTest, OperatorOrderingMatchesThePaper) {
  auto& registry = JoinOperatorRegistry::Global();
  JoinWorkload w;
  w.left_rows = 10000;
  w.right_rows = 10000;
  w.condition = JoinCondition::Threshold(0.9f);
  CostParams p;
  const double naive = (*registry.Find("naive_nlj"))->EstimateCost(w, p);
  const double prefetch =
      (*registry.Find("prefetch_nlj"))->EstimateCost(w, p);
  const double tensor = (*registry.Find("tensor"))->EstimateCost(w, p);
  EXPECT_LT(tensor, prefetch);
  EXPECT_LT(prefetch, naive);
}

TEST(PricingTest, IndexOperatorIsInfiniteWithoutAnIndex) {
  auto& registry = JoinOperatorRegistry::Global();
  JoinWorkload w;
  w.left_rows = 100;
  w.right_rows = 100000;
  w.index_available = false;
  EXPECT_TRUE(std::isinf(
      (*registry.Find("index"))->EstimateCost(w, CostParams{})));
  w.index_available = true;
  EXPECT_TRUE(std::isfinite(
      (*registry.Find("index"))->EstimateCost(w, CostParams{})));
}

TEST(PricingTest, EveryBuiltinQuotesThroughItsFeatures) {
  // One pricing rule: each built-in's quote IS its feature decomposition
  // priced by PriceFeatures, and +infinity exactly when the features say
  // the operator cannot serve the workload.
  auto& registry = JoinOperatorRegistry::Global();
  CostParams scaling_lossy;
  scaling_lossy.parallel_efficiency = 0.7;
  size_t finite = 0, infinite = 0;
  for (const char* name : {"naive_nlj", "prefetch_nlj", "tensor", "index"}) {
    const JoinOperator* op = *registry.Find(name);
    for (const CostParams& p : {CostParams{}, scaling_lossy})
    for (const JoinCondition& condition :
         {JoinCondition::TopK(1), JoinCondition::TopK(8),
          JoinCondition::Threshold(0.9f)})
    for (size_t right_rows : {size_t{500}, size_t{100000}})
    for (bool right_cached : {false, true})
    for (size_t pool_threads : {size_t{1}, size_t{5}})
    for (bool index : {false, true}) {
      JoinWorkload w;
      w.left_rows = 240;
      w.right_rows = right_rows;
      w.dim = 64;
      w.right_selectivity = 0.5;
      w.condition = condition;
      w.right_embed_cached = right_cached;
      w.pool_threads = pool_threads;
      w.index_available = index;
      const CostFeatures f = FeaturesForOperator(name, w, p);
      const double quote = op->EstimateCost(w, p);
      EXPECT_EQ(std::isinf(quote), !f.eligible) << name;
      if (std::isfinite(quote)) {
        EXPECT_EQ(quote, PriceFeatures(f, p)) << name;
        ++finite;
      } else {
        ++infinite;
      }
    }
  }
  // The grid reaches both sides of every eligibility rule.
  EXPECT_GT(finite, 0u);
  EXPECT_GT(infinite, 0u);
}

// ---------------------------------------------------------------------------
// Operators through the uniform interface
// ---------------------------------------------------------------------------

class OperatorRunTest : public ::testing::Test {
 protected:
  void SetUp() override {
    left_ = workload::RandomUnitVectors(60, 24, 11);
    right_ = workload::RandomUnitVectors(80, 24, 12);
  }
  la::Matrix left_, right_;
};

TEST_F(OperatorRunTest, TensorAndPrefetchNljAgreeByteForByte) {
  auto& registry = JoinOperatorRegistry::Global();
  JoinInputs inputs;
  inputs.left_vectors = &left_;
  inputs.right_vectors = &right_;
  const JoinCondition condition = JoinCondition::TopK(3);
  JoinOptions options;

  MaterializingSink tensor_sink, nlj_sink;
  ASSERT_TRUE((*registry.Find("tensor"))
                  ->Run(inputs, condition, options, &tensor_sink)
                  .ok());
  ASSERT_TRUE((*registry.Find("prefetch_nlj"))
                  ->Run(inputs, condition, options, &nlj_sink)
                  .ok());
  ASSERT_EQ(tensor_sink.pairs().size(), nlj_sink.pairs().size());
  for (size_t i = 0; i < tensor_sink.pairs().size(); ++i) {
    EXPECT_EQ(tensor_sink.pairs()[i], nlj_sink.pairs()[i]) << i;
  }
}

// One dot-product order: the tensor sweep's left tiles and right shards
// (selected by shard-count pins) at every right tile height (1 and 7
// leave 1- and 7-row kernel calls; 64 and auto run 8-row blocks plus a
// leftover tail), the prefetched NLJ's one-pair dots and the flat index's
// probes all score a pair with the same bits, so they emit the same
// (left, right, similarity) triples.
TEST(OneDotOrderTest, EveryOperatorAndTileHeightEmitsTheSameBits) {
  using Triple = std::tuple<uint32_t, uint32_t, uint32_t>;
  auto triples = [](const MaterializingSink& sink) {
    std::vector<Triple> out;
    for (const JoinPair& p : sink.pairs()) {
      uint32_t bits;
      std::memcpy(&bits, &p.similarity, sizeof(bits));
      out.emplace_back(p.left, p.right, bits);
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  model::SubwordHashModel model;  // dim 100: a 4-element tail chunk.
  const std::vector<std::string> right_words =
      workload::RandomStrings(301, 4, 8, 62);
  const la::Matrix left =
      model.EmbedBatch(workload::RandomStrings(21, 4, 8, 61));
  const la::Matrix right = model.EmbedBatch(right_words);
  // The threshold is a similarity that occurs, so one pair sits on it.
  std::vector<float> sims;
  for (size_t i = 0; i < left.rows(); ++i) {
    for (size_t j = 0; j < right.rows(); ++j) {
      sims.push_back(la::Dot(left.Row(i), right.Row(j), left.cols()));
    }
  }
  std::nth_element(sims.begin(), sims.begin() + sims.size() / 20, sims.end(),
                   std::greater<float>());
  const float threshold = sims[sims.size() / 20];
  index::FlatIndex flat(right.Clone());
  ThreadPool pool(3);
  auto& registry = JoinOperatorRegistry::Global();

  for (const JoinCondition& condition :
       {JoinCondition::Threshold(threshold), JoinCondition::TopK(4)}) {
    std::vector<std::pair<std::string, std::vector<Triple>>> runs;
    for (size_t height : {size_t{1}, size_t{7}, size_t{64}, size_t{0}}) {
      TensorJoinOptions options;
      options.pool = &pool;
      options.batch_rows_right = height;
      const std::string suffix = " right tile " + std::to_string(height);
      // 0 = auto (left tiles below the shard floor), 1 = left tiles,
      // 3 and 5 = right shards.
      for (size_t shards : {size_t{0}, size_t{1}, size_t{3}, size_t{5}}) {
        options.shard_count = shards;
        const std::string name = "tensor x" + std::to_string(shards);
        MaterializingSink sink;
        ASSERT_TRUE(
            TensorSweepToSink(left, right, condition, options, &sink).ok())
            << name;
        runs.emplace_back(name + suffix, triples(sink));
      }
    }
    JoinInputs inputs;
    inputs.left_vectors = &left;
    inputs.right_vectors = &right;
    inputs.right_index = &flat;
    JoinOptions options;
    options.pool = &pool;
    for (const char* name : {"prefetch_nlj", "index"}) {
      MaterializingSink sink;
      ASSERT_TRUE(
          (*registry.Find(name))->Run(inputs, condition, options, &sink).ok())
          << name;
      runs.emplace_back(name, triples(sink));
    }

    ASSERT_FALSE(runs.front().second.empty());
    for (const auto& [name, got] : runs) {
      EXPECT_EQ(got, runs.front().second)
          << name << " vs " << runs.front().first
          << (condition.kind == JoinCondition::Kind::kTopK ? " (top-k)"
                                                          : " (threshold)");
    }
  }
}

TEST_F(OperatorRunTest, IndexOperatorUsesFilter) {
  index::FlatIndex flat(right_.Clone());
  index::FilterBitmap filter(right_.rows(), 0);
  for (size_t i = 0; i < right_.rows(); i += 2) filter[i] = 1;

  JoinInputs inputs;
  inputs.left_vectors = &left_;
  inputs.right_index = &flat;
  inputs.right_filter = &filter;
  MaterializingSink sink;
  auto& registry = JoinOperatorRegistry::Global();
  ASSERT_TRUE((*registry.Find("index"))
                  ->Run(inputs, JoinCondition::TopK(1), {}, &sink)
                  .ok());
  ASSERT_EQ(sink.pairs().size(), left_.rows());
  for (const auto& p : sink.pairs()) {
    EXPECT_EQ(p.right % 2, 0u) << "filtered row leaked into the result";
  }
}

TEST_F(OperatorRunTest, MissingInputsAreRejected) {
  auto& registry = JoinOperatorRegistry::Global();
  JoinInputs empty;
  MaterializingSink sink;
  for (const char* name : {"naive_nlj", "prefetch_nlj", "tensor", "index"}) {
    auto result = (*registry.Find(name))
                      ->Run(empty, JoinCondition::Threshold(0.5f), {}, &sink);
    EXPECT_FALSE(result.ok()) << name;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << name;
  }
}

// ---------------------------------------------------------------------------
// Sharded tensor join
// ---------------------------------------------------------------------------

class ShardedJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    left_ = workload::RandomUnitVectors(90, 16, 81);
    right_ = workload::RandomUnitVectors(1200, 16, 82);
  }
  Result<JoinStats> Sharded(const JoinCondition& condition,
                            const TensorJoinOptions& options,
                            JoinSink* sink) {
    return TensorSweepToSink(left_, right_, condition, options, sink);
  }
  la::Matrix left_, right_;
};

TEST_F(ShardedJoinTest, MatchesTensorAcrossShardCountsConditionsAndSinks) {
  // The acceptance contract: byte-identical sorted pairs to the left-tile
  // sweep for every shard count, for threshold and top-k alike, through a
  // materializing AND a callback sink. Both splits execute the one shared
  // sweep kernel, so this holds by construction — the test guards the
  // partition/merge plumbing around it. A pin of 1 is the left-tile sweep
  // itself, which reports no right shards.
  ThreadPool pool(4);
  for (const JoinCondition& condition :
       {JoinCondition::Threshold(0.35f), JoinCondition::TopK(3)}) {
    TensorJoinOptions tensor_options;
    tensor_options.pool = &pool;
    tensor_options.shard_count = 1;
    auto reference =
        TensorJoinMatrices(left_, right_, condition, tensor_options);
    ASSERT_TRUE(reference.ok());
    ASSERT_GT(reference->pairs.size(), 0u);

    for (size_t shard_count : {size_t{1}, size_t{2}, size_t{3}, size_t{7},
                               size_t{16}}) {
      TensorJoinOptions options;
      options.pool = &pool;
      options.shard_count = shard_count;

      MaterializingSink sink;
      auto stats = Sharded(condition, options, &sink);
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      EXPECT_EQ(stats->shards_used, shard_count > 1 ? shard_count : 0);
      EXPECT_EQ(stats->similarity_computations,
                left_.rows() * right_.rows());
      ASSERT_EQ(sink.pairs().size(), reference->pairs.size())
          << "shards=" << shard_count;
      for (size_t i = 0; i < sink.pairs().size(); ++i) {
        EXPECT_EQ(sink.pairs()[i], reference->pairs[i])
            << "shards=" << shard_count << " pair " << i;
      }

      // Callback sink: chunks arrive unordered from shard workers; the
      // collected multiset must still match the reference exactly.
      std::mutex mu;
      std::vector<JoinPair> collected;
      CallbackSink callback([&](const JoinPair* pairs, size_t count) {
        std::lock_guard<std::mutex> lock(mu);
        collected.insert(collected.end(), pairs, pairs + count);
        return true;
      });
      ASSERT_TRUE(Sharded(condition, options, &callback).ok());
      SortPairs(&collected);
      EXPECT_EQ(collected, reference->pairs) << "shards=" << shard_count;
    }
  }
}

TEST_F(ShardedJoinTest, AutoShardingFollowsPoolAndFloor) {
  JoinOptions options;
  // No pool: one shard regardless of size.
  EXPECT_EQ(ResolveShardCount(100000, options), 1u);
  ThreadPool pool(3);
  options.pool = &pool;
  // Caller-runs pool of 3 → up to 4 workers; floor 1024 rows per shard.
  EXPECT_EQ(ResolveShardCount(100000, options), 4u);
  EXPECT_EQ(ResolveShardCount(2048, options), 2u);
  EXPECT_EQ(ResolveShardCount(1000, options), 1u);  // Below floor.
  // Explicit count wins, clamped to the row count.
  options.shard_count = 9;
  EXPECT_EQ(ResolveShardCount(100000, options), 9u);
  EXPECT_EQ(ResolveShardCount(5, options), 5u);
}

TEST_F(ShardedJoinTest, AutoRuleSplitsAtTwiceTheShardFloor) {
  // With a pool and no pin, fewer than 2 x kMinShardRows right rows sweep
  // left tiles (no right shards reported) and at least that many sweep
  // right shards; either way the pairs are byte-identical to a pinned
  // left-tile run.
  ThreadPool pool(3);
  for (size_t n : {2 * kMinShardRows - 1, 2 * kMinShardRows}) {
    const la::Matrix right = workload::RandomUnitVectors(n, 16, 83);
    for (const JoinCondition& condition :
         {JoinCondition::Threshold(0.35f), JoinCondition::TopK(3)}) {
      const std::string label =
          std::to_string(n) + (condition.kind == JoinCondition::Kind::kTopK
                                   ? " top-k"
                                   : " threshold");
      TensorJoinOptions options;
      options.pool = &pool;
      MaterializingSink sink;
      auto stats = TensorSweepToSink(left_, right, condition, options, &sink);
      ASSERT_TRUE(stats.ok()) << label;
      if (n < 2 * kMinShardRows) {
        EXPECT_EQ(stats->shards_used, 0u) << label;
      } else {
        EXPECT_GE(stats->shards_used, 2u) << label;
      }
      options.shard_count = 1;
      MaterializingSink left_tiles;
      auto pinned =
          TensorSweepToSink(left_, right, condition, options, &left_tiles);
      ASSERT_TRUE(pinned.ok()) << label;
      EXPECT_EQ(pinned->shards_used, 0u) << label;
      ASSERT_GT(left_tiles.pairs().size(), 0u) << label;
      EXPECT_EQ(sink.pairs(), left_tiles.pairs()) << label;
    }
  }
}

TEST_F(ShardedJoinTest, OperatorRegisteredWithTensorSemantics) {
  // The registry's one tensor operator runs right shards when the options
  // pin them, and returns the pinned left-tile run's pairs.
  auto& registry = JoinOperatorRegistry::Global();
  const JoinOperator* tensor = *registry.Find("tensor");
  EXPECT_TRUE(tensor->Traits().needs_vectors);
  EXPECT_TRUE(tensor->Traits().exact);

  ThreadPool pool(4);
  JoinOptions options;
  options.pool = &pool;
  options.shard_count = 5;
  JoinInputs inputs;
  inputs.left_vectors = &left_;
  inputs.right_vectors = &right_;
  MaterializingSink sharded_sink, tensor_sink;
  auto stats = tensor->Run(inputs, JoinCondition::TopK(2), options,
                           &sharded_sink);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->shards_used, 5u);
  options.shard_count = 1;
  ASSERT_TRUE(
      tensor->Run(inputs, JoinCondition::TopK(2), options, &tensor_sink)
          .ok());
  EXPECT_EQ(sharded_sink.pairs(), tensor_sink.pairs());
}

TEST_F(ShardedJoinTest, PricingRequiresWorkersAndEnoughRows) {
  // The tensor quote prices the split its run resolves: left tiles without
  // workers or below the shard floor, right shards otherwise.
  auto& registry = JoinOperatorRegistry::Global();
  const JoinOperator* tensor = *registry.Find("tensor");
  CostParams p;
  JoinWorkload w;
  w.left_rows = 5000;
  w.right_rows = 100000;
  w.condition = JoinCondition::Threshold(0.9f);
  const double m = static_cast<double>(w.left_rows);
  auto expect_left_tiles = [&] {
    const double n = static_cast<double>(w.right_rows);
    const CostFeatures f = FeaturesForOperator("tensor", w, p);
    EXPECT_DOUBLE_EQ(f.model, n);  // The left key arrives embedded.
    EXPECT_DOUBLE_EQ(f.sweep, m * n);
    EXPECT_DOUBLE_EQ(f.fixed, n * p.access);
    EXPECT_EQ(f.pair + f.probe, 0.0);
    EXPECT_DOUBLE_EQ(tensor->EstimateCost(w, p), PriceFeatures(f, p));
  };
  // No workers: one shard, the left-tile sweep.
  w.pool_threads = 1;
  expect_left_tiles();
  const double serial_cost = tensor->EstimateCost(w, p);
  // Too few right rows to clear the shard floor: likewise.
  w.pool_threads = 8;
  w.right_rows = 500;
  expect_left_tiles();
  // Large wide join with real parallelism: undercuts the serial quote.
  w.right_rows = 100000;
  const double sharded_cost = tensor->EstimateCost(w, p);
  EXPECT_TRUE(std::isfinite(sharded_cost));
  EXPECT_LT(sharded_cost, serial_cost);
  // The quote prices the sharded decomposition at the shard count Run()
  // resolves: embed the right side, divide the sweep by the realized
  // parallelism, filter S and fan the top-k re-collection in per left row
  // per shard.
  const double n = static_cast<double>(w.right_rows);
  const size_t shards =
      ResolveShardCount(w.right_rows, w.pool_threads, 0, kMinShardRows);
  ASSERT_GT(shards, 1u);
  const CostFeatures f = FeaturesForOperator("tensor", w, p);
  EXPECT_DOUBLE_EQ(f.model, n);
  EXPECT_DOUBLE_EQ(f.sweep,
                   m * n / ParallelSpeedup(shards, w.pool_threads, p));
  EXPECT_DOUBLE_EQ(
      f.fixed, n * p.access + m * static_cast<double>(shards) * p.compute);
  EXPECT_EQ(f.pair + f.probe, 0.0);
  EXPECT_DOUBLE_EQ(sharded_cost, PriceFeatures(f, p));
}

TEST_F(ShardedJoinTest, EarlyTerminationStopsMidShard) {
  // A bounded sink must stop the sweep INSIDE a shard: the stop flag is
  // shared across shard workers, so the operator performs a fraction of
  // the full cross product before returning.
  ThreadPool pool(4);
  TensorJoinOptions options;
  options.pool = &pool;
  options.shard_count = 4;
  MaterializingSink::Options sink_options;
  sink_options.max_pairs = 500;
  MaterializingSink sink(sink_options);
  // Threshold below -1: every pair qualifies, so the bound hits fast.
  auto stats =
      Sharded(JoinCondition::Threshold(-2.0f), options, &sink);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(sink.truncated());
  EXPECT_EQ(sink.pairs().size(), 500u);
  EXPECT_LT(stats->similarity_computations,
            static_cast<uint64_t>(left_.rows()) * right_.rows());
}

// ---------------------------------------------------------------------------
// The tensor sweep's two splits at edge shapes
// ---------------------------------------------------------------------------

TEST(TensorLayoutTest, EdgeShapesMatchTensorThroughTheRegistry) {
  // The tensor operator through the registry under shard-count pins (auto,
  // 1 = left tiles, 3 = right shards), on the shapes where a split of the
  // |R| x |S| frame goes wrong first: an empty side, a single right row,
  // k > |S|, and |S| one row past an inner tile (256 rows at dim 16), two
  // inner tiles (512), the shard floor (1024) and a two-shard boundary
  // (2048). Both sides are words embedded once before the runs, as the
  // plan's Embed nodes embed them. Every kernel scores a pair in one order,
  // so the pairs match the left-tile run's byte for byte.
  model::SubwordHashOptions model_options;
  model_options.dim = 16;
  model::SubwordHashModel model(model_options);
  auto& registry = JoinOperatorRegistry::Global();
  const JoinOperator* tensor = *registry.Find("tensor");
  ThreadPool pool(4);

  struct Shape {
    size_t left_rows;
    size_t right_rows;
  };
  // |R| = 300 spans two left tiles; the wider right sides pair with a
  // smaller |R| to keep the k > |S| runs (|R|·|S| pairs) cheap.
  const Shape shapes[] = {{0, 300},  {300, 0},   {300, 1},   {300, 257},
                          {40, 513}, {40, 1025}, {40, 2049}};
  for (const Shape& shape : shapes) {
    const size_t m = shape.left_rows;
    const size_t n = shape.right_rows;
    const la::Matrix left =
        model.EmbedBatch(workload::RandomStrings(m, 4, 10, 91));
    const la::Matrix right =
        model.EmbedBatch(workload::RandomStrings(n, 4, 10, 92));
    JoinInputs inputs;
    inputs.left_vectors = &left;
    inputs.right_vectors = &right;
    for (ThreadPool* workers : {&pool, static_cast<ThreadPool*>(nullptr)}) {
      JoinOptions options;
      options.pool = workers;
      for (const JoinCondition& condition :
           {JoinCondition::Threshold(0.5f), JoinCondition::TopK(1),
            JoinCondition::TopK(n + 3)}) {
        std::string label = std::to_string(m) + "x" + std::to_string(n) +
                            (workers != nullptr ? " pool" : " no pool") +
                            (condition.kind == JoinCondition::Kind::kTopK
                                 ? " top-" + std::to_string(condition.k)
                                 : " threshold");
        MaterializingSink reference;
        options.shard_count = 1;
        ASSERT_TRUE(tensor->Run(inputs, condition, options, &reference).ok())
            << label;
        if (condition.kind == JoinCondition::Kind::kTopK) {
          EXPECT_EQ(reference.pairs().size(), m * std::min(condition.k, n))
              << label;
        }
        for (size_t shards : {size_t{0}, size_t{1}, size_t{3}}) {
          const std::string name = "shard_count " + std::to_string(shards);
          options.shard_count = shards;
          MaterializingSink sink;
          auto stats = tensor->Run(inputs, condition, options, &sink);
          ASSERT_TRUE(stats.ok()) << name << " " << label;
          EXPECT_EQ(sink.pairs(), reference.pairs()) << name << " " << label;
          EXPECT_EQ(stats->similarity_computations, m * n)
              << name << " " << label;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Sinks & early termination
// ---------------------------------------------------------------------------

TEST(SinkTest, MaterializingSinkSortsAndBounds) {
  MaterializingSink::Options options;
  options.max_pairs = 3;
  MaterializingSink sink(options);
  const JoinPair chunk[] = {{2, 0, 1.0f}, {0, 0, 1.0f}, {1, 0, 1.0f}};
  EXPECT_FALSE(sink.Consume(chunk, 3));  // Bound reached: request stop.
  sink.Finish();
  ASSERT_EQ(sink.pairs().size(), 3u);
  EXPECT_EQ(sink.pairs()[0].left, 0u);  // Canonically sorted.
  EXPECT_EQ(sink.pairs()[2].left, 2u);
  EXPECT_FALSE(sink.truncated());  // Exactly at the bound, nothing dropped.

  const JoinPair extra[] = {{3, 0, 1.0f}};
  EXPECT_FALSE(sink.Consume(extra, 1));
  EXPECT_TRUE(sink.truncated());
  EXPECT_EQ(sink.pairs().size(), 3u);
}

TEST(SinkTest, MemoryBudgetBoundsThePairBuffer) {
  MaterializingSink::Options options;
  options.memory_budget_bytes = 10 * sizeof(JoinPair);
  MaterializingSink sink(options);
  std::vector<JoinPair> chunk(64, JoinPair{1, 1, 0.5f});
  sink.Consume(chunk.data(), chunk.size());
  EXPECT_LE(sink.pairs().size() * sizeof(JoinPair),
            options.memory_budget_bytes);
  EXPECT_TRUE(sink.truncated());
}

TEST(SinkTest, FeedDeliversComputedPairsAfterStop) {
  // A bound hit exactly by a chunk must still be distinguishable from a
  // truncated stream: worker buffers flushed after the stop latched reach
  // the sink (and latch truncated) instead of being dropped silently.
  MaterializingSink::Options options;
  options.max_pairs = 2;
  MaterializingSink sink(options);
  SinkFeed feed(&sink);
  std::vector<JoinPair> local = {{0, 0, 1.0f}, {0, 1, 1.0f}};
  feed.Deliver(&local);  // Fills exactly to the cap; stop latches.
  EXPECT_TRUE(feed.stopped());
  EXPECT_FALSE(sink.truncated());  // Nothing dropped yet.
  local = {{1, 0, 1.0f}};
  feed.Deliver(&local);  // Post-stop flush still reaches the sink.
  EXPECT_TRUE(sink.truncated());
  EXPECT_EQ(sink.pairs().size(), 2u);
}

TEST(SinkTest, CountingSinkStopsAtLimit) {
  CountingSink sink(/*limit=*/100);
  std::vector<JoinPair> chunk(60, JoinPair{0, 0, 1.0f});
  EXPECT_TRUE(sink.Consume(chunk.data(), chunk.size()));
  EXPECT_FALSE(sink.Consume(chunk.data(), chunk.size()));
  EXPECT_EQ(sink.count(), 120u);
}

TEST(SinkTest, EarlyTerminationCutsOperatorWorkShort) {
  // A join whose full result is the whole cross product, consumed by a
  // bounded sink: the operator must stop long before |R| x |S| pairs.
  const size_t m = 2000, n = 2000, dim = 8;
  la::Matrix left = workload::RandomUnitVectors(m, dim, 21);
  la::Matrix right = workload::RandomUnitVectors(n, dim, 22);
  JoinInputs inputs;
  inputs.left_vectors = &left;
  inputs.right_vectors = &right;
  // Threshold below -1: every pair qualifies.
  const JoinCondition all = JoinCondition::Threshold(-2.0f);

  auto& registry = JoinOperatorRegistry::Global();
  for (const char* name : {"tensor", "prefetch_nlj"}) {
    MaterializingSink::Options options;
    options.max_pairs = 1000;
    MaterializingSink sink(options);
    auto stats = (*registry.Find(name))->Run(inputs, all, {}, &sink);
    ASSERT_TRUE(stats.ok()) << name;
    EXPECT_TRUE(sink.truncated()) << name;
    EXPECT_EQ(sink.pairs().size(), 1000u) << name;
    // The full sweep is 4M similarity computations; early termination must
    // cut at least 90% of it.
    EXPECT_LT(stats->similarity_computations,
              static_cast<uint64_t>(m) * n / 10)
        << name;
  }
}

TEST(SinkTest, CallbackSinkReceivesEveryChunk) {
  la::Matrix left = workload::RandomUnitVectors(50, 8, 31);
  la::Matrix right = workload::RandomUnitVectors(50, 8, 32);
  JoinInputs inputs;
  inputs.left_vectors = &left;
  inputs.right_vectors = &right;
  std::atomic<size_t> seen{0};
  CallbackSink sink([&](const JoinPair*, size_t count) {
    seen.fetch_add(count);
    return true;
  });
  auto& registry = JoinOperatorRegistry::Global();
  ASSERT_TRUE((*registry.Find("tensor"))
                  ->Run(inputs, JoinCondition::Threshold(-2.0f), {}, &sink)
                  .ok());
  EXPECT_EQ(seen.load(), 50u * 50u);
}

}  // namespace
}  // namespace cej::join
