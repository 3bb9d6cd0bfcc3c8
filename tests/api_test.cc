// Tests for the cej::Engine facade: catalog registration, the fluent
// QueryBuilder, cross-validation of all four registered physical operators
// on the same declarative workload (exact paths byte-identical, index path
// recall-checked), operator forcing, streaming with early termination, and
// the model-call accounting the optimizer story hinges on.

#include <algorithm>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cej/cej.h"
#include "cej/common/timer.h"
#include "cej/workload/generators.h"

namespace cej {
namespace {

using storage::Column;
using storage::DataType;
using storage::Relation;
using storage::Schema;

std::shared_ptr<const Relation> WordsTable(
    const std::vector<std::string>& words, uint64_t date_seed) {
  auto schema = Schema::Create({{"word", DataType::kString, 0},
                                {"when", DataType::kDate, 0}});
  CEJ_CHECK(schema.ok());
  std::vector<Column> columns;
  columns.push_back(Column::String(words));
  columns.push_back(
      Column::Date(workload::UniformDates(words.size(), 0, 99, date_seed)));
  auto rel = Relation::Create(std::move(schema).value(), std::move(columns));
  CEJ_CHECK(rel.ok());
  return std::make_shared<const Relation>(std::move(rel).value());
}

std::shared_ptr<const Relation> VectorTable(la::Matrix embeddings) {
  auto schema = Schema::Create(
      {{"emb", DataType::kVector, embeddings.cols()}});
  CEJ_CHECK(schema.ok());
  std::vector<Column> columns;
  columns.push_back(Column::Vector(std::move(embeddings)));
  auto rel = Relation::Create(std::move(schema).value(), std::move(columns));
  CEJ_CHECK(rel.ok());
  return std::make_shared<const Relation>(std::move(rel).value());
}

// Renders (left word, right word, similarity) rows for comparison.
std::vector<std::string> RenderPairs(const Relation& rel) {
  std::vector<std::string> out;
  const auto& lw = rel.ColumnByName("word").value()->string_values();
  const auto& rw = rel.ColumnByName("right_word").value()->string_values();
  const auto& sims = rel.ColumnByName("similarity").value()->double_values();
  for (size_t i = 0; i < rel.num_rows(); ++i) {
    out.push_back(lw[i] + "|" + rw[i] + "|" + std::to_string(sims[i]));
  }
  std::sort(out.begin(), out.end());
  return out;
}

// ---------------------------------------------------------------------------
// Catalog
// ---------------------------------------------------------------------------

TEST(EngineCatalogTest, DuplicateTableRejected) {
  Engine engine;
  auto table = WordsTable({"a"}, 1);
  EXPECT_TRUE(engine.RegisterTable("t", table).ok());
  EXPECT_EQ(engine.RegisterTable("t", table).code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(engine.Table("t").ok());
  EXPECT_EQ(engine.Table("missing").status().code(), StatusCode::kNotFound);
}

TEST(EngineCatalogTest, FirstModelBecomesDefault) {
  Engine engine;
  model::SubwordHashModel a, b;
  ASSERT_TRUE(engine.RegisterModel("a", &a).ok());
  ASSERT_TRUE(engine.RegisterModel("b", &b).ok());
  EXPECT_EQ(*engine.DefaultModel(), &a);
  ASSERT_TRUE(engine.SetDefaultModel("b").ok());
  EXPECT_EQ(*engine.DefaultModel(), &b);
  EXPECT_EQ(engine.SetDefaultModel("c").code(), StatusCode::kNotFound);
}

TEST(EngineCatalogTest, IndexRequiresRegisteredTable) {
  Engine engine;
  index::FlatIndex flat(workload::RandomUnitVectors(4, 8, 1));
  EXPECT_EQ(engine.RegisterIndex("t", "emb", &flat).code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(
      engine.RegisterTable("t", VectorTable(workload::RandomUnitVectors(
                                    4, 8, 1))).ok());
  EXPECT_TRUE(engine.RegisterIndex("t", "emb", &flat).ok());
  EXPECT_EQ(engine.RegisterIndex("t", "emb", &flat).code(),
            StatusCode::kAlreadyExists);
}

TEST(EngineCatalogTest, ReplaceTableDropsDerivedIndexes) {
  // A registered index covers the OLD contents; after ReplaceTable it must
  // be gone rather than silently probed against the new table.
  Engine engine;
  la::Matrix vecs = workload::RandomUnitVectors(8, 8, 5);
  index::FlatIndex flat(vecs.Clone());
  ASSERT_TRUE(engine.RegisterTable("t", VectorTable(vecs.Clone())).ok());
  ASSERT_TRUE(engine.RegisterIndex("t", "emb", &flat).ok());
  ASSERT_TRUE(
      engine.RegisterTable("q", VectorTable(workload::RandomUnitVectors(
                                    2, 8, 6))).ok());
  ASSERT_TRUE(
      engine
          .ReplaceTable("t", VectorTable(workload::RandomUnitVectors(8, 8, 7)))
          .ok());
  auto probe = engine.Query("q")
                   .EJoin("t", "emb", join::JoinCondition::TopK(1))
                   .Via("index")
                   .Execute();
  EXPECT_EQ(probe.status().code(), StatusCode::kInvalidArgument);
  // And the index can be re-registered for the new contents.
  EXPECT_TRUE(engine.RegisterIndex("t", "emb", &flat).ok());
}

TEST(EngineQueryTest, UnknownTableSurfacesAtBuildTime) {
  Engine engine;
  auto result = engine.Query("nope").Execute();
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(EngineQueryTest, StringJoinWithoutModelFails) {
  Engine engine;
  ASSERT_TRUE(engine.RegisterTable("l", WordsTable({"a"}, 1)).ok());
  ASSERT_TRUE(engine.RegisterTable("r", WordsTable({"b"}, 2)).ok());
  auto result = engine.Query("l")
                    .EJoin("r", "word", join::JoinCondition::Threshold(0.5f))
                    .Execute();
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// Cross-validation: the same declarative workload through all four
// registered operators.
// ---------------------------------------------------------------------------

class EngineCrossValidationTest : public ::testing::Test {
 protected:

  void SetUp() override {
    left_words_ = workload::RandomStrings(25, 4, 8, 41);
    right_words_ = workload::RandomStrings(120, 4, 8, 42);
    // Plant the left words into the right relation so threshold joins are
    // guaranteed non-empty (identical strings embed identically).
    right_words_.insert(right_words_.end(), left_words_.begin(),
                        left_words_.end());
    ASSERT_TRUE(
        engine_.RegisterTable("l", WordsTable(left_words_, 43)).ok());
    ASSERT_TRUE(
        engine_.RegisterTable("r", WordsTable(right_words_, 44)).ok());
    ASSERT_TRUE(engine_.RegisterModel("subword", &model_).ok());
    right_emb_ = model_.EmbedBatch(right_words_);
  }

  model::SubwordHashModel model_;
  std::vector<std::string> left_words_, right_words_;
  la::Matrix right_emb_;
  Engine engine_;
};

TEST_F(EngineCrossValidationTest, ExactOperatorsAreByteIdentical) {
  // naive (un-optimized plan), prefetch_nlj and tensor must produce the
  // same threshold-join relation, byte for byte.
  const auto condition = join::JoinCondition::Threshold(0.5f);

  auto naive = engine_.Query("l")
                   .EJoin("r", "word", condition)
                   .WithoutOptimizer()
                   .Execute();
  ASSERT_TRUE(naive.ok()) << naive.status().ToString();
  EXPECT_EQ(naive->stats.join_operator, "naive_nlj");

  auto prefetch = engine_.Query("l")
                      .EJoin("r", "word", condition)
                      .Via("prefetch_nlj")
                      .Execute();
  ASSERT_TRUE(prefetch.ok());
  EXPECT_EQ(prefetch->stats.join_operator, "prefetch_nlj");

  auto tensor = engine_.Query("l")
                    .EJoin("r", "word", condition)
                    .Via("tensor")
                    .Execute();
  ASSERT_TRUE(tensor.ok());
  EXPECT_EQ(tensor->stats.join_operator, "tensor");

  const auto reference = RenderPairs(naive->relation);
  ASSERT_GT(reference.size(), 0u);
  EXPECT_EQ(RenderPairs(prefetch->relation), reference);
  EXPECT_EQ(RenderPairs(tensor->relation), reference);
}

TEST_F(EngineCrossValidationTest, ExactIndexMatchesScanExactly) {
  // A flat (exhaustive) index has recall 1: forcing the index operator on
  // the same top-k workload must reproduce the tensor relation exactly.
  index::FlatIndex flat(right_emb_.Clone());
  ASSERT_TRUE(engine_.RegisterIndex("r", "word", &flat).ok());
  const auto condition = join::JoinCondition::TopK(3);

  auto scan = engine_.Query("l")
                  .EJoin("r", "word", condition)
                  .Via("tensor")
                  .Execute();
  auto probe = engine_.Query("l")
                   .EJoin("r", "word", condition)
                   .Via("index")
                   .Execute();
  ASSERT_TRUE(scan.ok() && probe.ok());
  EXPECT_EQ(probe->stats.join_operator, "index");
  EXPECT_EQ(RenderPairs(probe->relation), RenderPairs(scan->relation));
}

TEST_F(EngineCrossValidationTest, ApproximateIndexIsRecallChecked) {
  auto hnsw = index::HnswIndex::Build(right_emb_.Clone(),
                                      index::HnswBuildOptions::Hi());
  ASSERT_TRUE(hnsw.ok());
  (*hnsw)->set_ef_search(128);
  ASSERT_TRUE(engine_.RegisterIndex("r", "word", hnsw->get()).ok());
  const auto condition = join::JoinCondition::TopK(3);

  auto scan = engine_.Query("l")
                  .EJoin("r", "word", condition)
                  .Via("tensor")
                  .Execute();
  auto probe = engine_.Query("l")
                   .EJoin("r", "word", condition)
                   .Via("index")
                   .Execute();
  ASSERT_TRUE(scan.ok() && probe.ok());

  auto pair_set = [](const Relation& rel) {
    std::set<std::pair<std::string, std::string>> out;
    const auto& lw = rel.ColumnByName("word").value()->string_values();
    const auto& rw =
        rel.ColumnByName("right_word").value()->string_values();
    for (size_t i = 0; i < rel.num_rows(); ++i) out.insert({lw[i], rw[i]});
    return out;
  };
  const auto truth = pair_set(scan->relation);
  const auto found = pair_set(probe->relation);
  size_t hits = 0;
  for (const auto& p : found) hits += truth.count(p);
  EXPECT_GE(static_cast<double>(hits) / truth.size(), 0.9)
      << "HNSW probe recall degraded";
}

TEST_F(EngineCrossValidationTest, ShardedTensorMatchesTensorThroughEngine) {
  // The sharded layout, forced on the pool-less fixture engine (a single
  // shard), must reproduce the tensor relation exactly. Multi-shard runs
  // are checked through a pooled engine by EngineShardedSelectionTest and
  // at pinned shard counts by ShardedJoinTest.
  const auto condition = join::JoinCondition::TopK(3);
  auto tensor = engine_.Query("l")
                    .EJoin("r", "word", condition)
                    .Via("tensor")
                    .Execute();
  ASSERT_TRUE(tensor.ok()) << tensor.status().ToString();
  auto sharded = engine_.Query("l")
                     .EJoin("r", "word", condition)
                     .Via("sharded_tensor")
                     .Execute();
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  EXPECT_EQ(sharded->stats.join_operator, "sharded_tensor");
  EXPECT_EQ(sharded->stats.join_stats.shards_used, 1u);  // No pool.
  EXPECT_EQ(RenderPairs(sharded->relation), RenderPairs(tensor->relation));
}

TEST(EngineShardedSelectionTest, LargeWideJoinSelectsShardedTensorByCost) {
  // The acceptance workload: a large vector-domain join on a pooled
  // engine. The registry scan must pick sharded_tensor unforced — its
  // per-shard sweep / parallelism quote undercuts the serial tensor sweep
  // once the right side clears the shard floor — and the result must be
  // byte-identical to the forced tensor run.
  Engine::Options options;
  options.num_threads = 4;
  Engine engine(options);
  la::Matrix left = workload::RandomUnitVectors(512, 8, 95);
  la::Matrix right = workload::RandomUnitVectors(6000, 8, 96);
  ASSERT_TRUE(engine.RegisterTable("l", VectorTable(left.Clone())).ok());
  ASSERT_TRUE(engine.RegisterTable("r", VectorTable(right.Clone())).ok());

  const auto condition = join::JoinCondition::TopK(2);
  join::MaterializingSink chosen_sink, tensor_sink;
  plan::ExecStats stats;
  auto run = engine.Query("l")
                 .EJoin("r", "emb", condition)
                 .Stream(&chosen_sink, &stats);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(stats.join_operator, "sharded_tensor");
  EXPECT_GE(stats.join_stats.shards_used, 2u);
  ASSERT_TRUE(engine.Query("l")
                  .EJoin("r", "emb", condition)
                  .Via("tensor")
                  .Stream(&tensor_sink)
                  .ok());
  EXPECT_EQ(chosen_sink.pairs(), tensor_sink.pairs());
}

TEST(EngineConcurrencyTest, ConcurrentStreamsShareRegistryCacheAndPool) {
  // Many threads querying ONE engine concurrently: the global operator
  // registry, the engine's embedding cache, and its worker pool are all
  // shared. Every stream must observe the same pairs; the interleaving of
  // pool-parallel operators inside pool-parallel queries must neither
  // deadlock (caller-runs ParallelForRange) nor cross results.
  Engine::Options options;
  options.num_threads = 2;
  Engine engine(options);
  model::SubwordHashModel model;
  auto left_words = workload::RandomStrings(30, 4, 8, 61);
  auto right_words = workload::RandomStrings(2200, 4, 8, 62);
  right_words.insert(right_words.end(), left_words.begin(),
                     left_words.end());
  ASSERT_TRUE(engine.RegisterTable("l", WordsTable(left_words, 63)).ok());
  ASSERT_TRUE(engine.RegisterTable("r", WordsTable(right_words, 64)).ok());
  ASSERT_TRUE(engine.RegisterModel("subword", &model).ok());
  const auto condition = join::JoinCondition::Threshold(0.5f);

  join::MaterializingSink reference_sink;
  ASSERT_TRUE(engine.Query("l")
                  .EJoin("r", "word", condition)
                  .Via("tensor")
                  .Stream(&reference_sink)
                  .ok());
  ASSERT_GT(reference_sink.pairs().size(), 0u);

  constexpr size_t kThreads = 8;
  std::vector<join::MaterializingSink> sinks(kThreads);
  std::vector<Status> statuses(kThreads, Status::OK());
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Alternate forced operators so differently-parallel implementations
      // overlap on the one pool: sharded (right shards), tensor (left
      // tiles), and the cost-based pick.
      auto builder = engine.Query("l").EJoin("r", "word", condition);
      if (t % 3 == 0) {
        builder.Via("sharded_tensor");
      } else if (t % 3 == 1) {
        builder.Via("tensor");
      }
      statuses[t] = builder.Stream(&sinks[t]).status();
    });
  }
  for (auto& thread : threads) thread.join();
  for (size_t t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(statuses[t].ok()) << "thread " << t << ": "
                                  << statuses[t].ToString();
    EXPECT_EQ(sinks[t].pairs(), reference_sink.pairs()) << "thread " << t;
  }
}

TEST_F(EngineCrossValidationTest, OptimizerCutsModelCallsQuadraticToLinear) {
  const auto condition = join::JoinCondition::Threshold(0.5f);
  model_.ResetStats();
  ASSERT_TRUE(engine_.Query("l")
                  .EJoin("r", "word", condition)
                  .WithoutOptimizer()
                  .Execute()
                  .ok());
  const uint64_t naive_calls = model_.embed_calls();

  model_.ResetStats();
  ASSERT_TRUE(engine_.Query("l").EJoin("r", "word", condition).Execute().ok());
  const uint64_t optimized_calls = model_.embed_calls();

  const uint64_t m = left_words_.size(), n = right_words_.size();
  EXPECT_EQ(naive_calls, 2u * m * n);
  EXPECT_EQ(optimized_calls, m + n);
}

TEST_F(EngineCrossValidationTest, SelectionComposesWithJoinAndSimilarity) {
  auto result =
      engine_.Query("l")
          .Select(expr::Cmp("when", expr::CmpOp::kLt, int64_t{50}))
          .EJoin("r", "word", join::JoinCondition::TopK(2))
          .Select(expr::Cmp("similarity", expr::CmpOp::kGt, 0.2))
          .Execute();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto& when = result->relation.ColumnByName("when")
                         .value()
                         ->date_values();
  const auto& sims = result->relation.ColumnByName("similarity")
                         .value()
                         ->double_values();
  for (size_t i = 0; i < result->relation.num_rows(); ++i) {
    EXPECT_LT(when[i], 50);
    EXPECT_GT(sims[i], 0.2);
  }
}

// ---------------------------------------------------------------------------
// Stored vector columns (no model at all)
// ---------------------------------------------------------------------------

TEST(EngineVectorTest, BareVectorScanUsesRegisteredIndex) {
  const size_t n = 500, dim = 16;
  la::Matrix left = workload::RandomUnitVectors(20, dim, 51);
  la::Matrix right = workload::RandomUnitVectors(n, dim, 52);
  index::FlatIndex flat(right.Clone());

  Engine engine;
  ASSERT_TRUE(engine.RegisterTable("q", VectorTable(left.Clone())).ok());
  ASSERT_TRUE(engine.RegisterTable("db", VectorTable(right.Clone())).ok());
  ASSERT_TRUE(engine.RegisterIndex("db", "emb", &flat).ok());

  auto scan = engine.Query("q")
                  .EJoin("db", "emb", join::JoinCondition::TopK(1))
                  .Via("tensor")
                  .Execute();
  auto probe = engine.Query("q")
                   .EJoin("db", "emb", join::JoinCondition::TopK(1))
                   .Via("index")
                   .Execute();
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  EXPECT_EQ(probe->stats.join_operator, "index");
  ASSERT_EQ(scan->relation.num_rows(), probe->relation.num_rows());
  const auto& a =
      scan->relation.ColumnByName("similarity").value()->double_values();
  const auto& b =
      probe->relation.ColumnByName("similarity").value()->double_values();
  for (size_t i = 0; i < a.size(); ++i) EXPECT_FLOAT_EQ(a[i], b[i]);
}

TEST(EngineVectorTest, RequireExactExcludesApproximateOperators) {
  const size_t n = 400, dim = 16;
  la::Matrix left = workload::RandomUnitVectors(10, dim, 53);
  la::Matrix right = workload::RandomUnitVectors(n, dim, 54);
  index::FlatIndex flat(right.Clone());

  Engine engine;
  ASSERT_TRUE(engine.RegisterTable("q", VectorTable(left.Clone())).ok());
  ASSERT_TRUE(engine.RegisterTable("db", VectorTable(right.Clone())).ok());
  ASSERT_TRUE(engine.RegisterIndex("db", "emb", &flat).ok());

  // Skew the cost model so the (approximate-traited) index operator wins
  // every cost comparison...
  join::CostParams params;
  params.tensor_efficiency = 1e6;
  params.compute = 1e6;
  params.probe_base = 0.0;
  params.probe_per_candidate = 1e-9;
  engine.set_cost_params(params);

  auto free_choice = engine.Query("q")
                         .EJoin("db", "emb", join::JoinCondition::TopK(1))
                         .Execute();
  ASSERT_TRUE(free_choice.ok());
  ASSERT_EQ(free_choice->stats.join_operator, "index");

  // ...then demand exact results: the cost scan must fall back to an
  // exact operator even though the index is cheaper.
  auto exact = engine.Query("q")
                   .EJoin("db", "emb", join::JoinCondition::TopK(1))
                   .RequireExact()
                   .Execute();
  ASSERT_TRUE(exact.ok());
  EXPECT_NE(exact->stats.join_operator, "index");
}

TEST(EngineVectorTest, StoredVectorRightKeyIsPricedWithoutAModelTerm) {
  // A stored vector column is never embedded, so no operator may be
  // charged |S| model calls for it. At a model cost in the microseconds a
  // host calibration measures, that phantom term made a 50 x 5000 top-1
  // scan look dearer than HNSW probes: the cost scan picked `index` at a
  // quote ~30x its runner-up's.
  const size_t dim = 64;
  la::Matrix right = workload::RandomUnitVectors(5000, dim, 56);
  // A cheap graph: only its presence matters to the cost scan.
  index::HnswBuildOptions build;
  build.m = 8;
  build.ef_construction = 32;
  auto hnsw = index::HnswIndex::Build(right.Clone(), build);
  ASSERT_TRUE(hnsw.ok());

  Engine engine;
  ASSERT_TRUE(engine
                  .RegisterTable("q", VectorTable(workload::RandomUnitVectors(
                                          50, dim, 55)))
                  .ok());
  ASSERT_TRUE(engine.RegisterTable("db", VectorTable(std::move(right))).ok());
  ASSERT_TRUE(engine.RegisterIndex("db", "emb", hnsw->get()).ok());
  // A and C in ns as plan::Calibrate measured them on a 4-vCPU AVX-512
  // Xeon, and a model at 5 us per call.
  join::CostParams params;
  params.access = 1.8;
  params.model = 5000.0;
  params.compute = 17.6;
  engine.set_cost_params(params);

  auto result = engine.Query("q")
                    .EJoin("db", "emb", join::JoinCondition::TopK(1))
                    .Execute();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_NE(result->stats.join_operator, "index");
  EXPECT_FALSE(result->stats.runner_up_operator.empty());
  EXPECT_LE(result->stats.estimated_cost_ns,
            result->stats.runner_up_cost_ns);
}

TEST(EngineVectorTest, AlreadyEmbeddedLeftKeyIsPricedWithoutAModelTerm) {
  // The left key of a vector-key join is embedded before the cost scan
  // runs, however it got there — a stored vector column or a filtered
  // Embed pipeline the cache cannot serve. A phantom |R| * M term added to
  // every quote compresses their ratios: with M = 3000 and the right side
  // warm, prefetch_nlj over tensor fell from ~6.4x to ~3x and slipped
  // under an explore ratio of 4, so the first query ran the NLJ.
  join::CostParams params;
  params.model = 3000.0;
  Engine::Options options;
  options.num_threads = 0;  // prefetch_nlj vs tensor only.
  options.adaptive_stats = true;
  options.stats_refit_interval = 0;
  options.stats_explore_cost_ratio = 4.0;

  {  // Stored vectors on both sides.
    Engine engine(options);
    engine.set_cost_params(params);
    ASSERT_TRUE(engine
                    .RegisterTable("q", VectorTable(workload::RandomUnitVectors(
                                            20, 16, 57)))
                    .ok());
    ASSERT_TRUE(engine
                    .RegisterTable("db", VectorTable(workload::RandomUnitVectors(
                                             2000, 16, 58)))
                    .ok());
    auto result = engine.Query("q")
                      .EJoin("db", "emb", join::JoinCondition::TopK(4))
                      .Execute();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->stats.join_operator, "tensor");
    EXPECT_FALSE(result->stats.explored_operator);
  }

  {  // A filtered left pipeline against a warm right column.
    Engine engine(options);
    engine.set_cost_params(params);
    model::SubwordHashModel model;
    ASSERT_TRUE(engine
                    .RegisterTable("l", WordsTable(workload::RandomStrings(
                                                       40, 4, 8, 59),
                                                   60))
                    .ok());
    ASSERT_TRUE(engine
                    .RegisterTable("r", WordsTable(workload::RandomStrings(
                                                       2000, 4, 8, 61),
                                                   62))
                    .ok());
    ASSERT_TRUE(engine.RegisterModel("subword", &model).ok());
    auto query = [&](const char* via) {
      auto request =
          engine.Query("l")
              .Select(expr::Cmp("when", expr::CmpOp::kLt, int64_t{50}))
              .EJoin("r", "word", join::JoinCondition::TopK(4));
      if (via != nullptr) request.Via(via);
      return request.Execute();
    };
    // Warm the right column; the forced run observes only `tensor`.
    ASSERT_TRUE(query("tensor").ok());
    auto result = query(nullptr);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->stats.join_operator, "tensor");
    EXPECT_FALSE(result->stats.explored_operator);
    EXPECT_EQ(result->stats.model_calls, result->relation.num_rows() / 4)
        << "the right column should be served from the cache";
  }
}

TEST(EngineVectorTest, PreMaterializedRightInputIsPricedWithoutAModelTerm) {
  // A right input that no index could serve — here the stacked Embeds a
  // graph input with two string keys lowers to — is materialized, and so
  // embedded, before the cost scan runs. A phantom |S| * M term added to
  // every quote compresses their ratios: with M = 3000, prefetch_nlj over
  // tensor fell from ~6.4x to ~1.03x and slipped under an explore ratio of
  // 4, so the query ran the NLJ.
  join::CostParams params;
  params.model = 3000.0;
  Engine::Options options;
  options.num_threads = 0;  // prefetch_nlj vs tensor only.
  options.adaptive_stats = true;
  options.stats_refit_interval = 0;
  options.stats_explore_cost_ratio = 4.0;
  Engine engine(options);
  engine.set_cost_params(params);
  model::SubwordHashModel model;
  ASSERT_TRUE(engine
                  .RegisterTable("l", WordsTable(workload::RandomStrings(
                                                     20, 4, 8, 63),
                                                 64))
                  .ok());
  ASSERT_TRUE(engine
                  .RegisterTable("r", WordsTable(workload::RandomStrings(
                                                     2000, 4, 8, 65),
                                                 66))
                  .ok());
  auto left = engine.Table("l");
  auto right = engine.Table("r");
  ASSERT_TRUE(left.ok() && right.ok());
  const plan::NodePtr stacked = plan::Embed(
      plan::Embed(plan::Scan("r", *right), "word", &model, "word_emb"),
      "word", &model, "word_emb2");
  const plan::NodePtr join = plan::EJoin(
      plan::Embed(plan::Scan("l", *left), "word", &model, "word_emb"),
      stacked, "word_emb", "word_emb2", nullptr, join::JoinCondition::TopK(4));
  plan::ExecStats stats;
  auto result = plan::Execute(join, engine.MakeExecContext(), &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_rows(), 20u * 4u);
  EXPECT_EQ(stats.join_operator, "tensor");
  EXPECT_FALSE(stats.explored_operator);
}

// ---------------------------------------------------------------------------
// Streaming
// ---------------------------------------------------------------------------

TEST(EngineStreamTest, StreamDeliversAllPairsWithoutMaterializing) {
  Engine engine;
  la::Matrix left = workload::RandomUnitVectors(40, 8, 61);
  la::Matrix right = workload::RandomUnitVectors(60, 8, 62);
  ASSERT_TRUE(engine.RegisterTable("l", VectorTable(left.Clone())).ok());
  ASSERT_TRUE(engine.RegisterTable("r", VectorTable(right.Clone())).ok());

  join::CountingSink sink;
  auto stats = engine.Query("l")
                   .EJoin("r", "emb", join::JoinCondition::TopK(2))
                   .Stream(&sink);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(sink.count(), 40u * 2u);
  EXPECT_EQ(stats->similarity_computations, 40u * 60u);
}

TEST(EngineStreamTest, EarlyTerminationStopsTheJoin) {
  // LIMIT-style consumption: a bounded sink stops the full-cross-product
  // join long before |R| x |S| similarity computations.
  Engine engine;
  const size_t m = 1500, n = 1500;
  la::Matrix left = workload::RandomUnitVectors(m, 8, 63);
  la::Matrix right = workload::RandomUnitVectors(n, 8, 64);
  ASSERT_TRUE(engine.RegisterTable("l", VectorTable(left.Clone())).ok());
  ASSERT_TRUE(engine.RegisterTable("r", VectorTable(right.Clone())).ok());

  join::MaterializingSink::Options options;
  options.max_pairs = 500;
  join::MaterializingSink sink(options);
  auto stats = engine.Query("l")
                   .EJoin("r", "emb", join::JoinCondition::Threshold(-2.0f))
                   .Stream(&sink);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(sink.truncated());
  EXPECT_EQ(sink.pairs().size(), 500u);
  EXPECT_LT(stats->similarity_computations,
            static_cast<uint64_t>(m) * n / 10)
      << "early termination did not cut the sweep short";
}

TEST(EngineStreamTest, StreamRequiresAJoinRoot) {
  Engine engine;
  ASSERT_TRUE(engine.RegisterTable("t", WordsTable({"a", "b"}, 71)).ok());
  join::CountingSink sink;
  auto stats = engine.Query("t")
                   .Select(expr::Cmp("when", expr::CmpOp::kLt, int64_t{50}))
                   .Stream(&sink);
  EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineStreamTest, NullSinkIsAnInvalidArgument) {
  Engine engine;
  ASSERT_TRUE(
      engine.RegisterTable("l", VectorTable(workload::RandomUnitVectors(
                                    4, 8, 72))).ok());
  ASSERT_TRUE(
      engine.RegisterTable("r", VectorTable(workload::RandomUnitVectors(
                                    16, 8, 73))).ok());
  auto stats = engine.Query("l")
                   .EJoin("r", "emb", join::JoinCondition::TopK(2))
                   .Stream(nullptr);
  EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// NaN similarities and thresholds
// ---------------------------------------------------------------------------

TEST(EngineNanTest, NanSimilaritiesNeverEnterTopK) {
  // Two stored vectors hold a NaN, so every probe scores NaN against them.
  // No score compares greater than a NaN: one NaN admitted while a top-k
  // heap fills would hold its slot for good. Every exact path must return
  // the top-k of the finite rows. HNSW orders its beam outside the top-k
  // collector; with ef_search = |S| its search is exhaustive here too.
  constexpr size_t kRows = 4096, kDim = 16, kProbes = 4, kTopK = 3;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  la::Matrix db = workload::RandomUnitVectors(kRows, kDim, 74);
  db.Row(0)[0] = nan;
  db.Row(2048)[kDim - 1] = nan;
  const la::Matrix probes = workload::RandomUnitVectors(kProbes, kDim, 75);

  std::vector<join::JoinPair> oracle;
  for (size_t i = 0; i < kProbes; ++i) {
    std::vector<la::ScoredId> finite;
    for (size_t r = 0; r < kRows; ++r) {
      if (r == 0 || r == 2048) continue;
      finite.push_back({la::Dot(probes.Row(i), db.Row(r), kDim), r});
    }
    std::sort(finite.begin(), finite.end());
    for (size_t j = 0; j < kTopK; ++j) {
      oracle.push_back({static_cast<uint32_t>(i),
                        static_cast<uint32_t>(finite[j].id),
                        finite[j].score});
    }
  }
  join::SortPairs(&oracle);

  Engine::Options options;
  options.num_threads = 3;
  Engine engine(options);
  ASSERT_TRUE(engine.RegisterTable("probes", VectorTable(probes.Clone())).ok());
  index::IndexBuildOptions flat;
  flat.family = index::IndexFamily::kFlat;
  index::IndexBuildOptions ivf;
  ivf.family = index::IndexFamily::kIvf;
  ivf.ivf.nlist = 16;
  ivf.ivf_nprobe = 16;  // Every list: an exhaustive search.
  index::IndexBuildOptions hnsw;
  hnsw.family = index::IndexFamily::kHnsw;
  hnsw.hnsw_ef_search = kRows;
  const std::vector<std::pair<std::string, const index::IndexBuildOptions*>>
      tables = {{"db", nullptr},
                {"db_flat", &flat},
                {"db_ivf", &ivf},
                {"db_hnsw", &hnsw}};
  for (const auto& [table, build] : tables) {
    ASSERT_TRUE(engine.RegisterTable(table, VectorTable(db.Clone())).ok());
    if (build != nullptr) {
      ASSERT_TRUE(engine.BuildIndex(table, "emb", *build).ok()) << table;
    }
  }
  const std::vector<std::pair<std::string, std::string>> runs = {
      {"db", "tensor"},        {"db", "sharded_tensor"},
      {"db", "prefetch_nlj"},  {"db_flat", "index"},
      {"db_ivf", "index"},     {"db_hnsw", "index"}};
  for (const auto& [table, op] : runs) {
    join::MaterializingSink sink;
    plan::ExecStats stats;
    auto streamed = engine.Query("probes")
                        .EJoin(table, "emb", join::JoinCondition::TopK(kTopK))
                        .Via(op)
                        .Stream(&sink, &stats);
    ASSERT_TRUE(streamed.ok()) << op << ": " << streamed.status().ToString();
    EXPECT_EQ(stats.join_operator, op);
    std::vector<join::JoinPair> pairs = sink.TakePairs();
    join::SortPairs(&pairs);
    EXPECT_EQ(pairs, oracle) << op << " over " << table;
  }
}

TEST(EngineNanTest, NanThresholdIsAnInvalidArgument) {
  // A NaN threshold admits no pair: it is a malformed query, not an empty
  // result, on every path.
  Engine engine;
  model::SubwordHashModel model;
  ASSERT_TRUE(engine.RegisterModel("subword", &model).ok());
  ASSERT_TRUE(engine
                  .RegisterTable("l", WordsTable(workload::RandomStrings(
                                                     8, 4, 8, 76),
                                                 77))
                  .ok());
  ASSERT_TRUE(engine
                  .RegisterTable("r", WordsTable(workload::RandomStrings(
                                                     32, 4, 8, 78),
                                                 79))
                  .ok());
  const auto condition = join::JoinCondition::Threshold(
      std::numeric_limits<float>::quiet_NaN());
  auto query = [&] { return engine.Query("l").EJoin("r", "word", condition); };
  EXPECT_EQ(query().Execute().status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(query().Via("tensor").Execute().status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(query().WithoutOptimizer().Execute().status().code(),
            StatusCode::kInvalidArgument);
  join::CountingSink sink;
  EXPECT_EQ(query().Stream(&sink).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Embedding cache
// ---------------------------------------------------------------------------

class EngineCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    left_words_ = workload::RandomStrings(20, 4, 8, 81);
    right_words_ = workload::RandomStrings(50, 4, 8, 82);
    right_words_.insert(right_words_.end(), left_words_.begin(),
                        left_words_.end());
    ASSERT_TRUE(
        engine_.RegisterTable("l", WordsTable(left_words_, 83)).ok());
    ASSERT_TRUE(
        engine_.RegisterTable("r", WordsTable(right_words_, 84)).ok());
    ASSERT_TRUE(engine_.RegisterModel("subword", &model_).ok());
  }

  Result<QueryResult> RunJoin() {
    return engine_.Query("l")
        .EJoin("r", "word", join::JoinCondition::Threshold(0.5f))
        .Execute();
  }

  model::SubwordHashModel model_;
  std::vector<std::string> left_words_, right_words_;
  Engine engine_;  // Default options: embedding cache enabled.
};

TEST_F(EngineCacheTest, WarmCacheSkipsModelCallsEntirely) {
  const uint64_t m = left_words_.size(), n = right_words_.size();
  auto cold = RunJoin();
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(cold->stats.model_calls, m + n);
  EXPECT_EQ(cold->stats.embedding_cache_hits, 0u);
  EXPECT_EQ(cold->stats.embedding_cache_misses, 2u);

  // Second identical query: both column embeddings are served from the
  // cache — the model is never invoked (checked on the model itself, not
  // just the stats plumbing).
  const uint64_t calls_before = model_.embed_calls();
  auto warm = RunJoin();
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(model_.embed_calls(), calls_before);
  EXPECT_EQ(warm->stats.model_calls, 0u);
  EXPECT_EQ(warm->stats.embedding_cache_hits, 2u);
  EXPECT_EQ(RenderPairs(warm->relation), RenderPairs(cold->relation));

  const EmbeddingCache::Stats cache_stats =
      engine_.embedding_cache()->stats();
  EXPECT_EQ(cache_stats.entries, 2u);
  EXPECT_GE(cache_stats.hits, 2u);
}

TEST_F(EngineCacheTest, ColdEmbeddingTimeIsReportedWithinTheWall) {
  // Cold cache: the rewritten plan's Embed nodes run the model on both
  // sides, and that time is reported next to the join phase — never more
  // than the query took end to end.
  WallTimer wall;
  auto cold = RunJoin();
  const double wall_seconds = wall.ElapsedSeconds();
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_EQ(cold->stats.model_calls, left_words_.size() + right_words_.size());
  const join::JoinStats& js = cold->stats.join_stats;
  EXPECT_GT(js.embed_seconds, 0.0);
  EXPECT_LE(js.embed_seconds + js.join_seconds, wall_seconds);
}

TEST_F(EngineCacheTest, ReplaceTableInvalidatesItsEntries) {
  ASSERT_TRUE(RunJoin().ok());  // Warm both columns.
  auto new_words = workload::RandomStrings(30, 4, 8, 85);
  new_words.insert(new_words.end(), left_words_.begin(), left_words_.end());
  ASSERT_TRUE(engine_.ReplaceTable("r", WordsTable(new_words, 86)).ok());

  // The right column must be re-embedded against the new contents; the
  // untouched left table stays cached.
  auto result = RunJoin();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stats.model_calls, new_words.size());
  EXPECT_EQ(result->stats.embedding_cache_hits, 1u);
  EXPECT_EQ(result->stats.embedding_cache_misses, 1u);
}

TEST_F(EngineCacheTest, FilteredQueriesGatherFromTheCachedFullTable) {
  ASSERT_TRUE(RunJoin().ok());  // Warm both columns.
  const uint64_t calls_before = model_.embed_calls();
  auto filtered =
      engine_.Query("l")
          .Select(expr::Cmp("when", expr::CmpOp::kLt, int64_t{50}))
          .EJoin("r", "word", join::JoinCondition::Threshold(0.5f))
          .Execute();
  ASSERT_TRUE(filtered.ok()) << filtered.status().ToString();
  // The pushed-down Select survives below the Embed; the surviving rows
  // gather out of the cached full-table matrix with zero model calls.
  EXPECT_EQ(model_.embed_calls(), calls_before);
  EXPECT_EQ(filtered->stats.model_calls, 0u);
  EXPECT_EQ(filtered->stats.embedding_cache_hits, 2u);
}

TEST_F(EngineCacheTest, DisabledCacheKeepsSeedBehaviour) {
  Engine::Options options;
  options.embedding_cache_bytes = 0;
  Engine uncached(options);
  ASSERT_TRUE(
      uncached.RegisterTable("l", WordsTable(left_words_, 83)).ok());
  ASSERT_TRUE(
      uncached.RegisterTable("r", WordsTable(right_words_, 84)).ok());
  ASSERT_TRUE(uncached.RegisterModel("subword", &model_).ok());
  EXPECT_EQ(uncached.embedding_cache(), nullptr);
  for (int run = 0; run < 2; ++run) {
    auto result = uncached.Query("l")
                      .EJoin("r", "word", join::JoinCondition::Threshold(0.5f))
                      .Execute();
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->stats.model_calls,
              left_words_.size() + right_words_.size());
    EXPECT_EQ(result->stats.embedding_cache_hits, 0u);
    EXPECT_EQ(result->stats.embedding_cache_misses, 0u);
  }
}

TEST(EmbeddingCacheTest, LruEvictionRespectsTheByteBudget) {
  model::SubwordHashModel model;
  EmbeddingCache::Options options;
  options.max_bytes = 2 * 4 * 4 * sizeof(float);  // Exactly two 4x4 entries.
  EmbeddingCache cache(options);
  auto table = std::make_shared<const Relation>();
  auto vectors = [](size_t rows, uint64_t seed) {
    return std::make_shared<const la::Matrix>(
        workload::RandomUnitVectors(rows, rows, seed));
  };
  cache.Put("t1", "c", &model, table, vectors(4, 1));
  cache.Put("t2", "c", &model, table, vectors(4, 2));
  // Refresh t1's recency.
  ASSERT_NE(cache.Get("t1", "c", &model, table), nullptr);
  cache.Put("t3", "c", &model, table, vectors(4, 3));

  EXPECT_EQ(cache.Get("t2", "c", &model, table), nullptr);  // LRU victim.
  EXPECT_NE(cache.Get("t1", "c", &model, table), nullptr);
  EXPECT_NE(cache.Get("t3", "c", &model, table), nullptr);
  const EmbeddingCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_LE(stats.bytes, options.max_bytes);

  // An entry bigger than the whole budget is refused outright.
  cache.Put("huge", "c", &model, table, vectors(64, 4));
  EXPECT_EQ(cache.Get("huge", "c", &model, table), nullptr);
}

TEST(EmbeddingCacheTest, EntriesServeOnlyTheSnapshotTheyEmbed) {
  model::SubwordHashModel model;
  EmbeddingCache cache;
  auto old_table = std::make_shared<const Relation>();
  auto new_table = std::make_shared<const Relation>();
  cache.Put("t", "c", &model, old_table,
            std::make_shared<const la::Matrix>(
                workload::RandomUnitVectors(4, 4, 1)));
  EXPECT_NE(cache.Peek("t", "c", &model, old_table), nullptr);
  EXPECT_EQ(cache.Peek("t", "c", &model, new_table), nullptr);
  EXPECT_EQ(cache.Get("t", "c", &model, new_table), nullptr);
  EXPECT_NE(cache.Get("t", "c", &model, old_table), nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
}

// A plan holds the relation snapshot it was made against. Running it
// across a ReplaceTable must neither park that snapshot's embeddings where
// queries over the new contents find them, nor be served theirs.
class StaleSnapshotCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    left_words_ = workload::RandomStrings(20, 4, 8, 91);
    old_words_ = workload::RandomStrings(200, 4, 8, 92);
    new_words_ = workload::RandomStrings(200, 4, 8, 93);
    ASSERT_TRUE(engine_.RegisterTable("l", WordsTable(left_words_, 94)).ok());
    ASSERT_TRUE(engine_.RegisterTable("r", WordsTable(old_words_, 95)).ok());
    ASSERT_TRUE(engine_.RegisterModel("subword", &model_).ok());
  }

  // The optimized top-1 plan over the engine's current "l" and "r".
  plan::NodePtr PlanAgainstCurrentTables() {
    return plan::Optimize(plan::EJoin(
        plan::Scan("l", *engine_.Table("l")),
        plan::Scan("r", *engine_.Table("r")), "word", "word", &model_,
        join::JoinCondition::TopK(1)));
  }

  Result<QueryResult> FreshQuery(const Engine& engine) {
    return engine.Query("l")
        .EJoin("r", "word", join::JoinCondition::TopK(1))
        .Via("tensor")
        .Execute();
  }

  // The pairs a clean engine returns over `right_words`.
  std::vector<std::string> CleanPairs(
      const std::vector<std::string>& right_words) {
    Engine clean;
    CEJ_CHECK(clean.RegisterTable("l", WordsTable(left_words_, 94)).ok());
    CEJ_CHECK(clean.RegisterTable("r", WordsTable(right_words, 95)).ok());
    CEJ_CHECK(clean.RegisterModel("subword", &model_).ok());
    auto result = FreshQuery(clean);
    CEJ_CHECK(result.ok());
    return RenderPairs(result->relation);
  }

  model::SubwordHashModel model_;
  std::vector<std::string> left_words_, old_words_, new_words_;
  Engine engine_;
};

TEST_F(StaleSnapshotCacheTest, OldPlanRunAfterReplaceDoesNotPoisonNewQueries) {
  plan::NodePtr old_plan = PlanAgainstCurrentTables();
  plan::ExecContext context = engine_.MakeExecContext();
  context.force_operator = "tensor";
  ASSERT_TRUE(engine_.ReplaceTable("r", WordsTable(new_words_, 95)).ok());
  ASSERT_TRUE(plan::Execute(old_plan, context).ok());

  auto fresh = FreshQuery(engine_);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  // The new contents are embedded, not served the old plan's vectors.
  EXPECT_EQ(fresh->stats.model_calls, new_words_.size());
  EXPECT_EQ(RenderPairs(fresh->relation), CleanPairs(new_words_));
}

TEST_F(StaleSnapshotCacheTest, NewQueryBeforeOldPlanDoesNotServeItNewVectors) {
  plan::NodePtr old_plan = PlanAgainstCurrentTables();
  plan::ExecContext context = engine_.MakeExecContext();
  context.force_operator = "tensor";
  ASSERT_TRUE(engine_.ReplaceTable("r", WordsTable(new_words_, 95)).ok());
  ASSERT_TRUE(FreshQuery(engine_).ok());

  plan::ExecStats stats;
  auto old_result = plan::Execute(old_plan, context, &stats);
  ASSERT_TRUE(old_result.ok()) << old_result.status().ToString();
  // The old snapshot is embedded, not served the new table's vectors.
  EXPECT_EQ(stats.model_calls, old_words_.size());
  EXPECT_EQ(RenderPairs(*old_result), CleanPairs(old_words_));
}

// ---------------------------------------------------------------------------
// Streaming operator selection
// ---------------------------------------------------------------------------

TEST(EngineStreamTest, StreamingStringJoinPicksTensorWithOrWithoutAPool) {
  // The streaming surface embeds the right Embed pipeline before the
  // sweep, as Execute does, so the unforced cost scan picks the same
  // phase-ordered operator with or without a pool (60 right rows are
  // below the shard floor).
  Engine::Options options;
  options.num_threads = 2;
  Engine engine(options);
  model::SubwordHashModel model;
  auto left_words = workload::RandomStrings(15, 4, 8, 91);
  auto right_words = workload::RandomStrings(60, 4, 8, 92);
  ASSERT_TRUE(engine.RegisterTable("l", WordsTable(left_words, 93)).ok());
  ASSERT_TRUE(engine.RegisterTable("r", WordsTable(right_words, 94)).ok());
  ASSERT_TRUE(engine.RegisterModel("subword", &model).ok());

  join::CountingSink sink;
  plan::ExecStats stats;
  auto run = engine.Query("l")
                 .EJoin("r", "word", join::JoinCondition::TopK(2))
                 .Stream(&sink, &stats);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(stats.join_operator, "tensor");
  EXPECT_EQ(sink.count(), left_words.size() * 2u);
  // Each side is embedded once: |R| + |S| calls total.
  EXPECT_EQ(stats.model_calls, left_words.size() + right_words.size());

  // The identical query on a pool-less engine.
  Engine poolless;
  ASSERT_TRUE(poolless.RegisterTable("l", WordsTable(left_words, 93)).ok());
  ASSERT_TRUE(poolless.RegisterTable("r", WordsTable(right_words, 94)).ok());
  ASSERT_TRUE(poolless.RegisterModel("subword", &model).ok());
  join::CountingSink poolless_sink;
  plan::ExecStats poolless_stats;
  ASSERT_TRUE(poolless.Query("l")
                  .EJoin("r", "word", join::JoinCondition::TopK(2))
                  .Stream(&poolless_sink, &poolless_stats)
                  .ok());
  EXPECT_EQ(poolless_stats.join_operator, "tensor");
  EXPECT_EQ(poolless_sink.count(), sink.count());

  // `pipelined_tensor` is not a registered operator.
  join::CountingSink removed_sink;
  auto removed = engine.Query("l")
                     .EJoin("r", "word", join::JoinCondition::TopK(2))
                     .Via("pipelined_tensor")
                     .Stream(&removed_sink);
  EXPECT_EQ(removed.status().code(), StatusCode::kNotFound);
}

TEST(EngineStreamTest, SecondStreamOfAnUnchangedTableIsACacheHit) {
  // A streamed join embeds each cold column once and puts it in the
  // embedding cache, so a second Stream over the unchanged tables pays no
  // model call. The right side is large enough to shard on the pool.
  Engine::Options options;
  options.num_threads = 3;
  Engine engine(options);
  model::SubwordHashModel model;
  auto left_words = workload::RandomStrings(64, 4, 8, 95);
  auto right_words = workload::RandomStrings(4096, 4, 8, 96);
  ASSERT_TRUE(engine.RegisterTable("l", WordsTable(left_words, 97)).ok());
  ASSERT_TRUE(engine.RegisterTable("r", WordsTable(right_words, 98)).ok());
  ASSERT_TRUE(engine.RegisterModel("subword", &model).ok());

  auto stream = [&](join::MaterializingSink* sink, plan::ExecStats* stats) {
    return engine.Query("l")
        .EJoin("r", "word", join::JoinCondition::Threshold(0.6f))
        .Stream(sink, stats)
        .status();
  };
  join::MaterializingSink cold_sink, warm_sink;
  plan::ExecStats cold, warm;
  ASSERT_TRUE(stream(&cold_sink, &cold).ok());
  EXPECT_EQ(cold.model_calls, left_words.size() + right_words.size());
  EXPECT_EQ(cold.embedding_cache_hits, 0u);
  EXPECT_EQ(cold.embedding_cache_misses, 2u);

  const uint64_t calls_before = model.embed_calls();
  ASSERT_TRUE(stream(&warm_sink, &warm).ok());
  EXPECT_EQ(warm.model_calls, 0u);
  EXPECT_EQ(model.embed_calls(), calls_before);
  EXPECT_EQ(warm.embedding_cache_hits, 2u);
  EXPECT_EQ(warm.embedding_cache_misses, 0u);
  EXPECT_EQ(warm.join_operator, cold.join_operator);
  EXPECT_EQ(warm_sink.pairs(), cold_sink.pairs());
}

// ---------------------------------------------------------------------------
// Explain
// ---------------------------------------------------------------------------

TEST(EngineExplainTest, ShowsBothPlans) {
  Engine engine;
  model::SubwordHashModel model;
  ASSERT_TRUE(engine.RegisterTable("l", WordsTable({"a"}, 1)).ok());
  ASSERT_TRUE(engine.RegisterTable("r", WordsTable({"b"}, 2)).ok());
  ASSERT_TRUE(engine.RegisterModel("m", &model).ok());
  auto explain = engine.Query("l")
                     .EJoin("r", "word", join::JoinCondition::Threshold(0.5f))
                     .Explain();
  ASSERT_TRUE(explain.ok());
  EXPECT_NE(explain->find("logical plan"), std::string::npos);
  EXPECT_NE(explain->find("optimized plan"), std::string::npos);
  EXPECT_NE(explain->find("EJoin"), std::string::npos);
  EXPECT_NE(explain->find("Embed"), std::string::npos);
}

}  // namespace
}  // namespace cej
