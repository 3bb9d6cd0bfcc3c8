// Tests for the engine-owned index management subsystem: BuildIndex across
// all families with index-vs-tensor result equivalence at recall=1
// settings, embedding-cache-sourced builds, sharded probe byte identity
// across shard counts, build -> ReplaceTable -> rebuild invalidation,
// save/load round trips, snapshot pinning against concurrent invalidation,
// the auto-build policy, and concurrent BuildIndex + Stream (the TSan
// suite covers this file).

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cej/cej.h"
#include "cej/join/index_join.h"
#include "cej/workload/generators.h"

namespace cej {
namespace {

using storage::Column;
using storage::DataType;
using storage::Relation;
using storage::Schema;

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

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
  auto schema =
      Schema::Create({{"emb", DataType::kVector, embeddings.cols()}});
  CEJ_CHECK(schema.ok());
  std::vector<Column> columns;
  columns.push_back(Column::Vector(std::move(embeddings)));
  auto rel = Relation::Create(std::move(schema).value(), std::move(columns));
  CEJ_CHECK(rel.ok());
  return std::make_shared<const Relation>(std::move(rel).value());
}

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

// The four recall=1 build configurations the equivalence suite pins: the
// flat family is exact by construction; IVF probes every list; both HNSW
// configurations get a beam as wide as the collection.
std::vector<std::pair<std::string, index::IndexBuildOptions>>
ExhaustiveFamilyConfigs(size_t n) {
  std::vector<std::pair<std::string, index::IndexBuildOptions>> configs;
  {
    index::IndexBuildOptions flat;
    flat.family = index::IndexFamily::kFlat;
    configs.emplace_back("flat", flat);
  }
  {
    index::IndexBuildOptions ivf;
    ivf.family = index::IndexFamily::kIvf;
    ivf.ivf.nlist = 8;
    ivf.ivf_nprobe = 8;  // nprobe == nlist: every list is scanned.
    configs.emplace_back("ivf(nprobe=nlist)", ivf);
  }
  {
    index::IndexBuildOptions hi;
    hi.family = index::IndexFamily::kHnsw;
    hi.hnsw = index::HnswBuildOptions::Hi();
    hi.hnsw_ef_search = n;
    hi.hnsw_range_probe_k = n;
    configs.emplace_back("hnsw-hi(ef=n)", hi);
  }
  {
    index::IndexBuildOptions lo;
    lo.family = index::IndexFamily::kHnsw;
    lo.hnsw = index::HnswBuildOptions::Lo();
    lo.hnsw_ef_search = n;
    lo.hnsw_range_probe_k = n;
    configs.emplace_back("hnsw-lo(ef=n)", lo);
  }
  return configs;
}

// ---------------------------------------------------------------------------
// BuildIndex + equivalence across families
// ---------------------------------------------------------------------------

class IndexManagerFamilyTest : public ::testing::Test {
 protected:
  // Pool-less: HNSW builds are then bit-deterministic, which the recall=1
  // equivalence checks need — a parallel build's edge sets depend on
  // insertion interleaving (pooled builds and probes are covered by the
  // selection, sharding and concurrency tests).
  IndexManagerFamilyTest() : engine_(Engine::Options{}) {}

  void SetUp() override {
    left_words_ = workload::RandomStrings(20, 4, 8, 141);
    right_words_ = workload::RandomStrings(150, 4, 8, 142);
    right_words_.insert(right_words_.end(), left_words_.begin(),
                        left_words_.end());
    ASSERT_TRUE(engine_.RegisterTable("l", WordsTable(left_words_, 143)).ok());
    ASSERT_TRUE(engine_.RegisterTable("r", WordsTable(right_words_, 144)).ok());
    ASSERT_TRUE(engine_.RegisterModel("subword", &model_).ok());
  }

  model::SubwordHashModel model_;
  std::vector<std::string> left_words_, right_words_;
  Engine engine_;
};

TEST_F(IndexManagerFamilyTest, AllFamiliesMatchTensorAtRecallOne) {
  const auto topk = join::JoinCondition::TopK(3);
  const auto range = join::JoinCondition::Threshold(0.5f);
  auto tensor_topk =
      engine_.Query("l").EJoin("r", "word", topk).Via("tensor").Execute();
  auto tensor_range =
      engine_.Query("l").EJoin("r", "word", range).Via("tensor").Execute();
  ASSERT_TRUE(tensor_topk.ok() && tensor_range.ok());
  const auto expected_topk = RenderPairs(tensor_topk->relation);
  const auto expected_range = RenderPairs(tensor_range->relation);
  ASSERT_GT(expected_range.size(), 0u);

  for (const auto& [name, options] :
       ExhaustiveFamilyConfigs(right_words_.size())) {
    auto built = engine_.BuildIndex("r", "word", options);
    ASSERT_TRUE(built.ok()) << name << ": " << built.status().ToString();
    EXPECT_EQ(built->family, options.family) << name;
    EXPECT_EQ(built->rows, right_words_.size()) << name;

    auto probe_topk =
        engine_.Query("l").EJoin("r", "word", topk).Via("index").Execute();
    ASSERT_TRUE(probe_topk.ok()) << name << ": "
                                 << probe_topk.status().ToString();
    EXPECT_EQ(probe_topk->stats.join_operator, "index") << name;
    EXPECT_GT(probe_topk->stats.index_catalog_hits, 0u) << name;
    EXPECT_EQ(probe_topk->stats.join_stats.index_probe_rows,
              left_words_.size())
        << name;
    EXPECT_EQ(RenderPairs(probe_topk->relation), expected_topk) << name;

    auto probe_range =
        engine_.Query("l").EJoin("r", "word", range).Via("index").Execute();
    ASSERT_TRUE(probe_range.ok()) << name;
    EXPECT_EQ(RenderPairs(probe_range->relation), expected_range) << name;
  }
}

TEST_F(IndexManagerFamilyTest, BuildSourcesVectorsFromTheEmbeddingCache) {
  // Cold build: the column is embedded (and the cache warmed).
  index::IndexBuildOptions flat;
  flat.family = index::IndexFamily::kFlat;
  auto cold = engine_.BuildIndex("r", "word", flat);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_FALSE(cold->embedding_cache_hit);
  EXPECT_EQ(cold->model_calls, right_words_.size());
  EXPECT_GT(cold->embed_seconds, 0.0);

  // Rebuild: vectors come straight from the cache, zero model calls.
  const uint64_t calls_before = model_.embed_calls();
  auto warm = engine_.BuildIndex("r", "word", flat);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->embedding_cache_hit);
  EXPECT_EQ(warm->model_calls, 0u);
  EXPECT_EQ(model_.embed_calls(), calls_before);
}

TEST_F(IndexManagerFamilyTest, ExplainShowsCatalogAvailability) {
  auto before = engine_.Query("l")
                    .EJoin("r", "word", join::JoinCondition::TopK(2))
                    .Explain();
  ASSERT_TRUE(before.ok());
  EXPECT_NE(before->find("no index"), std::string::npos);

  index::IndexBuildOptions flat;
  flat.family = index::IndexFamily::kFlat;
  ASSERT_TRUE(engine_.BuildIndex("r", "word", flat).ok());
  auto after = engine_.Query("l")
                   .EJoin("r", "word", join::JoinCondition::TopK(2))
                   .Explain();
  ASSERT_TRUE(after.ok());
  EXPECT_NE(after->find("flat index available"), std::string::npos);
}

TEST_F(IndexManagerFamilyTest, BuildReplaceRebuildInvalidation) {
  index::IndexBuildOptions flat;
  flat.family = index::IndexFamily::kFlat;
  ASSERT_TRUE(engine_.BuildIndex("r", "word", flat).ok());
  const auto condition = join::JoinCondition::TopK(2);
  ASSERT_TRUE(
      engine_.Query("l").EJoin("r", "word", condition).Via("index").Execute()
          .ok());

  // Replacement drops the catalog entry: a forced probe now has no index.
  auto new_words = workload::RandomStrings(80, 4, 8, 145);
  new_words.insert(new_words.end(), left_words_.begin(), left_words_.end());
  ASSERT_TRUE(engine_.ReplaceTable("r", WordsTable(new_words, 146)).ok());
  auto stale = engine_.Query("l")
                   .EJoin("r", "word", condition)
                   .Via("index")
                   .Execute();
  EXPECT_EQ(stale.status().code(), StatusCode::kInvalidArgument);

  // Rebuild over the new contents: probe path works again and matches the
  // scan path on the new data.
  ASSERT_TRUE(engine_.BuildIndex("r", "word", flat).ok());
  auto tensor = engine_.Query("l")
                    .EJoin("r", "word", condition)
                    .Via("tensor")
                    .Execute();
  auto probe = engine_.Query("l")
                   .EJoin("r", "word", condition)
                   .Via("index")
                   .Execute();
  ASSERT_TRUE(tensor.ok() && probe.ok());
  EXPECT_EQ(RenderPairs(probe->relation), RenderPairs(tensor->relation));
}

TEST_F(IndexManagerFamilyTest, SaveLoadRoundTripServesIdenticalProbes) {
  const auto condition = join::JoinCondition::TopK(3);
  size_t config_id = 0;
  for (const auto& [name, options] :
       ExhaustiveFamilyConfigs(right_words_.size())) {
    ASSERT_TRUE(engine_.BuildIndex("r", "word", options).ok()) << name;
    auto original =
        engine_.Query("l").EJoin("r", "word", condition).Via("index")
            .Execute();
    ASSERT_TRUE(original.ok()) << name;

    const std::string path =
        TempPath("cej_index_" + std::to_string(config_id++) + ".bin");
    ASSERT_TRUE(engine_.SaveIndex("r", "word", path).ok()) << name;

    // A fresh engine with the same tables: loading must reproduce the
    // saved index's probes exactly (graph, lists AND probe knobs).
    Engine restored;
    ASSERT_TRUE(
        restored.RegisterTable("l", WordsTable(left_words_, 143)).ok());
    ASSERT_TRUE(
        restored.RegisterTable("r", WordsTable(right_words_, 144)).ok());
    ASSERT_TRUE(restored.RegisterModel("subword", &model_).ok());
    auto loaded = restored.LoadIndex("r", "word", path);
    ASSERT_TRUE(loaded.ok()) << name << ": " << loaded.status().ToString();
    EXPECT_EQ(loaded->family, options.family) << name;
    auto reloaded =
        restored.Query("l").EJoin("r", "word", condition).Via("index")
            .Execute();
    ASSERT_TRUE(reloaded.ok()) << name;
    EXPECT_EQ(RenderPairs(reloaded->relation),
              RenderPairs(original->relation))
        << name;
  }
}

TEST_F(IndexManagerFamilyTest, LoadRejectsMisalignedTables) {
  index::IndexBuildOptions flat;
  flat.family = index::IndexFamily::kFlat;
  ASSERT_TRUE(engine_.BuildIndex("r", "word", flat).ok());
  const std::string path = TempPath("cej_index_misaligned.bin");
  ASSERT_TRUE(engine_.SaveIndex("r", "word", path).ok());

  Engine other;
  ASSERT_TRUE(other.RegisterTable("r", WordsTable(left_words_, 143)).ok());
  model::SubwordHashModel model;
  ASSERT_TRUE(other.RegisterModel("subword", &model).ok());
  // 20-row table vs a 170-row index: structural validation must refuse.
  auto loaded = other.LoadIndex("r", "word", path);
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Sharded probes
// ---------------------------------------------------------------------------

TEST(ShardedIndexProbeTest, ByteIdenticalAcrossShardCounts) {
  const size_t m = 120, n = 500, dim = 8;
  la::Matrix left = workload::RandomUnitVectors(m, dim, 151);
  la::Matrix right = workload::RandomUnitVectors(n, dim, 152);
  index::FlatIndex flat(right.Clone());
  ThreadPool pool(3);

  for (const auto condition :
       {join::JoinCondition::TopK(3), join::JoinCondition::Threshold(0.2f)}) {
    // Reference: single-threaded, unsharded probes.
    join::MaterializingSink reference;
    join::IndexJoinOptions serial_options;
    auto serial =
        join::IndexJoinToSink(left, flat, condition, serial_options,
                              &reference);
    ASSERT_TRUE(serial.ok());
    EXPECT_EQ(serial->shards_used, 1u);
    EXPECT_EQ(serial->index_probe_rows, m);
    ASSERT_GT(reference.pairs().size(), 0u);

    for (size_t shard_count : {size_t{1}, size_t{2}, size_t{7}, size_t{16}}) {
      join::MaterializingSink sink;
      join::IndexJoinOptions options;
      options.pool = &pool;
      options.shard_count = shard_count;
      auto stats = join::IndexJoinToSink(left, flat, condition, options,
                                         &sink);
      ASSERT_TRUE(stats.ok()) << shard_count;
      EXPECT_EQ(stats->shards_used, shard_count) << shard_count;
      EXPECT_EQ(stats->index_probe_rows, m) << shard_count;
      EXPECT_EQ(sink.pairs(), reference.pairs())
          << "shard count " << shard_count;
    }
  }
}

TEST(ShardedIndexProbeTest, EarlyTerminationCutsProbingShort) {
  const size_t m = 4000, n = 300, dim = 8;
  la::Matrix left = workload::RandomUnitVectors(m, dim, 153);
  la::Matrix right = workload::RandomUnitVectors(n, dim, 154);
  index::FlatIndex flat(right.Clone());
  ThreadPool pool(3);

  join::MaterializingSink::Options bounded;
  bounded.max_pairs = 64;
  join::MaterializingSink sink(bounded);
  join::IndexJoinOptions options;
  options.pool = &pool;
  auto stats = join::IndexJoinToSink(
      left, flat, join::JoinCondition::Threshold(-2.0f), options, &sink);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(sink.truncated());
  EXPECT_LT(stats->index_probe_rows, m / 2)
      << "early termination did not stop the probe shards";
}

TEST(ShardedIndexProbeTest, CostPricesProbeParallelism) {
  join::CostParams params;
  const join::JoinOperator* index =
      *join::JoinOperatorRegistry::Global().Find("index");
  join::JoinWorkload w;
  w.left_rows = 1000;
  w.right_rows = 100000;
  w.condition = join::JoinCondition::TopK(1);
  w.index_available = true;
  const double serial = index->EstimateCost(w, params);
  // Auto probe shards on 8 workers divide the probe work.
  w.pool_threads = 8;
  const double sharded = index->EstimateCost(w, params);
  EXPECT_LT(sharded, serial);
  // Too few probes for a second shard: no speedup on any pool.
  w.left_rows = join::kMinProbeShardRows;
  w.pool_threads = 1;
  const double one_shard = index->EstimateCost(w, params);
  w.pool_threads = 8;
  EXPECT_EQ(index->EstimateCost(w, params), one_shard);
}

// ---------------------------------------------------------------------------
// Unforced selection (the acceptance workload) and auto-build
// ---------------------------------------------------------------------------

TEST(IndexSelectionTest, EngineBuiltIndexWinsTheCostScanUnforced) {
  // No caller-built index anywhere: BuildIndex is the only index source.
  // On a pooled engine with a large right relation, the registry scan
  // must pick the index plan on cost alone, probe it in parallel left
  // shards, and reproduce the tensor pairs byte-for-byte (flat family).
  Engine::Options options;
  options.num_threads = 4;
  Engine engine(options);
  const size_t m = 64, n = 300000, dim = 8;
  la::Matrix left = workload::RandomUnitVectors(m, dim, 161);
  la::Matrix right = workload::RandomUnitVectors(n, dim, 162);
  ASSERT_TRUE(engine.RegisterTable("q", VectorTable(left.Clone())).ok());
  ASSERT_TRUE(engine.RegisterTable("db", VectorTable(right.Clone())).ok());

  index::IndexBuildOptions flat;
  flat.family = index::IndexFamily::kFlat;
  auto built = engine.BuildIndex("db", "emb", flat);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_EQ(built->rows, n);

  const auto condition = join::JoinCondition::TopK(2);
  join::MaterializingSink chosen_sink, tensor_sink;
  plan::ExecStats stats;
  auto run = engine.Query("q")
                 .EJoin("db", "emb", condition)
                 .Stream(&chosen_sink, &stats);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(stats.join_operator, "index");
  EXPECT_GE(stats.join_stats.shards_used, 2u)
      << "pooled probe run did not shard the left batch";
  EXPECT_EQ(stats.join_stats.index_probe_rows, m);
  EXPECT_EQ(stats.index_catalog_hits, 1u);
  EXPECT_GT(stats.index_build_seconds, 0.0);

  ASSERT_TRUE(engine.Query("q")
                  .EJoin("db", "emb", condition)
                  .Via("tensor")
                  .Stream(&tensor_sink)
                  .ok());
  EXPECT_EQ(chosen_sink.pairs(), tensor_sink.pairs());
}

TEST(IndexSelectionTest, AutoBuildPublishesInBackgroundAfterLosses) {
  Engine::Options options;
  options.num_threads = 2;
  options.index_auto_build_losses = 2;
  options.index_auto_build_options.family = index::IndexFamily::kFlat;
  Engine engine(options);
  la::Matrix left = workload::RandomUnitVectors(40, 8, 163);
  la::Matrix right = workload::RandomUnitVectors(500, 8, 164);
  ASSERT_TRUE(engine.RegisterTable("q", VectorTable(left.Clone())).ok());
  ASSERT_TRUE(engine.RegisterTable("db", VectorTable(right.Clone())).ok());
  // Make probes overwhelmingly cheap so every scan is a recorded loss.
  join::CostParams params;
  params.probe_base = 0.0;
  params.probe_per_candidate = 1e-9;
  engine.set_cost_params(params);

  const auto condition = join::JoinCondition::TopK(2);
  auto query = [&] {
    return engine.Query("q").EJoin("db", "emb", condition).Execute();
  };

  // Two losses: still scanning (no index exists yet), each one recorded.
  for (int i = 0; i < 2; ++i) {
    auto result = query();
    ASSERT_TRUE(result.ok());
    EXPECT_NE(result->stats.join_operator, "index") << "loss " << i;
    EXPECT_EQ(result->stats.index_catalog_misses, 1u);
  }
  engine.index_manager()->WaitForBackgroundBuilds();
  const auto manager_stats = engine.index_manager()->stats();
  EXPECT_EQ(manager_stats.losses_recorded, 2u);
  EXPECT_EQ(manager_stats.auto_builds, 1u);
  EXPECT_EQ(manager_stats.builds, 1u);

  // Third query: the background build published — the probe path wins
  // unforced and (flat family, scalar kernel) matches the scan exactly.
  auto probe = query();
  ASSERT_TRUE(probe.ok());
  EXPECT_EQ(probe->stats.join_operator, "index");
  EXPECT_EQ(probe->stats.index_catalog_hits, 1u);
  auto tensor =
      engine.Query("q").EJoin("db", "emb", condition).Via("tensor").Execute();
  ASSERT_TRUE(tensor.ok());
  const auto& a =
      probe->relation.ColumnByName("similarity").value()->double_values();
  const auto& b =
      tensor->relation.ColumnByName("similarity").value()->double_values();
  EXPECT_EQ(a, b);
}

TEST(IndexSelectionTest, DisabledPolicyOnlyCountsLosses) {
  Engine::Options options;
  options.num_threads = 2;
  Engine engine(options);
  ASSERT_TRUE(engine.RegisterTable(
                  "q", VectorTable(workload::RandomUnitVectors(8, 8, 165)))
                  .ok());
  ASSERT_TRUE(engine.RegisterTable(
                  "db", VectorTable(workload::RandomUnitVectors(200, 8, 166)))
                  .ok());
  join::CostParams params;
  params.probe_base = 0.0;
  params.probe_per_candidate = 1e-9;
  engine.set_cost_params(params);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(engine.Query("q")
                    .EJoin("db", "emb", join::JoinCondition::TopK(1))
                    .Execute()
                    .ok());
  }
  engine.index_manager()->WaitForBackgroundBuilds();
  const auto stats = engine.index_manager()->stats();
  EXPECT_EQ(stats.losses_recorded, 3u);
  EXPECT_EQ(stats.auto_builds, 0u);
  EXPECT_EQ(stats.builds, 0u);
}

// ---------------------------------------------------------------------------
// Stale-index hazard: snapshots pin what a plan probes
// ---------------------------------------------------------------------------

TEST(IndexSnapshotTest, ReplaceTableCannotFreeAProbedIndex) {
  Engine engine;
  const size_t n_old = 300, dim = 8;
  la::Matrix left = workload::RandomUnitVectors(10, dim, 171);
  la::Matrix right = workload::RandomUnitVectors(n_old, dim, 172);
  ASSERT_TRUE(engine.RegisterTable("q", VectorTable(left.Clone())).ok());
  ASSERT_TRUE(engine.RegisterTable("db", VectorTable(right.Clone())).ok());
  index::IndexBuildOptions flat;
  flat.family = index::IndexFamily::kFlat;
  ASSERT_TRUE(engine.BuildIndex("db", "emb", flat).ok());

  // Plan against the current state: the context snapshot pins both the
  // old relation and the old index.
  auto old_db = engine.Table("db");
  ASSERT_TRUE(old_db.ok());
  auto plan = plan::Optimize(plan::EJoin(
      plan::Scan("q", *engine.Table("q")), plan::Scan("db", *old_db), "emb",
      "emb", nullptr, join::JoinCondition::TopK(1)));
  plan::ExecContext context = engine.MakeExecContext();
  context.force_operator = "index";

  // Concurrent-replacement hazard, serialized: the catalog drops the
  // index, but the held snapshot must keep it probe-safe.
  ASSERT_TRUE(
      engine
          .ReplaceTable("db",
                        VectorTable(workload::RandomUnitVectors(50, dim, 173)))
          .ok());
  plan::ExecStats stats;
  auto result = plan::Execute(plan, context, &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(stats.join_operator, "index");
  EXPECT_EQ(result->num_rows(), 10u);  // Top-1 per left row, old contents.

  // A FRESH context sees the post-replacement catalog: no index.
  plan::ExecContext fresh = engine.MakeExecContext();
  EXPECT_EQ(fresh.index_catalog->size(), 0u);
}

// An embedding model whose calls block until Open(): lets a test hold a
// background build inside its embedding phase while the main thread
// races a ReplaceTable against it.
class GatedModel : public model::EmbeddingModel {
 public:
  size_t dim() const override { return 4; }

  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }

 protected:
  void EmbedImpl(std::string_view input, float* out) const override {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return open_; });
    for (size_t d = 0; d < dim(); ++d) out[d] = 0.0f;
    out[input.size() % dim()] = 1.0f;
  }

 private:
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  bool open_ = false;
};

TEST(IndexSnapshotTest, BuildRacingReplaceTableDiscardsItsResult) {
  // A build that STARTED before a ReplaceTable covers the old contents;
  // publishing it after the invalidation would silently reintroduce the
  // stale-index hazard. The generation check must discard it.
  Engine::Options options;
  options.index_auto_build_losses = 1;
  options.index_auto_build_options.family = index::IndexFamily::kFlat;
  Engine engine(options);
  GatedModel model;
  auto words = workload::RandomStrings(30, 4, 8, 191);
  ASSERT_TRUE(engine.RegisterTable("r", WordsTable(words, 192)).ok());
  ASSERT_TRUE(engine.RegisterModel("gated", &model).ok());

  // Trip the policy directly with plan-time state (relation + its
  // generation): the background build starts and blocks inside the gated
  // embedding.
  auto relation = engine.Table("r");
  ASSERT_TRUE(relation.ok());
  engine.index_manager()->RecordIndexLoss(
      "r", *relation, "word", &model,
      engine.index_manager()->Snapshot()->TableGeneration("r"));

  // The table is replaced while the build is in flight...
  ASSERT_TRUE(
      engine.ReplaceTable("r", WordsTable(workload::RandomStrings(30, 4, 8,
                                                                  193),
                                          194))
          .ok());
  model.Open();
  engine.index_manager()->WaitForBackgroundBuilds();

  // ...so its result was discarded, not published: no stale index, no
  // stale cache entry.
  const auto stats = engine.index_manager()->stats();
  EXPECT_EQ(stats.stale_builds_discarded, 1u);
  EXPECT_EQ(stats.builds, 0u);
  EXPECT_EQ(engine.index_manager()->Snapshot()->size(), 0u);
  EXPECT_EQ(engine.embedding_cache()->stats().entries, 0u);
}

TEST(IndexSnapshotTest, LossFromAStalePlanCannotPublish) {
  // The inverse interleaving: the ReplaceTable completes BEFORE the loss
  // is recorded, but the loss carries the PLAN-TIME relation and
  // generation (a long-running query that planned against the old
  // table). The auto-build from that stale pair must be discarded.
  Engine::Options options;
  options.index_auto_build_losses = 1;
  options.index_auto_build_options.family = index::IndexFamily::kFlat;
  Engine engine(options);
  model::SubwordHashModel model;
  ASSERT_TRUE(engine
                  .RegisterTable("r", WordsTable(workload::RandomStrings(
                                                     25, 4, 8, 195),
                                                 196))
                  .ok());
  ASSERT_TRUE(engine.RegisterModel("m", &model).ok());

  // Plan-time state.
  auto old_relation = engine.Table("r");
  ASSERT_TRUE(old_relation.ok());
  const uint64_t plan_generation =
      engine.index_manager()->Snapshot()->TableGeneration("r");

  // The table is replaced, THEN the stale plan reports its loss.
  ASSERT_TRUE(
      engine.ReplaceTable("r", WordsTable(workload::RandomStrings(25, 4, 8,
                                                                  197),
                                          198))
          .ok());
  engine.index_manager()->RecordIndexLoss("r", *old_relation, "word", &model,
                                          plan_generation);
  engine.index_manager()->WaitForBackgroundBuilds();

  const auto stats = engine.index_manager()->stats();
  EXPECT_EQ(stats.stale_builds_discarded, 1u);
  EXPECT_EQ(stats.builds, 0u);
  EXPECT_EQ(engine.index_manager()->Snapshot()->size(), 0u);
}

// ---------------------------------------------------------------------------
// Concurrency: BuildIndex racing Stream (TSan coverage)
// ---------------------------------------------------------------------------

TEST(IndexConcurrencyTest, ConcurrentBuildIndexAndStream) {
  Engine::Options options;
  options.num_threads = 2;
  Engine engine(options);
  model::SubwordHashModel model;
  auto left_words = workload::RandomStrings(15, 4, 8, 181);
  auto right_words = workload::RandomStrings(400, 4, 8, 182);
  right_words.insert(right_words.end(), left_words.begin(),
                     left_words.end());
  ASSERT_TRUE(engine.RegisterTable("l", WordsTable(left_words, 183)).ok());
  ASSERT_TRUE(engine.RegisterTable("r", WordsTable(right_words, 184)).ok());
  ASSERT_TRUE(engine.RegisterModel("subword", &model).ok());
  const auto condition = join::JoinCondition::Threshold(0.5f);

  join::MaterializingSink reference_sink;
  ASSERT_TRUE(engine.Query("l")
                  .EJoin("r", "word", condition)
                  .Via("tensor")
                  .Stream(&reference_sink)
                  .ok());
  ASSERT_GT(reference_sink.pairs().size(), 0u);

  // Readers stream (unforced — they may pick up the index as it appears)
  // while the main thread builds all three families over the same table.
  constexpr size_t kThreads = 4;
  constexpr int kQueriesPerThread = 4;
  std::vector<Status> statuses(kThreads, Status::OK());
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kQueriesPerThread; ++i) {
        join::MaterializingSink sink;
        Status status = engine.Query("l")
                            .EJoin("r", "word", condition)
                            .Via("tensor")
                            .Stream(&sink)
                            .status();
        if (!status.ok()) {
          statuses[t] = status;
          return;
        }
        if (sink.pairs() != reference_sink.pairs()) {
          statuses[t] = Status::Internal("pairs diverged mid-build");
          return;
        }
      }
    });
  }

  index::IndexBuildOptions build;
  build.family = index::IndexFamily::kFlat;
  EXPECT_TRUE(engine.BuildIndex("r", "word", build).ok());
  build.family = index::IndexFamily::kIvf;
  build.ivf.nlist = 8;
  EXPECT_TRUE(engine.BuildIndex("r", "word", build).ok());
  build.family = index::IndexFamily::kHnsw;
  build.hnsw.m = 8;
  build.hnsw.ef_construction = 32;
  EXPECT_TRUE(engine.BuildIndex("r", "word", build).ok());

  for (auto& thread : threads) thread.join();
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(statuses[t].ok()) << "thread " << t << ": "
                                  << statuses[t].ToString();
  }

  // And the builds all published: the snapshot resolves the latest one.
  auto snapshot = engine.index_manager()->Snapshot();
  const index::IndexCatalogEntry* entry =
      snapshot->Find("r", "word_emb", &model);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->family, index::IndexFamily::kHnsw);
  EXPECT_EQ(snapshot->size(), 3u);
}

}  // namespace
}  // namespace cej
