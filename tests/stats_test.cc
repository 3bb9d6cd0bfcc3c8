// The adaptive statistics & cost-calibration subsystem (cej::stats):
// synthetic-timing convergence of the least-squares calibrator, the
// end-to-end skewed-seed operator flip through the Engine, snapshot
// isolation of refits against running plans, calibration persistence with
// corrupt-envelope rejection, cache-aware costing (partial hits priced
// asymmetrically; a cold stream fills the cache for the next one),
// exactness-aware probe traits under RequireExact(), the family-aware
// auto-build policy, and concurrent adaptive streams (TSan suite).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cej/cej.h"
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
    const std::vector<std::string>& words) {
  auto schema = Schema::Create({{"word", DataType::kString, 0}});
  CEJ_CHECK(schema.ok());
  std::vector<Column> columns;
  columns.push_back(Column::String(words));
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

// ---------------------------------------------------------------------------
// Calibrator: deterministic synthetic-timing convergence
// ---------------------------------------------------------------------------

join::JoinWorkload SyntheticWorkload(size_t m, size_t n, bool index) {
  join::JoinWorkload w;
  w.left_rows = m;
  w.right_rows = n;
  w.dim = 64;
  w.condition = join::JoinCondition::Threshold(0.7f);
  w.index_available = index;
  return w;
}

TEST(CostCalibratorTest, ConvergesFromSkewedSeedOnSyntheticTimings) {
  // Ground truth the synthetic machine obeys; the seed is wrong about
  // every calibrated coefficient (model off by ~10^5, compute by 5x,
  // tensor efficiency by 25x — the blocked sweep priced SLOWER than the
  // NLJ pair loop).
  join::CostParams truth;
  truth.access = 2.0;
  truth.model = 900.0;
  truth.compute = 8.0;
  truth.tensor_efficiency = 0.12;
  truth.probe_per_candidate = 25.0;
  join::CostParams skewed;
  skewed.model = 0.01;
  skewed.compute = 40.0;
  skewed.tensor_efficiency = 3.0;
  skewed.probe_per_candidate = 4000.0;

  stats::CostCalibrator::Options options;
  options.seed = skewed;
  options.refit_interval = 0;  // Manual refits: one per round below.
  options.decay = 1.0;
  stats::CostCalibrator calibrator(options);

  const std::vector<std::pair<size_t, size_t>> shapes = {
      {16, 400}, {64, 100}, {8, 1000}, {128, 64}};
  const std::vector<std::string> operators = {"naive_nlj", "prefetch_nlj",
                                              "tensor", "index"};
  for (int round = 0; round < 4; ++round) {
    for (const auto& [m, n] : shapes) {
      for (const std::string& op : operators) {
        const join::JoinWorkload w = SyntheticWorkload(m, n, op == "index");
        const auto current = calibrator.Current();
        stats::Observation obs;
        obs.op = op;
        obs.features = join::FeaturesForOperator(op, w, *current);
        obs.estimated_ns = join::PriceFeatures(obs.features, *current);
        // The synthetic machine: the same decomposition, priced with the
        // TRUE coefficients. Deterministic — no wall clocks involved.
        obs.measured_ns = join::PriceFeatures(
            join::FeaturesForOperator(op, w, truth), truth);
        obs.left_rows = m;
        obs.right_rows = n;
        calibrator.Record(std::move(obs));
      }
    }
    calibrator.Refit();
  }

  // Per-refit estimated-vs-actual error shrinks monotonically (tiny slack
  // for the non-calibrated fixed-term bias) and collapses overall.
  const auto history = calibrator.refit_history();
  ASSERT_EQ(history.size(), 4u);
  for (size_t i = 0; i + 1 < history.size(); ++i) {
    EXPECT_LE(history[i + 1].mean_abs_log_error,
              history[i].mean_abs_log_error * 1.05 + 0.02)
        << "refit " << i + 1;
  }
  EXPECT_LT(history.back().mean_abs_log_error,
            history.front().mean_abs_log_error / 20.0);

  // The published coefficients recovered the truth.
  const join::CostParams fitted = *calibrator.Current();
  const double truth_pair = truth.access + truth.compute;
  const double fitted_pair = fitted.access + fitted.compute;
  EXPECT_NEAR(fitted.model, truth.model, truth.model * 0.05);
  EXPECT_NEAR(fitted_pair, truth_pair, truth_pair * 0.10);
  EXPECT_NEAR(fitted_pair * fitted.tensor_efficiency,
              truth_pair * truth.tensor_efficiency,
              truth_pair * truth.tensor_efficiency * 0.10);
  EXPECT_NEAR(fitted_pair * fitted.probe_per_candidate,
              truth_pair * truth.probe_per_candidate,
              truth_pair * truth.probe_per_candidate * 0.10);

  // And with them, the scan would now pick the operator the truth picks.
  const join::JoinWorkload probe_shape = SyntheticWorkload(32, 5000, true);
  auto cheapest = [&](const join::CostParams& p) {
    std::string best;
    double best_cost = std::numeric_limits<double>::infinity();
    for (const std::string& op : operators) {
      const double cost = join::PriceFeatures(
          join::FeaturesForOperator(op, probe_shape, p), p);
      if (cost < best_cost) {
        best_cost = cost;
        best = op;
      }
    }
    return best;
  };
  EXPECT_EQ(cheapest(fitted), cheapest(truth));
  EXPECT_NE(cheapest(skewed), cheapest(truth))
      << "the skew was supposed to mislead the seed scan";
}

// ---------------------------------------------------------------------------
// End-to-end: the acceptance flip
// ---------------------------------------------------------------------------

TEST(AdaptiveEngineTest, SkewedSeedScanFlipsFromNaiveToTensorWithinEight) {
  // Seed CostParams deliberately skewed (model cost ~ 0): the string-key
  // registry scan prices the naive NLJ at the prefetched operators' level,
  // and exploration runs it first — on a join `tensor` genuinely wins.
  // With calibration enabled, measured reality reprices the model
  // coefficient and the unforced scan must flip to `tensor` within 8
  // observed queries, with byte-identical results throughout and the
  // estimated-vs-actual error collapsing across refits.
  Engine::Options options;
  options.num_threads = 0;  // No pool: the exact string-domain trio only.
  options.adaptive_stats = true;
  options.stats_refit_interval = 1;
  // A tight exploration bound: the mispriced naive baseline (quoted
  // ~6.6x the blocked sweep under the skew) gets its one exploratory run,
  // while the prefetched NLJ never does. Once the model coefficient is
  // learned its quote sits ~13-16x above the calibrated tensor quote, so
  // a bound of 16 would let it run on some hosts, and the scan could then
  // settle on either. A bound of 8 keeps the flip independent of timing
  // noise.
  options.stats_explore_cost_ratio = 8.0;
  Engine engine(options);
  model::SubwordHashModel model;
  // Sweep-dominant shape: |R| x |S| pair work dwarfs the |R| + |S| embed
  // work, so the naive NLJ's per-pair model calls price it far above the
  // embed-once operators once the model coefficient is learned.
  auto left_words = workload::RandomStrings(96, 3, 6, 301);
  auto right_words = workload::RandomStrings(1404, 3, 6, 302);
  // Guarantee matches: every left word appears verbatim on the right.
  right_words.insert(right_words.end(), left_words.begin(),
                     left_words.end());
  ASSERT_TRUE(engine.RegisterTable("l", WordsTable(left_words)).ok());
  ASSERT_TRUE(engine.RegisterTable("r", WordsTable(right_words)).ok());
  ASSERT_TRUE(engine.RegisterModel("subword", &model).ok());

  join::CostParams skewed;  // Default A/C/efficiency, but free embedding.
  skewed.model = 0.01;
  engine.set_cost_params(skewed);

  const auto condition = join::JoinCondition::Threshold(0.5f);
  std::vector<std::string> chosen;
  std::vector<std::vector<std::string>> rendered;
  for (int query = 0; query < 8; ++query) {
    auto result = engine.Query("l")
                      .EJoin("r", "word", condition)
                      .WithoutOptimizer()
                      .Execute();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    chosen.push_back(result->stats.join_operator);
    rendered.push_back(RenderPairs(result->relation));
    EXPECT_GT(result->stats.estimated_cost_ns, 0.0) << "query " << query;
    EXPECT_GT(result->stats.measured_cost_ns, 0.0) << "query " << query;
  }

  // Query 1 ran the mispriced naive baseline (exploration, earliest
  // registration order); by query 8 the unforced scan settled on tensor.
  EXPECT_EQ(chosen.front(), "naive_nlj");
  std::string sequence;
  for (const std::string& name : chosen) sequence += name + " ";
  EXPECT_EQ(chosen.back(), "tensor") << "operators chosen: " << sequence;
  EXPECT_NE(std::find(chosen.begin(), chosen.end(), "tensor"),
            chosen.end());

  // Byte-identical results across every operator the scan tried.
  ASSERT_GT(rendered.front().size(), 0u);
  for (size_t i = 1; i < rendered.size(); ++i) {
    EXPECT_EQ(rendered[i], rendered.front()) << "query " << i;
  }

  // Estimated-vs-actual error collapsed across refits: the skew-era
  // window dwarfs the calibrated tail.
  const auto history = engine.calibrator()->refit_history();
  ASSERT_GE(history.size(), 4u);
  EXPECT_LT(history.back().mean_abs_log_error,
            history.front().mean_abs_log_error / 4.0);
  EXPECT_LT(history.back().mean_abs_log_error, 1.0);

  const auto stats = engine.calibrator()->stats();
  EXPECT_EQ(stats.observations, 8u);
  EXPECT_GE(stats.explorations, 1u);
}

// ---------------------------------------------------------------------------
// Snapshot isolation
// ---------------------------------------------------------------------------

TEST(AdaptiveEngineTest, RefitNeverChangesARunningPlansPrices) {
  Engine::Options options;
  options.adaptive_stats = true;
  options.stats_refit_interval = 1;
  Engine engine(options);
  model::SubwordHashModel model;
  ASSERT_TRUE(
      engine.RegisterTable("l", WordsTable(workload::RandomStrings(
                                    12, 4, 8, 311)))
          .ok());
  ASSERT_TRUE(
      engine.RegisterTable("r", WordsTable(workload::RandomStrings(
                                    80, 4, 8, 312)))
          .ok());
  ASSERT_TRUE(engine.RegisterModel("subword", &model).ok());

  // A plan-time context copies the snapshot: refits publish NEW params,
  // they never mutate the copy a running plan priced with.
  const plan::ExecContext context = engine.MakeExecContext();
  const double model_cost_at_plan_time = context.cost_params.model;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(engine.Query("l")
                    .EJoin("r", "word", join::JoinCondition::Threshold(0.5f))
                    .Execute()
                    .ok());
  }
  EXPECT_GE(engine.calibrator()->stats().refits, 4u);
  EXPECT_NE(engine.calibrator()->Current()->model, model_cost_at_plan_time)
      << "calibration should have repriced the model coefficient";
  EXPECT_EQ(context.cost_params.model, model_cost_at_plan_time)
      << "a held context's prices moved under a refit";

  // A refit landing MID-stream: the stream completes on the prices it
  // planned with and reproduces the reference pairs exactly.
  join::MaterializingSink reference;
  ASSERT_TRUE(engine.Query("l")
                  .EJoin("r", "word", join::JoinCondition::TopK(2))
                  .Via("tensor")
                  .Stream(&reference)
                  .ok());
  std::vector<join::JoinPair> streamed;
  std::atomic<bool> recalibrated{false};
  join::CallbackSink mid_stream_refit(
      [&](const join::JoinPair* pairs, size_t count) {
        if (!recalibrated.exchange(true)) {
          EXPECT_TRUE(engine.Recalibrate().ok());
        }
        streamed.insert(streamed.end(), pairs, pairs + count);
        return true;
      });
  ASSERT_TRUE(engine.Query("l")
                  .EJoin("r", "word", join::JoinCondition::TopK(2))
                  .Via("tensor")
                  .Stream(&mid_stream_refit)
                  .ok());
  join::SortPairs(&streamed);
  EXPECT_EQ(streamed, reference.pairs());
  EXPECT_TRUE(recalibrated.load());
}

// ---------------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------------

TEST(AdaptiveEngineTest, CalibrationSaveLoadRoundTripAndCorruptRejection) {
  Engine::Options options;
  options.adaptive_stats = true;
  options.stats_refit_interval = 2;
  Engine engine(options);
  model::SubwordHashModel model;
  ASSERT_TRUE(
      engine.RegisterTable("l", WordsTable(workload::RandomStrings(
                                    16, 4, 8, 321)))
          .ok());
  ASSERT_TRUE(
      engine.RegisterTable("r", WordsTable(workload::RandomStrings(
                                    90, 4, 8, 322)))
          .ok());
  ASSERT_TRUE(engine.RegisterModel("subword", &model).ok());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(engine.Query("l")
                    .EJoin("r", "word", join::JoinCondition::Threshold(0.5f))
                    .Execute()
                    .ok());
  }
  ASSERT_TRUE(engine.Recalibrate().ok());
  const join::CostParams trained = *engine.calibrator()->Current();
  EXPECT_NE(trained.model, join::CostParams{}.model);

  const std::string path = TempPath("cej_calibration.bin");
  ASSERT_TRUE(engine.SaveCalibration(path).ok());

  // A fresh process (engine) restores the same published coefficients.
  Engine::Options fresh_options;
  fresh_options.adaptive_stats = true;
  Engine fresh(fresh_options);
  ASSERT_TRUE(fresh.LoadCalibration(path).ok());
  const join::CostParams loaded = *fresh.calibrator()->Current();
  EXPECT_DOUBLE_EQ(loaded.model, trained.model);
  EXPECT_DOUBLE_EQ(loaded.compute, trained.compute);
  EXPECT_DOUBLE_EQ(loaded.tensor_efficiency, trained.tensor_efficiency);
  EXPECT_DOUBLE_EQ(loaded.probe_per_candidate, trained.probe_per_candidate);

  // Corruption: a foreign file, a truncated envelope, and a single flipped
  // payload byte must all be rejected — without touching current state.
  const std::string foreign = TempPath("cej_calibration_foreign.bin");
  {
    std::FILE* f = std::fopen(foreign.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("definitely not a calibration envelope", f);
    std::fclose(f);
  }
  EXPECT_FALSE(fresh.LoadCalibration(foreign).ok());

  std::vector<unsigned char> bytes;
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    int c;
    while ((c = std::fgetc(f)) != EOF) bytes.push_back(c);
    std::fclose(f);
  }
  const std::string truncated = TempPath("cej_calibration_truncated.bin");
  {
    std::FILE* f = std::fopen(truncated.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(bytes.data(), 1, bytes.size() / 2, f);
    std::fclose(f);
  }
  EXPECT_FALSE(fresh.LoadCalibration(truncated).ok());
  const std::string flipped = TempPath("cej_calibration_flipped.bin");
  {
    std::vector<unsigned char> corrupt = bytes;
    corrupt[corrupt.size() / 2] ^= 0x40;
    std::FILE* f = std::fopen(flipped.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(corrupt.data(), 1, corrupt.size(), f);
    std::fclose(f);
  }
  EXPECT_FALSE(fresh.LoadCalibration(flipped).ok());
  EXPECT_DOUBLE_EQ(fresh.calibrator()->Current()->model, trained.model)
      << "a rejected envelope must not perturb the loaded state";
}

// ---------------------------------------------------------------------------
// Cache-aware costing
// ---------------------------------------------------------------------------

TEST(CacheAwareCostingTest, PartialHitsArePricedAsymmetrically) {
  auto& registry = join::JoinOperatorRegistry::Global();
  const join::JoinOperator* tensor = *registry.Find("tensor");
  join::CostParams params;
  join::JoinWorkload w;
  w.left_rows = 100;
  w.right_rows = 1000;
  w.dim = 32;
  const double cold = tensor->EstimateCost(w, params);
  w.left_embed_cached = true;  // Warm left, cold right.
  const double left_warm = tensor->EstimateCost(w, params);
  w.left_embed_cached = false;
  w.right_embed_cached = true;  // Cold left, warm right.
  const double right_warm = tensor->EstimateCost(w, params);
  w.left_embed_cached = true;  // Both warm.
  const double both_warm = tensor->EstimateCost(w, params);
  // Each side drops exactly its own model term — never all-or-nothing.
  EXPECT_DOUBLE_EQ(cold - left_warm, 100.0 * params.model);
  EXPECT_DOUBLE_EQ(cold - right_warm, 1000.0 * params.model);
  EXPECT_DOUBLE_EQ(cold - both_warm, 1100.0 * params.model);
}

TEST(CacheAwareCostingTest, ColdStreamFillsTheCacheForAWarmTensorStream) {
  Engine::Options options;
  options.num_threads = 2;
  Engine engine(options);
  model::SubwordHashModel model;
  auto left_words = workload::RandomStrings(15, 4, 8, 331);
  auto right_words = workload::RandomStrings(60, 4, 8, 332);
  ASSERT_TRUE(engine.RegisterTable("l", WordsTable(left_words)).ok());
  ASSERT_TRUE(engine.RegisterTable("r", WordsTable(right_words)).ok());
  ASSERT_TRUE(engine.RegisterModel("subword", &model).ok());
  const auto condition = join::JoinCondition::TopK(2);

  // Cold cache: the stream embeds both columns once, before the sweep,
  // and puts them in the embedding cache. 60 right rows are below the
  // shard floor, so plain `tensor` wins the unforced scan.
  join::CountingSink cold_sink;
  plan::ExecStats cold_stats;
  ASSERT_TRUE(engine.Query("l")
                  .EJoin("r", "word", condition)
                  .Stream(&cold_sink, &cold_stats)
                  .ok());
  EXPECT_EQ(cold_stats.join_operator, "tensor");
  EXPECT_EQ(cold_stats.model_calls, left_words.size() + right_words.size());

  // Warm cache: the model terms drop out of the quotes, and plain
  // `tensor` still wins the unforced scan (ROADMAP "cache-aware
  // costing").
  join::CountingSink warm_sink;
  plan::ExecStats warm_stats;
  ASSERT_TRUE(engine.Query("l")
                  .EJoin("r", "word", condition)
                  .Stream(&warm_sink, &warm_stats)
                  .ok());
  EXPECT_EQ(warm_stats.join_operator, "tensor");
  EXPECT_EQ(warm_sink.count(), cold_sink.count());
  // Served from the cache: the warm stream made zero model calls.
  EXPECT_EQ(warm_stats.model_calls, 0u);
}

// ---------------------------------------------------------------------------
// Exactness-aware probe traits
// ---------------------------------------------------------------------------

TEST(ExactnessTest, RequireExactAdmitsFlatIndexPlansButNotGraphs) {
  la::Matrix left = workload::RandomUnitVectors(4, 8, 341);
  la::Matrix right = workload::RandomUnitVectors(1500, 8, 342);
  join::CostParams cheap_probes;
  cheap_probes.probe_base = 0.0;
  cheap_probes.probe_per_candidate = 0.01;
  const auto condition = join::JoinCondition::TopK(2);

  Engine::Options options;
  Engine flat_engine(options);
  ASSERT_TRUE(
      flat_engine.RegisterTable("q", VectorTable(left.Clone())).ok());
  ASSERT_TRUE(
      flat_engine.RegisterTable("db", VectorTable(right.Clone())).ok());
  flat_engine.set_cost_params(cheap_probes);
  index::IndexBuildOptions flat_build;
  flat_build.family = index::IndexFamily::kFlat;
  ASSERT_TRUE(flat_engine.BuildIndex("db", "emb", flat_build).ok());

  // A flat entry is exact: RequireExact() must admit — and, priced
  // cheapest, choose — the probe path (the seed-era bug rejected it).
  auto exact = flat_engine.Query("q")
                   .EJoin("db", "emb", condition)
                   .RequireExact()
                   .Execute();
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  EXPECT_EQ(exact->stats.join_operator, "index");
  auto tensor = flat_engine.Query("q")
                    .EJoin("db", "emb", condition)
                    .Via("tensor")
                    .Execute();
  ASSERT_TRUE(tensor.ok());
  const auto& a =
      exact->relation.ColumnByName("similarity").value()->double_values();
  const auto& b =
      tensor->relation.ColumnByName("similarity").value()->double_values();
  EXPECT_EQ(a, b) << "flat probes must be byte-identical to the scan";

  // A graph-family entry stays approximate: RequireExact() rejects it
  // even though it prices cheapest; without the constraint it is chosen.
  Engine hnsw_engine(options);
  ASSERT_TRUE(
      hnsw_engine.RegisterTable("q", VectorTable(left.Clone())).ok());
  ASSERT_TRUE(
      hnsw_engine.RegisterTable("db", VectorTable(right.Clone())).ok());
  hnsw_engine.set_cost_params(cheap_probes);
  index::IndexBuildOptions hnsw_build;
  hnsw_build.family = index::IndexFamily::kHnsw;
  ASSERT_TRUE(hnsw_engine.BuildIndex("db", "emb", hnsw_build).ok());
  auto rejected = hnsw_engine.Query("q")
                      .EJoin("db", "emb", condition)
                      .RequireExact()
                      .Execute();
  ASSERT_TRUE(rejected.ok());
  EXPECT_NE(rejected->stats.join_operator, "index");
  auto admitted =
      hnsw_engine.Query("q").EJoin("db", "emb", condition).Execute();
  ASSERT_TRUE(admitted.ok());
  EXPECT_EQ(admitted->stats.join_operator, "index");
}

// ---------------------------------------------------------------------------
// Family-aware auto-build
// ---------------------------------------------------------------------------

TEST(FamilyAwareAutoBuildTest, RuleCoversTheWorkloadMatrix) {
  using index::ChooseIndexFamily;
  using index::IndexFamily;
  // A recall guarantee forces the exact family regardless of shape.
  EXPECT_EQ(ChooseIndexFamily(1000, 1'000'000, true, 0.9999),
            IndexFamily::kFlat);
  // Small tables: brute force beats any structure, build is a no-op.
  EXPECT_EQ(ChooseIndexFamily(500, 5'000, true, 0.9), IndexFamily::kFlat);
  // Large, top-k dominated, batches big enough to amortize a graph build.
  EXPECT_EQ(ChooseIndexFamily(64, 500'000, true, 0.9), IndexFamily::kHnsw);
  // Range/threshold dominated: cluster scans, an order cheaper to build.
  EXPECT_EQ(ChooseIndexFamily(64, 500'000, false, 0.9), IndexFamily::kIvf);
  // Top-k but a trickle of tiny batches: the graph build never pays off.
  EXPECT_EQ(ChooseIndexFamily(4, 500'000, true, 0.9), IndexFamily::kIvf);
}

TEST(FamilyAwareAutoBuildTest, PolicyOverridesTheConfiguredFamily) {
  // Configured to build HNSW — but the observed workload (a 500-row
  // table) makes flat the right answer, and family-aware mode must
  // override the configuration from evidence.
  Engine::Options options;
  options.num_threads = 2;
  options.index_auto_build_losses = 2;
  options.index_auto_build_options.family = index::IndexFamily::kHnsw;
  options.index_auto_build_family_aware = true;
  options.index_auto_build_recall = 0.9;
  Engine engine(options);
  ASSERT_TRUE(engine.RegisterTable(
                  "q", VectorTable(workload::RandomUnitVectors(40, 8, 351)))
                  .ok());
  ASSERT_TRUE(engine.RegisterTable(
                  "db", VectorTable(workload::RandomUnitVectors(500, 8, 352)))
                  .ok());
  join::CostParams cheap_probes;
  cheap_probes.probe_base = 0.0;
  cheap_probes.probe_per_candidate = 1e-9;
  engine.set_cost_params(cheap_probes);

  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(engine.Query("q")
                    .EJoin("db", "emb", join::JoinCondition::TopK(2))
                    .Execute()
                    .ok());
  }
  engine.index_manager()->WaitForBackgroundBuilds();
  auto snapshot = engine.index_manager()->Snapshot();
  const index::IndexCatalogEntry* entry =
      snapshot->Find("db", "emb", nullptr);
  ASSERT_NE(entry, nullptr) << "the auto-build should have published";
  EXPECT_EQ(entry->family, index::IndexFamily::kFlat)
      << "family-aware policy must override the configured HNSW";

  // The published flat index serves the next query unforced.
  auto probe = engine.Query("q")
                   .EJoin("db", "emb", join::JoinCondition::TopK(2))
                   .Execute();
  ASSERT_TRUE(probe.ok());
  EXPECT_EQ(probe->stats.join_operator, "index");
}

TEST(FamilyAwareAutoBuildTest, LargeThresholdWorkloadsGetIvf) {
  Engine::Options options;
  options.num_threads = 2;
  options.index_auto_build_losses = 2;
  options.index_auto_build_options.family = index::IndexFamily::kFlat;
  options.index_auto_build_family_aware = true;
  options.index_auto_build_recall = 0.9;
  Engine engine(options);
  ASSERT_TRUE(engine.RegisterTable(
                  "q", VectorTable(workload::RandomUnitVectors(64, 4, 361)))
                  .ok());
  ASSERT_TRUE(
      engine
          .RegisterTable(
              "db", VectorTable(workload::RandomUnitVectors(21'000, 4, 362)))
          .ok());
  join::CostParams cheap_probes;
  cheap_probes.probe_base = 0.0;
  cheap_probes.probe_per_candidate = 1e-9;
  engine.set_cost_params(cheap_probes);

  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(engine.Query("q")
                    .EJoin("db", "emb", join::JoinCondition::Threshold(0.8f))
                    .Execute()
                    .ok());
  }
  engine.index_manager()->WaitForBackgroundBuilds();
  auto snapshot = engine.index_manager()->Snapshot();
  const index::IndexCatalogEntry* entry =
      snapshot->Find("db", "emb", nullptr);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->family, index::IndexFamily::kIvf)
      << "threshold-dominated losses over a large table should pick IVF";
}

// ---------------------------------------------------------------------------
// Explain
// ---------------------------------------------------------------------------

TEST(AdaptiveEngineTest, ExplainShowsCalibratedCoefficientsAndHistory) {
  Engine::Options options;
  options.adaptive_stats = true;
  options.stats_refit_interval = 1;
  Engine engine(options);
  model::SubwordHashModel model;
  ASSERT_TRUE(
      engine.RegisterTable("l", WordsTable(workload::RandomStrings(
                                    10, 4, 8, 371)))
          .ok());
  ASSERT_TRUE(
      engine.RegisterTable("r", WordsTable(workload::RandomStrings(
                                    50, 4, 8, 372)))
          .ok());
  ASSERT_TRUE(engine.RegisterModel("subword", &model).ok());
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(engine.Query("l")
                    .EJoin("r", "word", join::JoinCondition::Threshold(0.5f))
                    .Execute()
                    .ok());
  }
  auto explain = engine.Query("l")
                     .EJoin("r", "word", join::JoinCondition::Threshold(0.5f))
                     .Explain();
  ASSERT_TRUE(explain.ok());
  EXPECT_NE(explain->find("adaptive stats"), std::string::npos);
  EXPECT_NE(explain->find("tensor_efficiency"), std::string::npos);
  EXPECT_NE(explain->find("recent joins"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Exploration budget
// ---------------------------------------------------------------------------

TEST(CostCalibratorTest, ExplorationBudgetGatesOnCumulativeOverrun) {
  stats::CostCalibrator::Options options;
  options.explore_budget_ns = 1000.0;
  stats::CostCalibrator calibrator(options);
  EXPECT_TRUE(calibrator.ExplorationAllowed());
  EXPECT_EQ(calibrator.exploration_overhead_ns(), 0.0);

  // An exploration that beat the quote it displaced costs nothing.
  stats::Observation cheap;
  cheap.op = "tensor";
  cheap.explored = true;
  cheap.runner_up_ns = 900.0;
  cheap.measured_ns = 400.0;
  cheap.estimated_ns = 500.0;
  calibrator.Record(std::move(cheap));
  EXPECT_TRUE(calibrator.ExplorationAllowed());
  EXPECT_EQ(calibrator.exploration_overhead_ns(), 0.0);

  // One that overran by 1500 ns exhausts the 1000 ns budget.
  stats::Observation costly;
  costly.op = "naive_nlj";
  costly.explored = true;
  costly.runner_up_ns = 500.0;
  costly.measured_ns = 2000.0;
  costly.estimated_ns = 600.0;
  calibrator.Record(std::move(costly));
  EXPECT_FALSE(calibrator.ExplorationAllowed());
  EXPECT_EQ(calibrator.exploration_overhead_ns(), 1500.0);
  EXPECT_EQ(calibrator.stats().explorations, 2u);

  // An unbounded budget never gates.
  stats::CostCalibrator::Options unbounded;
  unbounded.explore_budget_ns = 0.0;
  stats::CostCalibrator free_calibrator(unbounded);
  stats::Observation again;
  again.op = "naive_nlj";
  again.explored = true;
  again.runner_up_ns = 1.0;
  again.measured_ns = 1e9;
  free_calibrator.Record(std::move(again));
  EXPECT_TRUE(free_calibrator.ExplorationAllowed());
}

TEST(AdaptiveEngineTest, ExplorationBudgetStopsEngineExploration) {
  // Skewed seed (free embedding) quotes the naive NLJ at parity, so query
  // 1 explores it and overruns its displaced quote by orders of
  // magnitude. With a 1 ns budget that single overrun must end
  // exploration for good; unbounded, the wide-open explore ratio keeps
  // exploring the remaining unobserved operators (the prefetched NLJ on
  // query 2, priced far above the sweep by then).
  const auto run = [](double budget_ns) {
    Engine::Options options;
    options.num_threads = 0;
    options.adaptive_stats = true;
    options.stats_refit_interval = 1;
    options.stats_explore_cost_ratio = 1e9;
    options.stats_explore_budget_ns = budget_ns;
    Engine engine(options);
    model::SubwordHashModel model;
    auto left_words = workload::RandomStrings(32, 3, 6, 601);
    auto right_words = workload::RandomStrings(400, 3, 6, 602);
    CEJ_CHECK(engine.RegisterTable("l", WordsTable(left_words)).ok());
    CEJ_CHECK(engine.RegisterTable("r", WordsTable(right_words)).ok());
    CEJ_CHECK(engine.RegisterModel("subword", &model).ok());
    join::CostParams skewed;
    skewed.model = 0.01;
    engine.set_cost_params(skewed);
    for (int query = 0; query < 5; ++query) {
      auto result = engine.Query("l")
                        .EJoin("r", "word",
                               join::JoinCondition::Threshold(0.5f))
                        .WithoutOptimizer()
                        .Execute();
      CEJ_CHECK(result.ok());
    }
    return engine.calibrator()->stats();
  };

  const auto bounded = run(1.0);
  EXPECT_EQ(bounded.explorations, 1u);
  EXPECT_GT(bounded.exploration_overhead_ns, 1.0);

  const auto unbounded = run(0.0);
  EXPECT_GE(unbounded.explorations, 2u);
}

// ---------------------------------------------------------------------------
// Concurrency (TSan suite)
// ---------------------------------------------------------------------------

TEST(AdaptiveConcurrencyTest, ConcurrentStreamsRecordAndRefitSafely) {
  Engine::Options options;
  options.num_threads = 2;
  options.adaptive_stats = true;
  options.stats_refit_interval = 2;
  Engine engine(options);
  model::SubwordHashModel model;
  auto left_words = workload::RandomStrings(20, 4, 8, 381);
  auto right_words = workload::RandomStrings(300, 4, 8, 382);
  ASSERT_TRUE(engine.RegisterTable("l", WordsTable(left_words)).ok());
  ASSERT_TRUE(engine.RegisterTable("r", WordsTable(right_words)).ok());
  ASSERT_TRUE(engine.RegisterModel("subword", &model).ok());
  const auto condition = join::JoinCondition::Threshold(0.5f);

  join::MaterializingSink reference;
  ASSERT_TRUE(engine.Query("l")
                  .EJoin("r", "word", condition)
                  .Via("tensor")
                  .Stream(&reference)
                  .ok());

  constexpr size_t kThreads = 6;
  std::vector<std::vector<join::JoinPair>> streamed(kThreads);
  std::vector<Status> statuses(kThreads, Status::OK());
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 3; ++round) {
        join::MaterializingSink sink;
        auto run = engine.Query("l")
                       .EJoin("r", "word", condition)
                       .Stream(&sink)
                       .status();
        if (!run.ok()) {
          statuses[t] = run;
          return;
        }
        streamed[t] = sink.TakePairs();
      }
    });
  }
  std::thread recalibrator([&] {
    for (int i = 0; i < 8; ++i) {
      EXPECT_TRUE(engine.Recalibrate().ok());
    }
  });
  for (auto& thread : threads) thread.join();
  recalibrator.join();
  for (size_t t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(statuses[t].ok()) << "thread " << t << ": "
                                  << statuses[t].ToString();
    EXPECT_EQ(streamed[t], reference.pairs()) << "thread " << t;
  }
  EXPECT_GE(engine.calibrator()->stats().observations, kThreads * 3);
}

}  // namespace
}  // namespace cej
