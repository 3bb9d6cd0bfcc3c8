// Tests for cej/plan: logical algebra typing, rewrite-rule semantics
// preservation, the cost model's ordering properties, scan-vs-probe
// pricing crossovers, and executor correctness on all paths.

#include <gtest/gtest.h>

#include <cmath>

#include "cej/index/flat_index.h"
#include "cej/index/hnsw_index.h"
#include "cej/index/index_manager.h"
#include "cej/index/ivf_index.h"
#include "cej/model/subword_hash_model.h"
#include "cej/plan/cost_model.h"
#include "cej/plan/executor.h"
#include "cej/plan/logical_plan.h"
#include "cej/plan/rewrite.h"
#include "cej/workload/generators.h"

namespace cej::plan {
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
  columns.push_back(Column::Date(workload::UniformDates(
      words.size(), 0, 99, date_seed)));
  auto rel = Relation::Create(std::move(schema).value(), std::move(columns));
  CEJ_CHECK(rel.ok());
  return std::make_shared<const Relation>(std::move(rel).value());
}

// ---------------------------------------------------------------------------
// Logical plan typing
// ---------------------------------------------------------------------------

TEST(LogicalPlanTest, ScanSchemaIsTableSchema) {
  auto table = WordsTable({"a", "b"}, 1);
  auto schema = OutputSchema(Scan("t", table));
  ASSERT_TRUE(schema.ok());
  EXPECT_EQ(schema->num_fields(), 2u);
}

TEST(LogicalPlanTest, EmbedAppendsVectorField) {
  model::SubwordHashModel model;
  auto table = WordsTable({"a", "b"}, 1);
  auto schema = OutputSchema(Embed(Scan("t", table), "word", &model, "emb"));
  ASSERT_TRUE(schema.ok());
  EXPECT_EQ(schema->num_fields(), 3u);
  EXPECT_EQ(schema->field(2).type, DataType::kVector);
  EXPECT_EQ(schema->field(2).vector_dim, model.dim());
}

TEST(LogicalPlanTest, EmbedRejectsNonStringInput) {
  model::SubwordHashModel model;
  auto table = WordsTable({"a"}, 1);
  EXPECT_FALSE(
      OutputSchema(Embed(Scan("t", table), "when", &model, "emb")).ok());
  EXPECT_FALSE(
      OutputSchema(Embed(Scan("t", table), "missing", &model, "e")).ok());
}

TEST(LogicalPlanTest, SelectValidatesPredicate) {
  auto table = WordsTable({"a"}, 1);
  auto good = Select(Scan("t", table),
                     expr::Cmp("when", expr::CmpOp::kLt, int64_t{50}));
  EXPECT_TRUE(OutputSchema(good).ok());
  auto bad = Select(Scan("t", table),
                    expr::Cmp("nope", expr::CmpOp::kLt, int64_t{50}));
  EXPECT_FALSE(OutputSchema(bad).ok());
}

TEST(LogicalPlanTest, EJoinSchemaRenamesCollisions) {
  model::SubwordHashModel model;
  auto l = WordsTable({"a"}, 1);
  auto r = WordsTable({"b"}, 2);
  auto join = EJoin(Scan("l", l), Scan("r", r), "word", "word", &model,
                    join::JoinCondition::Threshold(0.5f));
  auto schema = OutputSchema(join);
  ASSERT_TRUE(schema.ok());
  // word, when, right_word, right_when, similarity.
  EXPECT_EQ(schema->num_fields(), 5u);
  EXPECT_TRUE(schema->FieldIndex("right_word").ok());
  EXPECT_TRUE(schema->FieldIndex("similarity").ok());
}

TEST(LogicalPlanTest, EJoinRejectsMixedKeyTypes) {
  model::SubwordHashModel model;
  auto l = WordsTable({"a"}, 1);
  auto r = WordsTable({"b"}, 2);
  auto join =
      EJoin(Embed(Scan("l", l), "word", &model, "emb"), Scan("r", r), "emb",
            "word", nullptr, join::JoinCondition::Threshold(0.5f));
  EXPECT_FALSE(OutputSchema(join).ok());
}

TEST(LogicalPlanTest, EJoinStringKeysRequireModel) {
  auto l = WordsTable({"a"}, 1);
  auto r = WordsTable({"b"}, 2);
  auto join = EJoin(Scan("l", l), Scan("r", r), "word", "word", nullptr,
                    join::JoinCondition::Threshold(0.5f));
  EXPECT_FALSE(OutputSchema(join).ok());
}

TEST(LogicalPlanTest, PlanToStringShowsStructure) {
  model::SubwordHashModel model;
  auto l = WordsTable({"a"}, 1);
  auto r = WordsTable({"b"}, 2);
  auto plan = EJoin(Scan("left", l), Scan("right", r), "word", "word",
                    &model, join::JoinCondition::Threshold(0.5f));
  const std::string s = PlanToString(plan);
  EXPECT_NE(s.find("EJoin"), std::string::npos);
  EXPECT_NE(s.find("Scan(left)"), std::string::npos);
  EXPECT_NE(s.find("Scan(right)"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Rewrites
// ---------------------------------------------------------------------------

TEST(RewriteTest, PrefetchInsertsEmbedNodes) {
  model::SubwordHashModel model;
  auto l = WordsTable({"a"}, 1);
  auto r = WordsTable({"b"}, 2);
  auto naive = EJoin(Scan("l", l), Scan("r", r), "word", "word", &model,
                     join::JoinCondition::Threshold(0.5f));
  auto optimized = ApplyPrefetchEmbeddings(naive);
  ASSERT_EQ(optimized->kind, NodeKind::kEJoin);
  EXPECT_EQ(optimized->model, nullptr);
  EXPECT_EQ(optimized->left->kind, NodeKind::kEmbed);
  EXPECT_EQ(optimized->right->kind, NodeKind::kEmbed);
  EXPECT_EQ(optimized->left_key, "word_emb");
  // Schema still valid.
  EXPECT_TRUE(OutputSchema(optimized).ok());
}

TEST(RewriteTest, PrefetchIsIdempotent) {
  model::SubwordHashModel model;
  auto l = WordsTable({"a"}, 1);
  auto r = WordsTable({"b"}, 2);
  auto plan = ApplyPrefetchEmbeddings(
      EJoin(Scan("l", l), Scan("r", r), "word", "word", &model,
            join::JoinCondition::Threshold(0.5f)));
  auto again = ApplyPrefetchEmbeddings(plan);
  EXPECT_EQ(plan.get(), again.get());  // No structural change.
}

TEST(RewriteTest, SelectionPushesBelowEmbed) {
  model::SubwordHashModel model;
  auto table = WordsTable({"a", "b"}, 1);
  auto plan = Select(Embed(Scan("t", table), "word", &model, "emb"),
                     expr::Cmp("when", expr::CmpOp::kLt, int64_t{50}));
  auto optimized = ApplySelectionPushdown(plan);
  ASSERT_EQ(optimized->kind, NodeKind::kEmbed);
  EXPECT_EQ(optimized->child->kind, NodeKind::kSelect);
  EXPECT_EQ(optimized->child->child->kind, NodeKind::kScan);
}

TEST(RewriteTest, SelectionOnEmbedOutputStaysPut) {
  // A predicate that mentions the vector column cannot exist (vector
  // predicates are rejected), but one referencing a column only present
  // above the Embed must not be pushed. Use an unknown-below column.
  model::SubwordHashModel model;
  auto table = WordsTable({"a"}, 1);
  auto embedded = Embed(Scan("t", table), "word", &model, "emb");
  // "emb" is a vector column: predicate is invalid below AND above; the
  // pushdown must not crash and must keep the Select on top.
  auto plan = Select(embedded, expr::Cmp("emb", expr::CmpOp::kEq, int64_t{0}));
  auto optimized = ApplySelectionPushdown(plan);
  EXPECT_EQ(optimized->kind, NodeKind::kSelect);
}

TEST(RewriteTest, OptimizedPlanProducesSameResultAsNaive) {
  // Semantics preservation: naive vs Optimize()d plan, same output pairs.
  model::SubwordHashModel model;
  auto left_words = workload::RandomStrings(20, 4, 8, 3);
  auto right_words = workload::RandomStrings(30, 4, 8, 4);
  auto l = WordsTable(left_words, 5);
  auto r = WordsTable(right_words, 6);
  auto naive = EJoin(
      Select(Scan("l", l), expr::Cmp("when", expr::CmpOp::kLt, int64_t{70})),
      Select(Scan("r", r), expr::Cmp("when", expr::CmpOp::kLt, int64_t{70})),
      "word", "word", &model, join::JoinCondition::Threshold(0.4f));
  auto optimized = Optimize(naive);

  ExecContext context;
  auto naive_result = Execute(naive, context);
  auto optimized_result = Execute(optimized, context);
  ASSERT_TRUE(naive_result.ok()) << naive_result.status().ToString();
  ASSERT_TRUE(optimized_result.ok());
  ASSERT_EQ(naive_result->num_rows(), optimized_result->num_rows());
  // Compare (word, right_word) pair multisets via sorted render.
  auto render = [](const Relation& rel) {
    std::vector<std::string> out;
    const auto& lw = rel.ColumnByName("word").value()->string_values();
    const auto& rw = rel.ColumnByName("right_word").value()->string_values();
    for (size_t i = 0; i < rel.num_rows(); ++i) {
      out.push_back(lw[i] + "|" + rw[i]);
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(render(*naive_result), render(*optimized_result));
}

TEST(RewriteTest, OptimizeReducesModelCalls) {
  // The headline claim of Figure 8, at plan level: quadratic vs linear
  // model invocations.
  model::SubwordHashModel model;
  auto l = WordsTable(workload::RandomStrings(10, 4, 6, 7), 8);
  auto r = WordsTable(workload::RandomStrings(12, 4, 6, 9), 10);
  auto naive = EJoin(Scan("l", l), Scan("r", r), "word", "word", &model,
                     join::JoinCondition::Threshold(0.5f));
  ExecContext context;

  model.ResetStats();
  ASSERT_TRUE(Execute(naive, context).ok());
  const uint64_t naive_calls = model.embed_calls();

  model.ResetStats();
  ASSERT_TRUE(Execute(Optimize(naive), context).ok());
  const uint64_t optimized_calls = model.embed_calls();

  EXPECT_EQ(naive_calls, 2u * 10u * 12u);
  EXPECT_EQ(optimized_calls, 10u + 12u);
}

// ---------------------------------------------------------------------------
// Cost model
// ---------------------------------------------------------------------------

// The registry quote of `op` for an m x n threshold join: the price the
// planner's cost scan actually compares.
double Quote(std::string_view op, size_t m, size_t n,
             const join::CostParams& p) {
  join::JoinWorkload w;
  w.left_rows = m;
  w.right_rows = n;
  w.condition = join::JoinCondition::Threshold(0.9f);
  return (*join::JoinOperatorRegistry::Global().Find(op))->EstimateCost(w, p);
}

TEST(CostModelTest, PrefetchBeatsNaive) {
  join::CostParams p;
  for (size_t n : {10u, 100u, 1000u, 100000u}) {
    EXPECT_LT(Quote("prefetch_nlj", n, n, p), Quote("naive_nlj", n, n, p))
        << n;
  }
}

TEST(CostModelTest, NaiveGapGrowsQuadratically) {
  join::CostParams p;
  const double gap_small =
      Quote("naive_nlj", 100, 100, p) / Quote("prefetch_nlj", 100, 100, p);
  const double gap_large = Quote("naive_nlj", 10000, 10000, p) /
                           Quote("prefetch_nlj", 10000, 10000, p);
  EXPECT_GT(gap_large, gap_small);
}

TEST(CostModelTest, TensorBeatsPrefetchNlj) {
  join::CostParams p;
  EXPECT_LT(Quote("tensor", 10000, 10000, p),
            Quote("prefetch_nlj", 10000, 10000, p));
}

TEST(CostModelTest, ProbeCostGrowsLogarithmically) {
  // One top-1 probe with the left key already embedded: the quote is the
  // per-probe cost I_probe(n) alone.
  join::CostParams p;
  join::JoinWorkload w;
  w.left_rows = 1;
  w.condition = join::JoinCondition::TopK(1);
  w.index_available = true;
  w.left_embed_cached = true;
  const join::JoinOperator* index =
      *join::JoinOperatorRegistry::Global().Find("index");
  w.right_rows = 1000;
  const double c1k = index->EstimateCost(w, p);
  w.right_rows = 1000000;
  const double c1m = index->EstimateCost(w, p);
  EXPECT_GT(c1m, c1k);
  EXPECT_LT(c1m, 3.0 * c1k);  // log(1e6)/log(1e3) = 2.
}

TEST(CostModelTest, CalibrationProducesPositiveParams) {
  model::SubwordHashModel model;
  join::CostParams p = Calibrate(model, 64);
  EXPECT_GT(p.model, 0.0);
  EXPECT_GT(p.compute, 0.0);
  EXPECT_GT(p.access, 0.0);
  // Subword embedding is much more expensive than one 100-D dot product.
  EXPECT_GT(p.model, p.compute);
}

// ---------------------------------------------------------------------------
// Scan-vs-probe pricing: the registry's tensor and index operators
// ---------------------------------------------------------------------------

TEST(ScanVsProbePricingTest, RegistryQuotesReproduceTheFigure15Surface) {
  auto& registry = join::JoinOperatorRegistry::Global();
  auto scan_op = registry.Find("tensor");
  auto probe_op = registry.Find("index");
  ASSERT_TRUE(scan_op.ok() && probe_op.ok());
  const join::CostParams params;
  // Ties go to the scan.
  auto probe_wins = [&](const join::JoinWorkload& w) {
    return (*probe_op)->EstimateCost(w, params) <
           (*scan_op)->EstimateCost(w, params);
  };
  auto workload = [](size_t left_rows, size_t right_rows,
                     join::JoinCondition condition, double selectivity,
                     bool index_available) {
    join::JoinWorkload w;
    w.left_rows = left_rows;
    w.right_rows = right_rows;
    w.condition = condition;
    w.right_selectivity = selectivity;
    w.index_available = index_available;
    return w;
  };
  const join::JoinCondition top1 = join::JoinCondition::TopK(1);

  // Point decisions. Few right tuples surviving the relational filter
  // favour scanning the survivors (Figure 15's left region); at ~100%
  // selectivity top-1 probes win (its right region).
  struct Case {
    const char* name;
    join::JoinWorkload workload;
    bool expect_probe;
  };
  const Case cases[] = {
      {"no index -> scan", workload(100, 100000, top1, 1.0, false), false},
      {"0.1% selectivity -> scan", workload(10000, 1000000, top1, 0.001, true),
       false},
      {"100% top-1 -> probe", workload(10000, 1000000, top1, 1.0, true),
       true},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(probe_wins(c.workload), c.expect_probe) << c.name;
    EXPECT_GT((*scan_op)->EstimateCost(c.workload, params), 0.0) << c.name;
    EXPECT_GT((*probe_op)->EstimateCost(c.workload, params), 0.0) << c.name;
  }

  // Selectivity sweeps: the decision flips exactly once, from scan to
  // probe, and range probes — costlier, Figure 17 — never cross over
  // earlier than top-1 probes.
  struct Sweep {
    double crossover = 2.0;  // First probing selectivity; 2 = never.
    int flips = 0;
    bool probes_at_end = false;
  };
  auto sweep = [&](join::JoinWorkload w) {
    Sweep out;
    bool last = false;
    for (double sel = 0.0; sel <= 1.0; sel += 0.01) {
      w.right_selectivity = sel;
      const bool probe = probe_wins(w);
      if (probe && out.crossover > 1.0) out.crossover = sel;
      if (probe != last) ++out.flips;
      last = probe;
    }
    out.probes_at_end = last;
    return out;
  };
  const Sweep topk = sweep(workload(10000, 1000000, top1, 1.0, true));
  EXPECT_EQ(topk.flips, 1);
  EXPECT_TRUE(topk.probes_at_end);
  const Sweep range = sweep(workload(
      10000, 1000000, join::JoinCondition::Threshold(0.9f), 1.0, true));
  EXPECT_GE(range.crossover, topk.crossover);
}

// ---------------------------------------------------------------------------
// Executor: scan path, probe path, forced paths.
// ---------------------------------------------------------------------------

class ExecutorJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    left_words_ = workload::RandomStrings(15, 4, 8, 11);
    right_words_ = workload::RandomStrings(200, 4, 8, 12);
    left_table_ = WordsTable(left_words_, 13);
    right_table_ = WordsTable(right_words_, 14);
    right_emb_ = model_.EmbedBatch(right_words_);
  }

  // A catalog snapshot serving `index` for r's hoisted embedding column,
  // registered as a borrowed external index (the test keeps it alive).
  std::shared_ptr<const index::IndexCatalogSnapshot> CatalogServing(
      const index::VectorIndex* index) {
    EXPECT_TRUE(catalog_.RegisterExternal("r", "word_emb", index).ok());
    return catalog_.Snapshot();
  }

  index::IndexManager catalog_{index::IndexManager::Options{}, nullptr,
                               nullptr, la::SimdMode::kAuto};
  model::SubwordHashModel model_;
  std::vector<std::string> left_words_, right_words_;
  std::shared_ptr<const Relation> left_table_, right_table_;
  la::Matrix right_emb_;
};

TEST_F(ExecutorJoinTest, ScanPathTopKProducesKRowsPerLeftTuple) {
  auto plan = Optimize(EJoin(Scan("l", left_table_),
                             Scan("r", right_table_), "word", "word",
                             &model_, join::JoinCondition::TopK(3)));
  ExecContext context;
  ExecStats stats;
  auto result = Execute(plan, context, &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_rows(), 15u * 3u);
  EXPECT_EQ(stats.join_operator, "tensor");
}

TEST_F(ExecutorJoinTest, ProbePathMatchesScanPath) {
  index::FlatIndex flat(right_emb_.Clone());
  auto plan = Optimize(EJoin(Scan("l", left_table_),
                             Scan("r", right_table_), "word", "word",
                             &model_, join::JoinCondition::TopK(2)));
  ExecContext scan_context;
  scan_context.force_operator = "tensor";
  ExecContext probe_context;
  probe_context.index_catalog = CatalogServing(&flat);
  probe_context.force_operator = "index";

  ExecStats scan_stats, probe_stats;
  auto scan_result = Execute(plan, scan_context, &scan_stats);
  auto probe_result = Execute(plan, probe_context, &probe_stats);
  ASSERT_TRUE(scan_result.ok() && probe_result.ok());
  EXPECT_EQ(scan_stats.join_operator, "tensor");
  EXPECT_EQ(probe_stats.join_operator, "index");
  ASSERT_EQ(scan_result->num_rows(), probe_result->num_rows());

  auto render = [](const Relation& rel) {
    std::vector<std::string> out;
    const auto& lw = rel.ColumnByName("word").value()->string_values();
    const auto& rw = rel.ColumnByName("right_word").value()->string_values();
    for (size_t i = 0; i < rel.num_rows(); ++i) {
      out.push_back(lw[i] + "|" + rw[i]);
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(render(*scan_result), render(*probe_result));
}

TEST_F(ExecutorJoinTest, ProbePathRespectsRelationalPreFilter) {
  index::FlatIndex flat(right_emb_.Clone());
  auto filtered_right = Select(
      Scan("r", right_table_),
      expr::Cmp("when", expr::CmpOp::kLt, int64_t{30}));
  auto plan = Optimize(EJoin(Scan("l", left_table_), filtered_right, "word",
                             "word", &model_, join::JoinCondition::TopK(1)));
  ExecContext context;
  context.index_catalog = CatalogServing(&flat);
  context.force_operator = "index";
  auto result = Execute(plan, context);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Every matched right row satisfies the predicate.
  const auto& when =
      result->ColumnByName("right_when").value()->date_values();
  for (int32_t w : when) EXPECT_LT(w, 30);
  EXPECT_EQ(result->num_rows(), 15u);
}

TEST_F(ExecutorJoinTest, ProbePathWorksWithAnyIndexFamily) {
  // The executor is index-family agnostic: register an IVF index instead
  // of HNSW and force the probe path; at full nprobe the results must
  // equal the scan path exactly.
  auto ivf = index::IvfFlatIndex::Build(right_emb_.Clone());
  ASSERT_TRUE(ivf.ok());
  (*ivf)->set_nprobe((*ivf)->nlist());
  auto plan = Optimize(EJoin(Scan("l", left_table_),
                             Scan("r", right_table_), "word", "word",
                             &model_, join::JoinCondition::TopK(2)));
  ExecContext scan_context;
  scan_context.force_operator = "tensor";
  ExecContext probe_context;
  probe_context.index_catalog = CatalogServing(ivf->get());
  probe_context.force_operator = "index";
  auto scan_result = Execute(plan, scan_context);
  auto probe_result = Execute(plan, probe_context);
  ASSERT_TRUE(scan_result.ok() && probe_result.ok());
  ASSERT_EQ(scan_result->num_rows(), probe_result->num_rows());
  const auto& a =
      scan_result->ColumnByName("right_word").value()->string_values();
  const auto& b =
      probe_result->ColumnByName("right_word").value()->string_values();
  auto sorted = [](std::vector<std::string> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(sorted(a), sorted(b));
}

TEST_F(ExecutorJoinTest, SelectAboveJoinFiltersOutput) {
  auto plan = Optimize(EJoin(Scan("l", left_table_),
                             Scan("r", right_table_), "word", "word",
                             &model_, join::JoinCondition::TopK(1)));
  // similarity is always <= 1.
  auto filtered = Select(plan, expr::Cmp("similarity", expr::CmpOp::kGt, 1.5));
  ExecContext context;
  auto result = Execute(filtered, context);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 0u);
}

TEST_F(ExecutorJoinTest, StatsExposeCostEstimates) {
  index::FlatIndex flat(right_emb_.Clone());
  auto plan = Optimize(EJoin(Scan("l", left_table_),
                             Scan("r", right_table_), "word", "word",
                             &model_, join::JoinCondition::TopK(1)));
  ExecContext context;
  context.index_catalog = CatalogServing(&flat);
  ExecStats stats;
  ASSERT_TRUE(Execute(plan, context, &stats).ok());
  EXPECT_GT(stats.estimated_cost_ns, 0.0);
  EXPECT_FALSE(stats.runner_up_operator.empty());
  EXPECT_TRUE(std::isfinite(stats.runner_up_cost_ns));
  EXPECT_GT(stats.runner_up_cost_ns, 0.0);
}

TEST(ExecutorTest, SelectExecutesPredicates) {
  auto table = WordsTable(workload::RandomStrings(100, 4, 6, 15), 16);
  auto plan = Select(Scan("t", table),
                     expr::Cmp("when", expr::CmpOp::kLt, int64_t{50}));
  ExecContext context;
  auto result = Execute(plan, context);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result->num_rows(), 100u);
  for (int32_t w : result->ColumnByName("when").value()->date_values()) {
    EXPECT_LT(w, 50);
  }
}

TEST(ExecutorTest, EmbedMaterializesVectorColumn) {
  model::SubwordHashModel model;
  auto table = WordsTable({"alpha", "beta"}, 17);
  auto plan = Embed(Scan("t", table), "word", &model, "emb");
  ExecContext context;
  auto result = Execute(plan, context);
  ASSERT_TRUE(result.ok());
  const auto* col = result->ColumnByName("emb").value();
  EXPECT_EQ(col->vector_dim(), model.dim());
  auto direct = model.EmbedToVector("alpha");
  for (size_t c = 0; c < model.dim(); ++c) {
    EXPECT_EQ(col->VectorAt(0)[c], direct[c]);
  }
}

TEST(ExecutorTest, NaiveTopKIsUnimplemented) {
  model::SubwordHashModel model;
  auto l = WordsTable({"a"}, 1);
  auto r = WordsTable({"b"}, 2);
  auto naive = EJoin(Scan("l", l), Scan("r", r), "word", "word", &model,
                     join::JoinCondition::TopK(1));
  ExecContext context;
  auto result = Execute(naive, context);
  EXPECT_EQ(result.status().code(), StatusCode::kUnimplemented);
}

}  // namespace
}  // namespace cej::plan
