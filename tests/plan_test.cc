// Tests for cej/plan: logical algebra typing, rewrite-rule semantics
// preservation, the cost model's ordering properties, scan-vs-probe
// pricing crossovers, and executor correctness on all paths.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "cej/api/embedding_cache.h"
#include "cej/common/thread_pool.h"
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
                               nullptr};
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

// Wraps a predicate, counting full evaluations.
class CountingPredicate : public expr::Predicate {
 public:
  explicit CountingPredicate(expr::PredicatePtr inner)
      : inner_(std::move(inner)) {}
  Status Validate(const Schema& schema) const override {
    return inner_->Validate(schema);
  }
  void Eval(const Relation& rel, std::vector<uint32_t>* out) const override {
    ++evals_;
    inner_->Eval(rel, out);
  }
  int evals() const { return evals_; }

 private:
  expr::PredicatePtr inner_;
  mutable int evals_ = 0;
};

TEST(ExecutorTest, StackedEmbedsEvaluateTheirSelectOnce) {
  // A graph input with two string join keys lowers to stacked Embeds over
  // one filtered Scan: the row set is evaluated once, and each Embed level
  // is applied to it on the way up.
  model::SubwordHashModel model;
  auto table = WordsTable(workload::RandomStrings(60, 4, 8, 18), 19);
  auto predicate = std::make_shared<CountingPredicate>(
      expr::Cmp("when", expr::CmpOp::kLt, int64_t{50}));
  auto plan = Embed(Embed(Select(Scan("t", table), predicate), "word",
                          &model, "a"),
                    "word", &model, "b");
  ExecContext context;
  ExecStats stats;
  auto result = Execute(plan, context, &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(predicate->evals(), 1);
  EXPECT_LT(result->num_rows(), 60u);
  EXPECT_EQ(stats.model_calls, 2 * result->num_rows());
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


// ---------------------------------------------------------------------------
// Executor: the right-input shape table. Every right-subtree shape a
// vector-key join meets, through both entry points, under a forced scan, a
// forced probe and an unforced pooled run, each on a cold then a warm
// embedding cache. The chosen operator and every counter are pinned; pairs
// are checked against a brute-force oracle within a similarity tolerance,
// with the threshold placed in a wide gap of the oracle's similarities so
// SIMD rounding cannot flip a pair.
// ---------------------------------------------------------------------------

enum class RightShape {
  kEmbedScan,          // Embed(Scan)
  kEmbedSelectScan,    // Embed(Select(Scan))
  kVectorScan,         // Scan over a stored vector key
  kVectorSelectScan,   // Select(Scan) over a stored vector key
  kStackedEmbed,       // Embed(tag, Embed(word, Select(Scan)))
  kJoin,               // EJoin(Embed(Scan), Embed(Scan))
};
enum class ShapePath { kExecute, kSink };
enum class ShapeMode { kForceTensor, kForceIndex, kPooled };

struct ShapeCase {
  RightShape shape;
  ShapePath path;
  ShapeMode mode;
  bool warm;
  StatusCode code;
  const char* op;
  uint64_t model_calls;
  uint64_t cache_hits;
  uint64_t cache_misses;
  uint64_t catalog_hits;
  uint64_t catalog_misses;
  uint64_t sims;
};

class RightShapeTableTest : public ::testing::Test {
 protected:
  static constexpr size_t kLeftRows = 24;
  static constexpr size_t kRightRows = 3000;
  static constexpr int64_t kWhenBound = 75;  // Select keeps when < 75.

  void SetUp() override {
    const std::vector<std::string> left_words =
        workload::RandomStrings(kLeftRows, 4, 8, 31);
    left_emb_ = model_.EmbedBatch(left_words);
    left_ = Table(left_words, workload::RandomStrings(kLeftRows, 4, 8, 32),
                  left_emb_.Clone(), 33);
    const std::vector<std::string> words =
        workload::RandomStrings(kRightRows, 4, 8, 34);
    const std::vector<std::string> tags =
        workload::RandomStrings(kRightRows, 4, 8, 35);
    word_emb_ = model_.EmbedBatch(words);
    tag_emb_ = model_.EmbedBatch(tags);
    right_ = Table(words, tags, word_emb_.Clone(), 36);
    // The inner join's one-row right side; a -1 threshold keeps every
    // right row once, so the intermediate carries r's rows and key.
    auto mid_schema = Schema::Create({{"mid", DataType::kInt64, 0},
                                      {"name", DataType::kString, 0}});
    std::vector<Column> mid_columns;
    mid_columns.push_back(Column::Int64({0}));
    mid_columns.push_back(Column::String({"pivot"}));
    mid_ = std::make_shared<const Relation>(
        Relation::Create(std::move(mid_schema).value(),
                         std::move(mid_columns))
            .value());

    const auto& when =
        right_->ColumnByName("when").value()->date_values();
    for (uint32_t r = 0; r < kRightRows; ++r) {
      if (when[r] < kWhenBound) survivors_.push_back(r);
    }

    // The threshold: the midpoint of the widest gap among the top 1-5% of
    // every similarity either key can produce.
    std::vector<double> all;
    for (const la::Matrix* keys : {&word_emb_, &tag_emb_}) {
      for (size_t i = 0; i < kLeftRows; ++i) {
        for (size_t j = 0; j < kRightRows; ++j) all.push_back(Sim(*keys, i, j));
      }
    }
    std::sort(all.begin(), all.end(), std::greater<double>());
    double gap = 0.0;
    for (size_t i = all.size() / 100; i < all.size() / 20; ++i) {
      if (all[i] - all[i + 1] > gap) {
        gap = all[i] - all[i + 1];
        threshold_ = static_cast<float>((all[i] + all[i + 1]) / 2.0);
      }
    }
    ASSERT_GT(gap, 4 * kTolerance);

    word_index_ = std::make_unique<index::FlatIndex>(word_emb_.Clone());
    tag_index_ = std::make_unique<index::FlatIndex>(tag_emb_.Clone());
    mid_index_ =
        std::make_unique<index::FlatIndex>(model_.EmbedBatch({"pivot"}));
    ASSERT_TRUE(
        catalog_.RegisterExternal("r", "word_emb", word_index_.get()).ok());
    ASSERT_TRUE(
        catalog_.RegisterExternal("r", "tag_emb", tag_index_.get()).ok());
    ASSERT_TRUE(catalog_.RegisterExternal("r", "vec", word_index_.get()).ok());
    ASSERT_TRUE(
        catalog_.RegisterExternal("m", "name_emb", mid_index_.get()).ok());
  }

  std::shared_ptr<const Relation> Table(std::vector<std::string> words,
                                        std::vector<std::string> tags,
                                        la::Matrix vectors, uint64_t seed) {
    const size_t n = words.size();
    auto schema = Schema::Create({{"id", DataType::kInt64, 0},
                                  {"word", DataType::kString, 0},
                                  {"tag", DataType::kString, 0},
                                  {"when", DataType::kDate, 0},
                                  {"vec", DataType::kVector, model_.dim()}});
    std::vector<int64_t> ids(n);
    for (size_t i = 0; i < n; ++i) ids[i] = static_cast<int64_t>(i);
    std::vector<Column> columns;
    columns.push_back(Column::Int64(std::move(ids)));
    columns.push_back(Column::String(std::move(words)));
    columns.push_back(Column::String(std::move(tags)));
    columns.push_back(
        Column::Date(workload::UniformDates(n, 0, 99, seed)));
    columns.push_back(Column::Vector(std::move(vectors)));
    return std::make_shared<const Relation>(
        Relation::Create(std::move(schema).value(), std::move(columns))
            .value());
  }

  double Sim(const la::Matrix& keys, size_t left, size_t right) const {
    double dot = 0.0;
    for (size_t c = 0; c < keys.cols(); ++c) {
      dot += static_cast<double>(left_emb_.Row(left)[c]) *
             static_cast<double>(keys.Row(right)[c]);
    }
    return dot;
  }

  static bool Filtered(RightShape shape) {
    return shape == RightShape::kEmbedSelectScan ||
           shape == RightShape::kVectorSelectScan ||
           shape == RightShape::kStackedEmbed;
  }

  NodePtr Plan(RightShape shape) const {
    const auto when_lt =
        expr::Cmp("when", expr::CmpOp::kLt, int64_t{kWhenBound});
    NodePtr right;
    std::string key = "word_emb";
    switch (shape) {
      case RightShape::kEmbedScan:
        right = Embed(Scan("r", right_), "word", &model_, "word_emb");
        break;
      case RightShape::kEmbedSelectScan:
        right = Embed(Select(Scan("r", right_), when_lt), "word", &model_,
                      "word_emb");
        break;
      case RightShape::kVectorScan:
        right = Scan("r", right_);
        key = "vec";
        break;
      case RightShape::kVectorSelectScan:
        right = Select(Scan("r", right_), when_lt);
        key = "vec";
        break;
      case RightShape::kStackedEmbed:
        right = Embed(Embed(Select(Scan("r", right_), when_lt), "word",
                            &model_, "word_emb"),
                      "tag", &model_, "tag_emb");
        key = "tag_emb";
        break;
      case RightShape::kJoin:
        right = EJoin(Embed(Scan("r", right_), "word", &model_, "word_emb"),
                      Embed(Scan("m", mid_), "name", &model_, "name_emb"),
                      "word_emb", "name_emb", nullptr,
                      join::JoinCondition::Threshold(-1.0f));
        break;
    }
    return EJoin(Scan("l", left_), right, "vec", key, nullptr,
                 join::JoinCondition::Threshold(threshold_));
  }

  // (left base row, right base row or -1, similarity), sorted. The right
  // row of a join-shaped side is -1 on both sides of the comparison: its
  // sink ids address an intermediate whose row order is the operator's.
  using Triple = std::tuple<int64_t, int64_t, double>;

  std::vector<Triple> Oracle(RightShape shape) const {
    const la::Matrix& keys =
        shape == RightShape::kStackedEmbed ? tag_emb_ : word_emb_;
    const auto& when = right_->ColumnByName("when").value()->date_values();
    std::vector<Triple> out;
    for (size_t i = 0; i < kLeftRows; ++i) {
      for (size_t j = 0; j < kRightRows; ++j) {
        if (Filtered(shape) && when[j] >= kWhenBound) continue;
        const double sim = Sim(keys, i, j);
        if (sim >= threshold_) out.emplace_back(i, j, sim);
      }
    }
    return out;
  }

  static void ExpectSamePairs(std::vector<Triple> actual,
                              std::vector<Triple> expected, bool drop_right,
                              const std::string& label) {
    for (auto* v : {&actual, &expected}) {
      if (drop_right) {
        for (Triple& t : *v) std::get<1>(t) = -1;
      }
      std::sort(v->begin(), v->end());
    }
    ASSERT_EQ(actual.size(), expected.size()) << label;
    for (size_t i = 0; i < actual.size(); ++i) {
      EXPECT_EQ(std::get<0>(actual[i]), std::get<0>(expected[i])) << label;
      EXPECT_EQ(std::get<1>(actual[i]), std::get<1>(expected[i])) << label;
      EXPECT_NEAR(std::get<2>(actual[i]), std::get<2>(expected[i]),
                  kTolerance)
          << label;
    }
  }

  static constexpr double kTolerance = 1e-5;

  model::SubwordHashModel model_;
  la::Matrix left_emb_, word_emb_, tag_emb_;
  std::shared_ptr<const Relation> left_, right_, mid_;
  std::vector<uint32_t> survivors_;
  float threshold_ = 0.0f;
  std::unique_ptr<index::FlatIndex> word_index_, tag_index_, mid_index_;
  index::IndexManager catalog_{index::IndexManager::Options{}, nullptr,
                               nullptr};
  ThreadPool pool_{3};
};

TEST_F(RightShapeTableTest, EveryShapePathAndModeMatchesTheOracle) {
  using S = RightShape;
  using P = ShapePath;
  using M = ShapeMode;
  constexpr StatusCode kOk = StatusCode::kOk;
  // No probe-eligible shape under the outer join: no index to force, and
  // the forced index is rejected before the right input does any work.
  constexpr StatusCode kInvalid = StatusCode::kInvalidArgument;
  // clang-format off
  const std::vector<ShapeCase> table = {
      // shape, path, mode, warm: status, operator, model calls, cache
      // hits, cache misses, catalog hits, catalog misses, similarities.
      {S::kEmbedScan, P::kExecute, M::kForceTensor, false, kOk, "tensor", 3000, 0, 1, 1, 0, 72000},
      {S::kEmbedScan, P::kExecute, M::kForceTensor, true, kOk, "tensor", 0, 1, 0, 1, 0, 72000},
      {S::kEmbedScan, P::kExecute, M::kForceIndex, false, kOk, "index", 3000, 0, 1, 1, 0, 72000},
      {S::kEmbedScan, P::kExecute, M::kForceIndex, true, kOk, "index", 0, 1, 0, 1, 0, 72000},
      {S::kEmbedScan, P::kExecute, M::kPooled, false, kOk, "tensor", 3000, 0, 1, 1, 0, 72000},
      {S::kEmbedScan, P::kExecute, M::kPooled, true, kOk, "tensor", 0, 1, 0, 1, 0, 72000},
      {S::kEmbedScan, P::kSink, M::kForceTensor, false, kOk, "tensor", 3000, 0, 1, 1, 0, 72000},
      {S::kEmbedScan, P::kSink, M::kForceTensor, true, kOk, "tensor", 0, 1, 0, 1, 0, 72000},
      {S::kEmbedScan, P::kSink, M::kForceIndex, false, kOk, "index", 0, 0, 0, 1, 0, 72000},
      {S::kEmbedScan, P::kSink, M::kForceIndex, true, kOk, "index", 0, 0, 0, 1, 0, 72000},
      {S::kEmbedScan, P::kSink, M::kPooled, false, kOk, "tensor", 3000, 0, 1, 1, 0, 72000},
      {S::kEmbedScan, P::kSink, M::kPooled, true, kOk, "tensor", 0, 1, 0, 1, 0, 72000},
      {S::kEmbedSelectScan, P::kExecute, M::kForceTensor, false, kOk, "tensor", 2248, 0, 1, 1, 0, 53952},
      {S::kEmbedSelectScan, P::kExecute, M::kForceTensor, true, kOk, "tensor", 2248, 0, 1, 1, 0, 53952},
      {S::kEmbedSelectScan, P::kExecute, M::kForceIndex, false, kOk, "index", 3000, 0, 1, 1, 0, 53952},
      {S::kEmbedSelectScan, P::kExecute, M::kForceIndex, true, kOk, "index", 0, 1, 0, 1, 0, 53952},
      {S::kEmbedSelectScan, P::kExecute, M::kPooled, false, kOk, "tensor", 2248, 0, 1, 1, 0, 53952},
      {S::kEmbedSelectScan, P::kExecute, M::kPooled, true, kOk, "tensor", 2248, 0, 1, 1, 0, 53952},
      {S::kEmbedSelectScan, P::kSink, M::kForceTensor, false, kOk, "tensor", 2248, 0, 1, 1, 0, 53952},
      {S::kEmbedSelectScan, P::kSink, M::kForceTensor, true, kOk, "tensor", 2248, 0, 1, 1, 0, 53952},
      {S::kEmbedSelectScan, P::kSink, M::kForceIndex, false, kOk, "index", 0, 0, 0, 1, 0, 53952},
      {S::kEmbedSelectScan, P::kSink, M::kForceIndex, true, kOk, "index", 0, 0, 0, 1, 0, 53952},
      {S::kEmbedSelectScan, P::kSink, M::kPooled, false, kOk, "tensor", 2248, 0, 1, 1, 0, 53952},
      {S::kEmbedSelectScan, P::kSink, M::kPooled, true, kOk, "tensor", 2248, 0, 1, 1, 0, 53952},
      {S::kVectorScan, P::kExecute, M::kForceTensor, false, kOk, "tensor", 0, 0, 0, 1, 0, 72000},
      {S::kVectorScan, P::kExecute, M::kForceTensor, true, kOk, "tensor", 0, 0, 0, 1, 0, 72000},
      {S::kVectorScan, P::kExecute, M::kForceIndex, false, kOk, "index", 0, 0, 0, 1, 0, 72000},
      {S::kVectorScan, P::kExecute, M::kForceIndex, true, kOk, "index", 0, 0, 0, 1, 0, 72000},
      {S::kVectorScan, P::kExecute, M::kPooled, false, kOk, "tensor", 0, 0, 0, 1, 0, 72000},
      {S::kVectorScan, P::kExecute, M::kPooled, true, kOk, "tensor", 0, 0, 0, 1, 0, 72000},
      {S::kVectorScan, P::kSink, M::kForceTensor, false, kOk, "tensor", 0, 0, 0, 1, 0, 72000},
      {S::kVectorScan, P::kSink, M::kForceTensor, true, kOk, "tensor", 0, 0, 0, 1, 0, 72000},
      {S::kVectorScan, P::kSink, M::kForceIndex, false, kOk, "index", 0, 0, 0, 1, 0, 72000},
      {S::kVectorScan, P::kSink, M::kForceIndex, true, kOk, "index", 0, 0, 0, 1, 0, 72000},
      {S::kVectorScan, P::kSink, M::kPooled, false, kOk, "tensor", 0, 0, 0, 1, 0, 72000},
      {S::kVectorScan, P::kSink, M::kPooled, true, kOk, "tensor", 0, 0, 0, 1, 0, 72000},
      {S::kVectorSelectScan, P::kExecute, M::kForceTensor, false, kOk, "tensor", 0, 0, 0, 1, 0, 53952},
      {S::kVectorSelectScan, P::kExecute, M::kForceTensor, true, kOk, "tensor", 0, 0, 0, 1, 0, 53952},
      {S::kVectorSelectScan, P::kExecute, M::kForceIndex, false, kOk, "index", 0, 0, 0, 1, 0, 53952},
      {S::kVectorSelectScan, P::kExecute, M::kForceIndex, true, kOk, "index", 0, 0, 0, 1, 0, 53952},
      {S::kVectorSelectScan, P::kExecute, M::kPooled, false, kOk, "tensor", 0, 0, 0, 1, 0, 53952},
      {S::kVectorSelectScan, P::kExecute, M::kPooled, true, kOk, "tensor", 0, 0, 0, 1, 0, 53952},
      {S::kVectorSelectScan, P::kSink, M::kForceTensor, false, kOk, "tensor", 0, 0, 0, 1, 0, 53952},
      {S::kVectorSelectScan, P::kSink, M::kForceTensor, true, kOk, "tensor", 0, 0, 0, 1, 0, 53952},
      {S::kVectorSelectScan, P::kSink, M::kForceIndex, false, kOk, "index", 0, 0, 0, 1, 0, 53952},
      {S::kVectorSelectScan, P::kSink, M::kForceIndex, true, kOk, "index", 0, 0, 0, 1, 0, 53952},
      {S::kVectorSelectScan, P::kSink, M::kPooled, false, kOk, "tensor", 0, 0, 0, 1, 0, 53952},
      {S::kVectorSelectScan, P::kSink, M::kPooled, true, kOk, "tensor", 0, 0, 0, 1, 0, 53952},
      {S::kStackedEmbed, P::kExecute, M::kForceTensor, false, kOk, "tensor", 4496, 0, 2, 0, 0, 53952},
      {S::kStackedEmbed, P::kExecute, M::kForceTensor, true, kOk, "tensor", 4496, 0, 2, 0, 0, 53952},
      {S::kStackedEmbed, P::kExecute, M::kForceIndex, false, kInvalid, "", 0, 0, 0, 0, 0, 0},
      {S::kStackedEmbed, P::kExecute, M::kForceIndex, true, kInvalid, "", 0, 0, 0, 0, 0, 0},
      {S::kStackedEmbed, P::kExecute, M::kPooled, false, kOk, "tensor", 4496, 0, 2, 0, 0, 53952},
      {S::kStackedEmbed, P::kExecute, M::kPooled, true, kOk, "tensor", 4496, 0, 2, 0, 0, 53952},
      {S::kStackedEmbed, P::kSink, M::kForceTensor, false, kOk, "tensor", 4496, 0, 2, 0, 0, 53952},
      {S::kStackedEmbed, P::kSink, M::kForceTensor, true, kOk, "tensor", 4496, 0, 2, 0, 0, 53952},
      {S::kStackedEmbed, P::kSink, M::kForceIndex, false, kInvalid, "", 0, 0, 0, 0, 0, 0},
      {S::kStackedEmbed, P::kSink, M::kForceIndex, true, kInvalid, "", 0, 0, 0, 0, 0, 0},
      {S::kStackedEmbed, P::kSink, M::kPooled, false, kOk, "tensor", 4496, 0, 2, 0, 0, 53952},
      {S::kStackedEmbed, P::kSink, M::kPooled, true, kOk, "tensor", 4496, 0, 2, 0, 0, 53952},
      {S::kJoin, P::kExecute, M::kForceTensor, false, kOk, "tensor", 3001, 0, 2, 1, 0, 75000},
      {S::kJoin, P::kExecute, M::kForceTensor, true, kOk, "tensor", 0, 2, 0, 1, 0, 75000},
      {S::kJoin, P::kExecute, M::kForceIndex, false, kInvalid, "", 0, 0, 0, 0, 0, 0},
      {S::kJoin, P::kExecute, M::kForceIndex, true, kInvalid, "", 0, 0, 0, 0, 0, 0},
      {S::kJoin, P::kExecute, M::kPooled, false, kOk, "tensor", 3001, 0, 2, 1, 0, 75000},
      {S::kJoin, P::kExecute, M::kPooled, true, kOk, "tensor", 0, 2, 0, 1, 0, 75000},
      {S::kJoin, P::kSink, M::kForceTensor, false, kOk, "tensor", 3001, 0, 2, 1, 0, 75000},
      {S::kJoin, P::kSink, M::kForceTensor, true, kOk, "tensor", 0, 2, 0, 1, 0, 75000},
      {S::kJoin, P::kSink, M::kForceIndex, false, kInvalid, "", 0, 0, 0, 0, 0, 0},
      {S::kJoin, P::kSink, M::kForceIndex, true, kInvalid, "", 0, 0, 0, 0, 0, 0},
      {S::kJoin, P::kSink, M::kPooled, false, kOk, "tensor", 3001, 0, 2, 1, 0, 75000},
      {S::kJoin, P::kSink, M::kPooled, true, kOk, "tensor", 0, 2, 0, 1, 0, 75000},
  };
  // clang-format on
  const char* shape_names[] = {"EmbedScan",        "EmbedSelectScan",
                               "VectorScan",       "VectorSelectScan",
                               "StackedEmbed",     "Join"};
  const char* path_names[] = {"Execute", "Sink"};
  const char* mode_names[] = {"ForceTensor", "ForceIndex", "Pooled"};
  size_t row = 0;
  for (S shape : {S::kEmbedScan, S::kEmbedSelectScan, S::kVectorScan,
                  S::kVectorSelectScan, S::kStackedEmbed, S::kJoin}) {
    const NodePtr plan = Plan(shape);
    for (P path : {P::kExecute, P::kSink}) {
      for (M mode : {M::kForceTensor, M::kForceIndex, M::kPooled}) {
        EmbeddingCache cache(EmbeddingCache::Options{});
        ExecContext context;
        context.embedding_cache = &cache;
        context.index_catalog = catalog_.Snapshot();
        if (mode == M::kForceTensor) context.force_operator = "tensor";
        if (mode == M::kForceIndex) context.force_operator = "index";
        if (mode == M::kPooled) context.pool = &pool_;
        for (bool warm : {false, true}) {
          const std::string label =
              std::string(shape_names[static_cast<int>(shape)]) + "/" +
              path_names[static_cast<int>(path)] + "/" +
              mode_names[static_cast<int>(mode)] +
              (warm ? "/warm" : "/cold");
          ExecStats stats;
          Status status;
          std::vector<Triple> pairs;
          if (path == P::kExecute) {
            auto result = Execute(plan, context, &stats);
            status = result.status();
            if (result.ok()) {
              const auto& lid =
                  result->ColumnByName("id").value()->int64_values();
              const auto& rid =
                  result->ColumnByName("right_id").value()->int64_values();
              const auto& sim =
                  result->column(result->num_columns() - 1).double_values();
              for (size_t i = 0; i < result->num_rows(); ++i) {
                pairs.emplace_back(lid[i], rid[i], sim[i]);
              }
            }
          } else {
            join::MaterializingSink sink;
            status = ExecuteToSink(plan, context, &sink, &stats).status();
            for (const join::JoinPair& p : sink.pairs()) {
              // Scan-side ids address the filtered rows; probe ids the
              // base table's.
              const int64_t right =
                  Filtered(shape) && stats.join_operator != "index"
                      ? survivors_[p.right]
                      : p.right;
              pairs.emplace_back(p.left, right, p.similarity);
            }
          }
          ASSERT_LT(row, table.size());
          const ShapeCase& want = table[row++];
          ASSERT_TRUE(want.shape == shape && want.path == path &&
                      want.mode == mode && want.warm == warm)
              << label;
          ASSERT_EQ(status.code(), want.code) << label << ": "
                                              << status.ToString();
          EXPECT_EQ(stats.join_operator, want.op) << label;
          EXPECT_EQ(stats.model_calls, want.model_calls) << label;
          EXPECT_EQ(stats.embedding_cache_hits, want.cache_hits) << label;
          EXPECT_EQ(stats.embedding_cache_misses, want.cache_misses) << label;
          EXPECT_EQ(stats.index_catalog_hits, want.catalog_hits) << label;
          EXPECT_EQ(stats.index_catalog_misses, want.catalog_misses)
              << label;
          EXPECT_EQ(stats.join_stats.similarity_computations, want.sims)
              << label;
          if (!status.ok()) continue;
          ExpectSamePairs(pairs, Oracle(shape),
                          shape == S::kJoin && path == P::kSink, label);
        }
      }
    }
  }
  EXPECT_EQ(row, table.size());
}

}  // namespace
}  // namespace cej::plan
