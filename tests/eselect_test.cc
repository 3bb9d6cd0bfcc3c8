// Tests for E-selection (paper Section III.C), run as the engine runs it:
// the query is a one-row table E-joined against the relation ("a search
// query takes a single query as an input; batching many search queries
// would be equivalent to a join", Section II.A.3). Scan and index-probe
// selections agree with reference scans, a selection pays |R| + 1 model
// calls, and N one-row selections equal one N-row join.

#include <algorithm>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cej/cej.h"
#include "cej/workload/generators.h"

namespace cej {
namespace {

using join::JoinCondition;
using join::JoinPair;
using storage::Column;
using storage::DataType;
using storage::Relation;
using storage::Schema;

// A stored-vector table with key column "emb", plus an int column "keep"
// when `keep` is given.
std::shared_ptr<const Relation> VectorTable(la::Matrix vectors,
                                            std::vector<int64_t> keep = {}) {
  std::vector<storage::Field> fields = {
      {"emb", DataType::kVector, vectors.cols()}};
  std::vector<Column> columns;
  columns.push_back(Column::Vector(std::move(vectors)));
  if (!keep.empty()) {
    fields.push_back({"keep", DataType::kInt64, 0});
    columns.push_back(Column::Int64(std::move(keep)));
  }
  auto schema = Schema::Create(std::move(fields));
  CEJ_CHECK(schema.ok());
  auto rel = Relation::Create(std::move(schema).value(), std::move(columns));
  CEJ_CHECK(rel.ok());
  return std::make_shared<const Relation>(std::move(rel).value());
}

std::shared_ptr<const Relation> WordsTable(std::vector<std::string> words) {
  auto schema = Schema::Create({{"word", DataType::kString, 0}});
  CEJ_CHECK(schema.ok());
  std::vector<Column> columns;
  columns.push_back(Column::String(std::move(words)));
  auto rel = Relation::Create(std::move(schema).value(), std::move(columns));
  CEJ_CHECK(rel.ok());
  return std::make_shared<const Relation>(std::move(rel).value());
}

// Row `r` of `m` as a one-row query table.
std::shared_ptr<const Relation> QueryRow(const la::Matrix& m, size_t r) {
  la::Matrix row(1, m.cols());
  std::memcpy(row.Row(0), m.Row(r), m.cols() * sizeof(float));
  return VectorTable(std::move(row));
}

// A selection's matches, sorted by (left, right), and its diagnostics.
struct Selection {
  std::vector<JoinPair> pairs;
  plan::ExecStats stats;
};

Result<Selection> Search(const QueryBuilder& query) {
  join::MaterializingSink sink;
  Selection selection;
  CEJ_RETURN_IF_ERROR(query.Stream(&sink, &selection.stats).status());
  selection.pairs = sink.TakePairs();
  join::SortPairs(&selection.pairs);
  return selection;
}

// The matches' right ids, best-first (higher score, then smaller id).
std::vector<uint64_t> BestFirstIds(const std::vector<JoinPair>& pairs) {
  std::vector<la::ScoredId> scored;
  for (const JoinPair& p : pairs) scored.push_back({p.similarity, p.right});
  std::sort(scored.begin(), scored.end());
  std::vector<uint64_t> ids;
  for (const la::ScoredId& s : scored) ids.push_back(s.id);
  return ids;
}

TEST(ESelectTest, ThresholdMatchesReferenceScan) {
  la::Matrix data = workload::RandomUnitVectors(300, 32, 1);
  la::Matrix q = workload::RandomUnitVectors(1, 32, 2);
  Engine engine;
  ASSERT_TRUE(engine.RegisterTable("data", VectorTable(data.Clone())).ok());
  ASSERT_TRUE(engine.RegisterTable("query", VectorTable(q.Clone())).ok());
  const float threshold = 0.2f;
  auto result = Search(engine.Query("query").EJoin(
      "data", "emb", JoinCondition::Threshold(threshold)));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  std::vector<JoinPair> expected;
  for (size_t r = 0; r < data.rows(); ++r) {
    const float sim = la::Dot(q.Row(0), data.Row(r), 32);
    if (sim >= threshold) {
      expected.push_back({0, static_cast<uint32_t>(r), sim});
    }
  }
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(result->pairs, expected);
  EXPECT_EQ(result->stats.join_stats.similarity_computations, 300u);
}

TEST(ESelectTest, TopKMatchesSelectTopK) {
  la::Matrix data = workload::RandomUnitVectors(200, 16, 3);
  la::Matrix q = workload::RandomUnitVectors(1, 16, 4);
  Engine engine;
  ASSERT_TRUE(engine.RegisterTable("data", VectorTable(data.Clone())).ok());
  ASSERT_TRUE(engine.RegisterTable("query", VectorTable(q.Clone())).ok());
  auto result = Search(
      engine.Query("query").EJoin("data", "emb", JoinCondition::TopK(7)));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  std::vector<float> scores(data.rows());
  for (size_t r = 0; r < data.rows(); ++r) {
    scores[r] = la::Dot(q.Row(0), data.Row(r), 16);
  }
  std::vector<uint64_t> expected;
  const auto top7 = la::SelectTopK(scores.data(), scores.size(), 7);
  for (const la::ScoredId& s : top7) expected.push_back(s.id);
  ASSERT_EQ(result->pairs.size(), 7u);
  EXPECT_EQ(BestFirstIds(result->pairs), expected);
}

TEST(ESelectTest, ParallelThresholdMatchesSequential) {
  la::Matrix data = workload::RandomUnitVectors(5000, 16, 5);
  la::Matrix q = workload::RandomUnitVectors(1, 16, 6);
  Engine::Options pooled_options;
  pooled_options.num_threads = 3;
  Engine pooled(pooled_options);
  Engine unpooled;
  for (Engine* engine : {&pooled, &unpooled}) {
    ASSERT_TRUE(engine->RegisterTable("data", VectorTable(data.Clone())).ok());
    ASSERT_TRUE(engine->RegisterTable("query", VectorTable(q.Clone())).ok());
  }
  ASSERT_NE(pooled.pool(), nullptr);
  ASSERT_EQ(unpooled.pool(), nullptr);
  const JoinCondition condition = JoinCondition::Threshold(0.3f);
  auto a = Search(pooled.Query("query").EJoin("data", "emb", condition));
  auto b = Search(unpooled.Query("query").EJoin("data", "emb", condition));
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_FALSE(b->pairs.empty());
  EXPECT_EQ(a->pairs, b->pairs);
}

TEST(ESelectTest, RejectsBadInputs) {
  Engine engine;
  ASSERT_TRUE(
      engine.RegisterTable("data", VectorTable(workload::RandomUnitVectors(
                                       3, 4, 7))).ok());
  ASSERT_TRUE(
      engine.RegisterTable("query", VectorTable(workload::RandomUnitVectors(
                                        1, 4, 8))).ok());
  ASSERT_TRUE(
      engine.RegisterTable("wide", VectorTable(workload::RandomUnitVectors(
                                       1, 8, 9))).ok());
  EXPECT_EQ(Search(engine.Query("query").EJoin("data", "emb",
                                            JoinCondition::TopK(0)))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Search(engine.Query("wide").EJoin("data", "emb",
                                           JoinCondition::Threshold(0.5f)))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(ESelectStringsTest, PaysLinearModelCost) {
  model::SubwordHashModel model;
  Engine engine;
  ASSERT_TRUE(engine.RegisterModel("subword", &model).ok());
  ASSERT_TRUE(
      engine.RegisterTable("corpus",
                           WordsTable(workload::RandomStrings(25, 4, 8, 8)))
          .ok());
  ASSERT_TRUE(engine.RegisterTable("query", WordsTable({"query"})).ok());
  auto result = Search(
      engine.Query("query").EJoin("corpus", "word", JoinCondition::TopK(3)));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stats.model_calls, 25u + 1u);
  EXPECT_EQ(result->pairs.size(), 3u);
}

TEST(ESelectStringsTest, FindsSurfaceVariants) {
  model::SubwordHashModel model;
  Engine engine;
  ASSERT_TRUE(engine.RegisterModel("subword", &model).ok());
  ASSERT_TRUE(engine
                  .RegisterTable("corpus",
                                 WordsTable({"barbecue", "mountain",
                                             "barbecues", "computer",
                                             "barbicue"}))
                  .ok());
  ASSERT_TRUE(engine.RegisterTable("query", WordsTable({"barbecue"})).ok());
  auto result = Search(engine.Query("query").EJoin(
      "corpus", "word", JoinCondition::Threshold(0.4f)));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  std::set<uint64_t> ids;
  for (const JoinPair& p : result->pairs) ids.insert(p.right);
  EXPECT_TRUE(ids.count(0));  // exact
  EXPECT_TRUE(ids.count(2));  // plural
  EXPECT_TRUE(ids.count(4));  // misspelling
  EXPECT_FALSE(ids.count(1));
  EXPECT_FALSE(ids.count(3));
}

TEST(ESelectIndexTest, FlatIndexAgreesWithScan) {
  la::Matrix data = workload::RandomUnitVectors(400, 16, 9);
  la::Matrix q = workload::RandomUnitVectors(1, 16, 10);
  Engine engine;
  ASSERT_TRUE(engine.RegisterTable("data", VectorTable(data.Clone())).ok());
  ASSERT_TRUE(engine.RegisterTable("query", VectorTable(q.Clone())).ok());
  index::IndexBuildOptions flat;
  flat.family = index::IndexFamily::kFlat;
  ASSERT_TRUE(engine.BuildIndex("data", "emb", flat).ok());
  auto search =
      engine.Query("query").EJoin("data", "emb", JoinCondition::TopK(5));
  auto via_index = Search(search.Via("index"));
  auto via_scan = Search(search.Via("tensor"));
  ASSERT_TRUE(via_index.ok()) << via_index.status().ToString();
  ASSERT_TRUE(via_scan.ok()) << via_scan.status().ToString();
  EXPECT_EQ(via_index->stats.join_operator, "index");
  EXPECT_EQ(via_scan->stats.join_operator, "tensor");
  ASSERT_EQ(via_scan->pairs.size(), 5u);
  EXPECT_EQ(BestFirstIds(via_index->pairs), BestFirstIds(via_scan->pairs));
  EXPECT_EQ(via_index->stats.join_stats.similarity_computations, 400u);
}

TEST(ESelectIndexTest, FilterAndValidation) {
  la::Matrix data = workload::RandomUnitVectors(100, 16, 11);
  la::Matrix q = workload::RandomUnitVectors(1, 16, 12);
  const std::vector<uint8_t> filter =
      workload::ExactSelectivityBitmap(100, 10, 13);
  Engine engine;
  ASSERT_TRUE(engine
                  .RegisterTable("data",
                                 VectorTable(data.Clone(),
                                             std::vector<int64_t>(
                                                 filter.begin(), filter.end())))
                  .ok());
  ASSERT_TRUE(engine.RegisterTable("query", VectorTable(q.Clone())).ok());
  index::IndexBuildOptions flat;
  flat.family = index::IndexFamily::kFlat;
  ASSERT_TRUE(engine.BuildIndex("data", "emb", flat).ok());

  // A Select below the join's right side pre-filters the probe: top-20
  // over 10 admissible rows returns those 10. Pair right ids address the
  // base table on a probe plan.
  auto data_table = engine.Table("data");
  auto query_table = engine.Table("query");
  ASSERT_TRUE(data_table.ok() && query_table.ok());
  const plan::NodePtr selection = plan::EJoin(
      plan::Scan("query", *query_table),
      plan::Select(plan::Scan("data", *data_table),
                   expr::Cmp("keep", expr::CmpOp::kEq, int64_t{1})),
      "emb", "emb", nullptr, JoinCondition::TopK(20));
  plan::ExecContext context = engine.MakeExecContext();
  context.force_operator = "index";
  join::MaterializingSink sink;
  plan::ExecStats stats;
  auto streamed = plan::ExecuteToSink(selection, context, &sink, &stats);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  EXPECT_EQ(stats.join_operator, "index");
  ASSERT_EQ(sink.pairs().size(), 10u);  // Only 10 admissible rows.
  for (const JoinPair& p : sink.pairs()) EXPECT_TRUE(filter[p.right]);

  // An index with one entry per row of some other table is rejected.
  index::FlatIndex wrong_size(workload::RandomUnitVectors(5, 16, 14));
  ASSERT_TRUE(engine.RegisterTable("other", VectorTable(data.Clone())).ok());
  ASSERT_TRUE(engine.RegisterIndex("other", "emb", &wrong_size).ok());
  EXPECT_EQ(Search(engine.Query("query")
                    .EJoin("other", "emb", JoinCondition::TopK(1))
                    .Via("index"))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(ESelectTest, BatchOfSelectionsEqualsJoin) {
  // The paper's Section II.A.3 equivalence: batching per-query selections
  // IS the join. The N-row top-k E-join equals N one-row selections.
  la::Matrix left = workload::RandomUnitVectors(10, 16, 14);
  la::Matrix right = workload::RandomUnitVectors(80, 16, 15);
  Engine engine;
  ASSERT_TRUE(engine.RegisterTable("right", VectorTable(right.Clone())).ok());
  ASSERT_TRUE(engine.RegisterTable("left", VectorTable(left.Clone())).ok());
  const JoinCondition condition = JoinCondition::TopK(3);
  auto joined = Search(engine.Query("left").EJoin("right", "emb", condition));
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  std::vector<JoinPair> via_selection;
  for (size_t i = 0; i < left.rows(); ++i) {
    const std::string name = "query" + std::to_string(i);
    ASSERT_TRUE(engine.RegisterTable(name, QueryRow(left, i)).ok());
    auto selected = Search(engine.Query(name).EJoin("right", "emb", condition));
    ASSERT_TRUE(selected.ok()) << selected.status().ToString();
    for (JoinPair p : selected->pairs) {
      p.left = static_cast<uint32_t>(i);
      via_selection.push_back(p);
    }
  }
  join::SortPairs(&via_selection);
  ASSERT_EQ(joined->pairs.size(), 30u);
  EXPECT_EQ(joined->pairs, via_selection);
}

}  // namespace
}  // namespace cej
