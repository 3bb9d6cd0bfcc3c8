// Tests for multi-relation E-join graphs: the DP join-order enumerator
// (plan/join_order), the chained/QueryGraph builder surfaces, canonical
// output naming, order independence (every forced order byte-identical to
// the DP order, through Execute and Stream), intermediate embedding reuse
// (zero model calls on a warm second run), hoisted embedding columns
// reaching the output as views of the embedding cache (no row copied), and
// the per-edge estimated-vs-observed cardinality feed.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cej/cej.h"
#include "cej/plan/join_order.h"
#include "cej/workload/generators.h"

namespace cej {
namespace {

using storage::Column;
using storage::DataType;
using storage::Relation;
using storage::Schema;

std::shared_ptr<const Relation> StringTable(
    std::vector<std::pair<std::string, std::vector<std::string>>> columns) {
  std::vector<storage::Field> fields;
  std::vector<Column> cols;
  for (auto& [name, values] : columns) {
    fields.push_back({name, DataType::kString, 0});
    cols.push_back(Column::String(std::move(values)));
  }
  auto schema = Schema::Create(std::move(fields));
  CEJ_CHECK(schema.ok());
  auto rel = Relation::Create(std::move(schema).value(), std::move(cols));
  CEJ_CHECK(rel.ok());
  return std::make_shared<const Relation>(std::move(rel).value());
}

std::vector<std::string> CycleWords(size_t n,
                                    const std::vector<std::string>& vocab) {
  std::vector<std::string> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(vocab[i % vocab.size()]);
  return out;
}

plan::NodePtr VectorScan(const std::string& name, size_t rows, size_t dim,
                         uint64_t seed) {
  auto schema = Schema::Create({{"v", DataType::kVector, dim}});
  CEJ_CHECK(schema.ok());
  std::vector<Column> cols;
  cols.push_back(Column::Vector(workload::RandomUnitVectors(rows, dim, seed)));
  auto rel = Relation::Create(std::move(schema).value(), std::move(cols));
  CEJ_CHECK(rel.ok());
  return plan::Scan(name,
                    std::make_shared<const Relation>(std::move(rel).value()));
}

plan::JoinGraphEdge VectorEdge(size_t left_input, size_t right_input,
                               join::JoinCondition condition) {
  plan::JoinGraphEdge edge;
  edge.left_input = left_input;
  edge.right_input = right_input;
  edge.left_key = "v";
  edge.right_key = "v";
  edge.condition = condition;
  return edge;
}

// Sorted serialization of every row across all columns — the canonical
// result fingerprint order-independence asserts byte equality on.
std::vector<std::string> CanonicalRows(const Relation& rel) {
  std::vector<std::string> rows(rel.num_rows());
  char buf[32];
  for (size_t c = 0; c < rel.num_columns(); ++c) {
    const Column& col = rel.column(c);
    for (size_t i = 0; i < rel.num_rows(); ++i) {
      switch (col.type()) {
        case DataType::kString:
          rows[i] += col.string_values()[i];
          break;
        case DataType::kDouble:
          std::snprintf(buf, sizeof(buf), "%.9g", col.double_values()[i]);
          rows[i] += buf;
          break;
        case DataType::kDate:
          rows[i] += std::to_string(col.date_values()[i]);
          break;
        case DataType::kInt64:
          rows[i] += std::to_string(col.int64_values()[i]);
          break;
        case DataType::kVector:
          std::snprintf(buf, sizeof(buf), "%.9g",
                        col.vector_values().Row(i)[0]);
          rows[i] += buf;
          break;
      }
      rows[i] += "|";
    }
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::vector<std::string> FieldNames(const Schema& schema) {
  std::vector<std::string> names;
  for (size_t i = 0; i < schema.num_fields(); ++i) {
    names.push_back(schema.field(i).name);
  }
  return names;
}

// ---------------------------------------------------------------------------
// JoinOrderEnumerator (plan layer)
// ---------------------------------------------------------------------------

TEST(JoinOrderEnumeratorTest, DpPicksTheCheapOrderOnAStarGraph) {
  // Star on a: e0 joins the big table b, e1 the tiny c. Submission order
  // pays |a|*|b| up front; joining c first shrinks the intermediate, so
  // the DP must execute e1 before e0.
  auto graph = plan::JoinGraph(
      {VectorScan("a", 50, 8, 1), VectorScan("b", 600, 8, 2),
       VectorScan("c", 10, 8, 3)},
      {VectorEdge(0, 1, join::JoinCondition::Threshold(0.8f)),
       VectorEdge(0, 2, join::JoinCondition::Threshold(0.8f))});
  auto plan = plan::EnumerateJoinOrder(graph, {});
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->source, plan::JoinOrderSource::kDp);
  EXPECT_EQ(plan->edge_order, (std::vector<size_t>{1, 0}));
  // Connected subsets only: 3 leaves, {a,b}, {a,c}, {a,b,c} — never {b,c}.
  EXPECT_EQ(plan->memo.size(), 6u);
  // Default threshold selectivity 0.02: e1 yields 50*10*0.02 = 10 rows,
  // then e0 joins those 10 against b's 600.
  EXPECT_DOUBLE_EQ(plan->edge_est_rows[1], 10.0);
  EXPECT_DOUBLE_EQ(plan->edge_est_rows[0], 120.0);
  ASSERT_NE(plan->root, nullptr);
  EXPECT_EQ(plan->root->kind, plan::NodeKind::kEJoin);

  // The rejected submission order must price strictly worse.
  plan::JoinOrderOptions forced;
  forced.force_edge_order = {0, 1};
  auto submission = plan::EnumerateJoinOrder(graph, std::move(forced));
  ASSERT_TRUE(submission.ok()) << submission.status().ToString();
  EXPECT_EQ(submission->source, plan::JoinOrderSource::kForced);
  EXPECT_GT(submission->best->cost, plan->best->cost);
}

TEST(JoinOrderEnumeratorTest, TopKPinsSubmissionOrder) {
  auto graph = plan::JoinGraph(
      {VectorScan("a", 50, 8, 1), VectorScan("b", 600, 8, 2),
       VectorScan("c", 10, 8, 3)},
      {VectorEdge(0, 1, join::JoinCondition::Threshold(0.8f)),
       VectorEdge(0, 2, join::JoinCondition::TopK(2))});
  auto plan = plan::EnumerateJoinOrder(graph, {});
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->source, plan::JoinOrderSource::kSubmission);
  EXPECT_EQ(plan->edge_order, (std::vector<size_t>{0, 1}));
  EXPECT_TRUE(plan->memo.empty());
}

TEST(JoinOrderEnumeratorTest, MalformedForcedOrdersRejected) {
  auto graph = plan::JoinGraph(
      {VectorScan("a", 10, 8, 1), VectorScan("b", 10, 8, 2),
       VectorScan("c", 10, 8, 3)},
      {VectorEdge(0, 1, join::JoinCondition::Threshold(0.8f)),
       VectorEdge(1, 2, join::JoinCondition::Threshold(0.8f))});
  plan::JoinOrderOptions short_order;
  short_order.force_edge_order = {0};
  EXPECT_EQ(plan::EnumerateJoinOrder(graph, std::move(short_order))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  plan::JoinOrderOptions repeated;
  repeated.force_edge_order = {0, 0};
  EXPECT_EQ(
      plan::EnumerateJoinOrder(graph, std::move(repeated)).status().code(),
      StatusCode::kInvalidArgument);
  plan::JoinOrderOptions out_of_range;
  out_of_range.force_edge_order = {0, 7};
  EXPECT_EQ(
      plan::EnumerateJoinOrder(graph, std::move(out_of_range)).status().code(),
      StatusCode::kInvalidArgument);
}

TEST(JoinOrderEnumeratorTest, CyclicAndDisconnectedGraphsRejected) {
  auto cyclic = plan::JoinGraph(
      {VectorScan("a", 10, 8, 1), VectorScan("b", 10, 8, 2),
       VectorScan("c", 10, 8, 3)},
      {VectorEdge(0, 1, join::JoinCondition::Threshold(0.8f)),
       VectorEdge(1, 2, join::JoinCondition::Threshold(0.8f)),
       VectorEdge(0, 2, join::JoinCondition::Threshold(0.8f))});
  EXPECT_EQ(plan::EnumerateJoinOrder(cyclic, {}).status().code(),
            StatusCode::kInvalidArgument);
  auto disconnected = plan::JoinGraph(
      {VectorScan("a", 10, 8, 1), VectorScan("b", 10, 8, 2),
       VectorScan("c", 10, 8, 3)},
      {VectorEdge(0, 1, join::JoinCondition::Threshold(0.8f))});
  EXPECT_EQ(plan::EnumerateJoinOrder(disconnected, {}).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Engine surface: chained joins, QueryGraph, order independence
// ---------------------------------------------------------------------------

const std::vector<std::string> kDedupVocab = {
    "amber", "birch", "cedar", "delta", "ember", "fjord", "grove", "heath"};
const std::vector<std::string> kTagVocab = {"urban", "rural", "coast",
                                            "alpine"};

class MultiJoinTest : public ::testing::Test {
 protected:
  MultiJoinTest() : engine_(MakeOptions()) {
    CEJ_CHECK(engine_.RegisterModel("hash", &model_).ok());
    // Star on A: e0 reaches the big B, e1 the tiny C — the shape where
    // submission order is measurably worse than joining C first.
    CEJ_CHECK(engine_
                  .RegisterTable(
                      "A", StringTable({{"dedup", CycleWords(50, kDedupVocab)},
                                        {"tag", CycleWords(50, kTagVocab)}}))
                  .ok());
    CEJ_CHECK(engine_
                  .RegisterTable("B", StringTable({{"bkey", CycleWords(
                                                       600, kDedupVocab)}}))
                  .ok());
    CEJ_CHECK(engine_
                  .RegisterTable("C", StringTable({{"ckey", CycleWords(
                                                       10, kTagVocab)}}))
                  .ok());
    CEJ_CHECK(engine_
                  .RegisterTable("D", StringTable({{"dkey", CycleWords(
                                                       6, kTagVocab)}}))
                  .ok());
  }

  static Engine::Options MakeOptions() {
    Engine::Options options;
    options.num_threads = 4;
    return options;
  }

  QueryBuilder Query3() const {
    return engine_.Query("A")
        .EJoin("B", "dedup", "bkey", join::JoinCondition::Threshold(0.95f))
        .EJoin("C", "tag", "ckey", join::JoinCondition::Threshold(0.95f));
  }

  QueryBuilder Query4() const {
    return Query3().EJoin("D", "ckey", "dkey",
                          join::JoinCondition::Threshold(0.95f));
  }

  // Byte-identity across join orders holds per physical operator: the
  // kernels accumulate dot products in different SIMD orders, so letting
  // the cost scan pick different operators per shape would compare
  // last-bit-different similarities. Pin one operator; the ORDER is still
  // chosen freely by the enumerator (Via is execution-time only).
  QueryBuilder Pinned3() const { return Query3().Via("tensor"); }
  QueryBuilder Pinned4() const { return Query4().Via("tensor"); }

  Engine engine_;
  model::SubwordHashModel model_;
};

TEST_F(MultiJoinTest, DpPicksANonSubmissionOrderAndAllOrdersAgree) {
  // Unpinned: the enumerator must depart from submission order (C first)
  // with the cost scan free to pick operators.
  auto unpinned = Query3().Execute();
  ASSERT_TRUE(unpinned.ok()) << unpinned.status().ToString();
  EXPECT_EQ(unpinned->stats.join_order_source, "dp");
  EXPECT_EQ(unpinned->stats.join_edge_order, (std::vector<size_t>{1, 0}));

  auto dp = Pinned3().Execute();
  ASSERT_TRUE(dp.ok()) << dp.status().ToString();
  EXPECT_EQ(dp->stats.join_order_source, "dp");
  EXPECT_EQ(dp->relation.num_rows(), unpinned->relation.num_rows());
  const auto names = FieldNames(dp->relation.schema());
  const auto rows = CanonicalRows(dp->relation);
  ASSERT_FALSE(rows.empty());
  for (const auto& order :
       {std::vector<size_t>{0, 1}, std::vector<size_t>{1, 0}}) {
    auto forced = Pinned3().ForceJoinOrder(order).Execute();
    ASSERT_TRUE(forced.ok()) << forced.status().ToString();
    EXPECT_EQ(forced->stats.join_order_source, "forced");
    EXPECT_EQ(forced->stats.join_edge_order, order);
    EXPECT_EQ(FieldNames(forced->relation.schema()), names)
        << "canonical schema drifted under forced order";
    EXPECT_EQ(CanonicalRows(forced->relation), rows)
        << "result depends on join order {" << order[0] << "," << order[1]
        << "}";
  }
}

TEST_F(MultiJoinTest, FourRelationChainIdenticalUnderAllSixOrders) {
  auto dp = Pinned4().Execute();
  ASSERT_TRUE(dp.ok()) << dp.status().ToString();
  EXPECT_EQ(dp->stats.join_order_source, "dp");
  const auto names = FieldNames(dp->relation.schema());
  const auto rows = CanonicalRows(dp->relation);
  ASSERT_FALSE(rows.empty());
  std::vector<size_t> order = {0, 1, 2};
  do {
    auto forced = Pinned4().ForceJoinOrder(order).Execute();
    ASSERT_TRUE(forced.ok()) << forced.status().ToString();
    EXPECT_EQ(FieldNames(forced->relation.schema()), names);
    EXPECT_EQ(CanonicalRows(forced->relation), rows)
        << "result depends on join order {" << order[0] << "," << order[1]
        << "," << order[2] << "}";
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST_F(MultiJoinTest, StreamMatchesExecuteUnderDpAndForcedOrders) {
  auto exec = Pinned3().Execute();
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  join::MaterializingSink sink;
  plan::ExecStats stats;
  auto streamed = Pinned3().Stream(&sink, &stats);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  EXPECT_EQ(stats.join_order_source, "dp");
  EXPECT_EQ(sink.pairs().size(), exec->relation.num_rows());
  // The streamed scores are the LAST executed edge's similarities.
  ASSERT_FALSE(stats.join_edge_order.empty());
  const size_t last = stats.join_edge_order.back();
  const std::string sim_name =
      last == 0 ? "similarity" : "similarity" + std::to_string(last + 1);
  std::multiset<float> streamed_scores;
  for (const auto& pair : sink.pairs()) streamed_scores.insert(pair.similarity);
  std::multiset<float> expected;
  for (double v :
       exec->relation.ColumnByName(sim_name).value()->double_values()) {
    expected.insert(static_cast<float>(v));
  }
  EXPECT_EQ(streamed_scores, expected);

  // Forcing the other order streams the other edge last — same pair count.
  join::MaterializingSink forced_sink;
  plan::ExecStats forced_stats;
  auto forced =
      Pinned3().ForceJoinOrder({1, 0}).Stream(&forced_sink, &forced_stats);
  ASSERT_TRUE(forced.ok()) << forced.status().ToString();
  EXPECT_EQ(forced_stats.join_order_source, "forced");
  EXPECT_EQ(forced_sink.pairs().size(), exec->relation.num_rows());
}

TEST_F(MultiJoinTest, SecondRunServesEveryEmbeddingFromCache) {
  auto first = Pinned3().Execute();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_GT(first->stats.model_calls, 0u);
  // Warm run: every leaf key column (A.dedup, A.tag, B.bkey, C.ckey) is
  // cache-resident and intermediates carry embeddings zero-copy, so the
  // whole pipeline makes ZERO model calls.
  auto second = Pinned3().Execute();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->stats.model_calls, 0u);
  EXPECT_GE(second->stats.embedding_cache_hits, 3u);
  EXPECT_EQ(second->stats.embedding_cache_misses, 0u);
  EXPECT_EQ(CanonicalRows(second->relation), CanonicalRows(first->relation));
}

TEST_F(MultiJoinTest, PerEdgeCardinalitiesRecorded) {
  auto result = Query3().Execute();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->stats.edge_card_est.size(), 2u);
  ASSERT_EQ(result->stats.edge_card_obs.size(), 2u);
  for (double est : result->stats.edge_card_est) EXPECT_GT(est, 0.0);
  // The last executed edge's consumed pairs ARE the final rows.
  const size_t last = result->stats.join_edge_order.back();
  EXPECT_EQ(result->stats.edge_card_obs[last], result->relation.num_rows());
}

TEST_F(MultiJoinTest, AdaptiveStatsObservationsCarryTheEdge) {
  Engine::Options options = MakeOptions();
  options.adaptive_stats = true;
  Engine adaptive(options);
  ASSERT_TRUE(adaptive.RegisterModel("hash", &model_).ok());
  ASSERT_TRUE(adaptive.RegisterTable("A", engine_.Table("A").value()).ok());
  ASSERT_TRUE(adaptive.RegisterTable("B", engine_.Table("B").value()).ok());
  ASSERT_TRUE(adaptive.RegisterTable("C", engine_.Table("C").value()).ok());
  auto result =
      adaptive.Query("A")
          .EJoin("B", "dedup", "bkey", join::JoinCondition::Threshold(0.95f))
          .EJoin("C", "tag", "ckey", join::JoinCondition::Threshold(0.95f))
          .Execute();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto history =
      adaptive.calibrator()->workload_stats().AllObservations();
  size_t edge_observations = 0;
  for (const auto& obs : history) {
    if (obs.graph_edge >= 0) {
      ++edge_observations;
      EXPECT_GT(obs.edge_card_est, 0.0);
    }
  }
  EXPECT_EQ(edge_observations, 2u) << "one observation per executed edge";
}

TEST_F(MultiJoinTest, ExplainPrintsTheDpMemoAndChosenOrder) {
  auto text = Query3().Explain();
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("JoinGraph(3 inputs, 2 edges"), std::string::npos)
      << *text;
  EXPECT_NE(text->find("— join order (dp) —"), std::string::npos) << *text;
  EXPECT_NE(text->find("{A,B,C}"), std::string::npos) << *text;
  EXPECT_NE(text->find("order: e1(A~C) e0(A~B)"), std::string::npos) << *text;
  auto forced = Query3().ForceJoinOrder({0, 1}).Explain();
  ASSERT_TRUE(forced.ok()) << forced.status().ToString();
  EXPECT_NE(forced->find("— join order (forced) —"), std::string::npos)
      << *forced;
}

TEST_F(MultiJoinTest, QueryGraphSpecMatchesTheChainedForm) {
  JoinGraphSpec spec;
  spec.tables = {"A", "B", "C"};
  spec.edges = {
      {"A.dedup", "B.bkey", join::JoinCondition::Threshold(0.95f), ""},
      {"A.tag", "C.ckey", join::JoinCondition::Threshold(0.95f), ""}};
  auto graph = engine_.QueryGraph(spec).Via("tensor").Execute();
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  auto chained = Pinned3().Execute();
  ASSERT_TRUE(chained.ok()) << chained.status().ToString();
  EXPECT_EQ(FieldNames(graph->relation.schema()),
            FieldNames(chained->relation.schema()));
  EXPECT_EQ(CanonicalRows(graph->relation), CanonicalRows(chained->relation));
}

TEST_F(MultiJoinTest, QueryGraphSpecErrors) {
  const auto threshold = join::JoinCondition::Threshold(0.9f);
  JoinGraphSpec bad_endpoint;
  bad_endpoint.tables = {"A", "B"};
  bad_endpoint.edges = {{"Adedup", "B.bkey", threshold, ""}};
  EXPECT_EQ(engine_.QueryGraph(bad_endpoint).Execute().status().code(),
            StatusCode::kInvalidArgument);

  JoinGraphSpec unknown_table;
  unknown_table.tables = {"A", "B"};
  unknown_table.edges = {{"Z.dedup", "B.bkey", threshold, ""}};
  EXPECT_EQ(engine_.QueryGraph(unknown_table).Execute().status().code(),
            StatusCode::kInvalidArgument);

  JoinGraphSpec duplicate;
  duplicate.tables = {"A", "A"};
  duplicate.edges = {{"A.dedup", "A.dedup", threshold, ""}};
  EXPECT_EQ(engine_.QueryGraph(duplicate).Execute().status().code(),
            StatusCode::kInvalidArgument);

  JoinGraphSpec valid;
  valid.tables = {"A", "B"};
  valid.edges = {{"A.dedup", "B.bkey", threshold, ""}};
  EXPECT_EQ(engine_.QueryGraph(valid)
                .EJoin("C", "tag", "ckey", threshold)
                .Execute()
                .status()
                .code(),
            StatusCode::kInvalidArgument)
      << "chained EJoin on a spec builder must be rejected";
}

TEST_F(MultiJoinTest, ConcurrentGraphQueriesShareThePool) {
  auto baseline = Pinned3().Execute();
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  const auto rows = CanonicalRows(baseline->relation);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int iter = 0; iter < 3; ++iter) {
        auto builder = Pinned3();
        if (t % 2 == 1) builder.ForceJoinOrder({0, 1});
        auto result = builder.Execute();
        if (!result.ok() || CanonicalRows(result->relation) != rows) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

// ---------------------------------------------------------------------------
// Chained-output naming and key resolution (satellite 1)
// ---------------------------------------------------------------------------

class NamingTest : public ::testing::Test {
 protected:
  NamingTest() {
    CEJ_CHECK(engine_.RegisterModel("hash", &model_).ok());
    for (const char* name : {"t1", "t2", "t3"}) {
      CEJ_CHECK(engine_
                    .RegisterTable(
                        name, StringTable({{"word", CycleWords(4, kTagVocab)},
                                           {"note", CycleWords(4, kTagVocab)}}))
                    .ok());
    }
  }

  Engine engine_;
  model::SubwordHashModel model_;
};

TEST_F(NamingTest, ChainedCollisionsCountUpDeterministically) {
  auto plan = engine_.Query("t1")
                  .EJoin("t2", "word", join::JoinCondition::Threshold(0.9f))
                  .EJoin("t3", "t1.word", "word",
                         join::JoinCondition::Threshold(0.9f))
                  .Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto schema = plan::OutputSchema(*plan);
  ASSERT_TRUE(schema.ok()) << schema.status().ToString();
  EXPECT_EQ(FieldNames(*schema),
            (std::vector<std::string>{"word", "note", "right_word",
                                      "right_note", "right2_word",
                                      "right2_note", "similarity",
                                      "similarity2"}));
}

TEST_F(NamingTest, AmbiguousUnqualifiedKeyRejectedWithCandidates) {
  auto plan = engine_.Query("t1")
                  .EJoin("t2", "word", join::JoinCondition::Threshold(0.9f))
                  .EJoin("t3", "word", "word",
                         join::JoinCondition::Threshold(0.9f))
                  .Build();
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(plan.status().message().find("ambiguous"), std::string::npos)
      << plan.status().ToString();
  EXPECT_NE(plan.status().message().find("t1.word"), std::string::npos)
      << plan.status().ToString();
  EXPECT_NE(plan.status().message().find("t2.word"), std::string::npos)
      << plan.status().ToString();
}

TEST_F(NamingTest, QualifiedKeyToUnknownTableRejected) {
  auto plan = engine_.Query("t1")
                  .EJoin("t2", "word", join::JoinCondition::Threshold(0.9f))
                  .EJoin("t3", "zzz.word", "word",
                         join::JoinCondition::Threshold(0.9f))
                  .Build();
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(plan.status().message().find("zzz"), std::string::npos);
}

TEST_F(NamingTest, UnknownUnqualifiedKeySuggestsQualification) {
  auto plan = engine_.Query("t1")
                  .EJoin("t2", "word", join::JoinCondition::Threshold(0.9f))
                  .EJoin("t3", "missing", "word",
                         join::JoinCondition::Threshold(0.9f))
                  .Build();
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(plan.status().message().find("table.column"), std::string::npos)
      << plan.status().ToString();
}

// ---------------------------------------------------------------------------
// Zero-copy intermediates
// ---------------------------------------------------------------------------

// `table` with an int64 row-id column `id_name` (0, 1, ...) ahead of the
// string columns, so output rows can be traced back to base-table rows.
std::shared_ptr<const Relation> IdTable(
    const std::string& id_name,
    std::vector<std::pair<std::string, std::vector<std::string>>> columns) {
  const size_t rows = columns.front().second.size();
  std::vector<int64_t> ids(rows);
  for (size_t i = 0; i < rows; ++i) ids[i] = static_cast<int64_t>(i);
  std::vector<storage::Field> fields = {{id_name, DataType::kInt64, 0}};
  std::vector<Column> cols;
  cols.push_back(Column::Int64(std::move(ids)));
  for (auto& [name, values] : columns) {
    fields.push_back({name, DataType::kString, 0});
    cols.push_back(Column::String(std::move(values)));
  }
  auto schema = Schema::Create(std::move(fields));
  CEJ_CHECK(schema.ok());
  auto rel = Relation::Create(std::move(schema).value(), std::move(cols));
  CEJ_CHECK(rel.ok());
  return std::make_shared<const Relation>(std::move(rel).value());
}

TEST(ZeroCopyGraphTest, HoistedEmbeddingColumnsPointIntoTheEmbeddingCache) {
  model::SubwordHashModel model;
  Engine engine;  // Default options: embedding cache enabled.
  ASSERT_TRUE(engine.RegisterModel("hash", &model).ok());
  ASSERT_TRUE(engine
                  .RegisterTable(
                      "A", IdTable("aid", {{"dedup", CycleWords(40, kDedupVocab)},
                                           {"tag", CycleWords(40, kTagVocab)}}))
                  .ok());
  ASSERT_TRUE(
      engine
          .RegisterTable("B", IdTable("bid", {{"bkey", CycleWords(
                                                   90, kDedupVocab)}}))
          .ok());
  ASSERT_TRUE(
      engine
          .RegisterTable("C", IdTable("cid", {{"ckey", CycleWords(
                                                   12, kTagVocab)}}))
          .ok());
  JoinGraphSpec spec;
  spec.tables = {"A", "B", "C"};
  spec.edges = {
      {"A.dedup", "B.bkey", join::JoinCondition::Threshold(0.95f), ""},
      {"A.tag", "C.ckey", join::JoinCondition::Threshold(0.95f), ""}};
  auto result = engine.QueryGraph(spec).Execute();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Relation& out = result->relation;
  ASSERT_GT(out.num_rows(), 0u);

  // Every hoisted embedding column, with the base table and row-id column
  // behind it.
  struct Source {
    const char* table;
    const char* key;
    const char* id;
  };
  const Source sources[] = {{"A", "dedup", "aid"},
                            {"A", "tag", "aid"},
                            {"B", "bkey", "bid"},
                            {"C", "ckey", "cid"}};
  for (const Source& src : sources) {
    SCOPED_TRACE(std::string(src.table) + "." + src.key);
    auto emb = out.ColumnByName(std::string(src.key) + "_emb");
    ASSERT_TRUE(emb.ok()) << emb.status().ToString();
    const std::shared_ptr<const la::Matrix> cached =
        engine.embedding_cache()->Peek(src.table, src.key, &model,
                                       *engine.Table(src.table));
    ASSERT_NE(cached, nullptr);
    const auto& ids = out.ColumnByName(src.id).value()->int64_values();
    const auto& keys = out.ColumnByName(src.key).value()->string_values();
    const la::Matrix fresh = model.EmbedBatch(keys);
    ASSERT_EQ((*emb)->size(), out.num_rows());
    for (size_t i = 0; i < out.num_rows(); ++i) {
      // The output row IS the cached row of its base tuple: nothing was
      // copied on the way through either join.
      ASSERT_EQ((*emb)->VectorAt(i),
                cached->Row(static_cast<size_t>(ids[i])))
          << "row " << i;
      ASSERT_EQ(std::memcmp((*emb)->VectorAt(i), fresh.Row(i),
                            model.dim() * sizeof(float)),
                0)
          << "row " << i;
    }
  }
}

}  // namespace
}  // namespace cej
