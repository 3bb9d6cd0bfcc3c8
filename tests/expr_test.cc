// Tests for cej/expr: predicate typing, evaluation, composition, and the
// selectivity behaviour the access-path experiments depend on.

#include <cmath>

#include <gtest/gtest.h>

#include "cej/expr/predicate.h"
#include "cej/workload/generators.h"

namespace cej::expr {
namespace {

using storage::Column;
using storage::DataType;
using storage::Relation;
using storage::Schema;

Relation MakeRelation() {
  auto schema = Schema::Create({{"id", DataType::kInt64, 0},
                                {"price", DataType::kDouble, 0},
                                {"name", DataType::kString, 0},
                                {"when", DataType::kDate, 0}});
  CEJ_CHECK(schema.ok());
  std::vector<Column> columns;
  columns.push_back(Column::Int64({1, 2, 3, 4, 5}));
  columns.push_back(Column::Double({1.5, 2.5, 3.5, 4.5, 5.5}));
  columns.push_back(Column::String({"apple", "banana", "cherry", "apple",
                                    "date"}));
  columns.push_back(Column::Date({10, 20, 30, 40, 50}));
  auto rel = Relation::Create(std::move(schema).value(), std::move(columns));
  CEJ_CHECK(rel.ok());
  return std::move(rel).value();
}

std::vector<uint32_t> Rows(const Relation& rel, const PredicatePtr& p) {
  auto rows = Filter(rel, p);
  CEJ_CHECK(rows.ok());
  return std::move(rows).value();
}

TEST(PredicateTest, Int64Comparisons) {
  Relation rel = MakeRelation();
  EXPECT_EQ(Rows(rel, Cmp("id", CmpOp::kLt, int64_t{3})),
            (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(Rows(rel, Cmp("id", CmpOp::kLe, int64_t{3})),
            (std::vector<uint32_t>{0, 1, 2}));
  EXPECT_EQ(Rows(rel, Cmp("id", CmpOp::kGt, int64_t{4})),
            (std::vector<uint32_t>{4}));
  EXPECT_EQ(Rows(rel, Cmp("id", CmpOp::kGe, int64_t{4})),
            (std::vector<uint32_t>{3, 4}));
  EXPECT_EQ(Rows(rel, Cmp("id", CmpOp::kEq, int64_t{2})),
            (std::vector<uint32_t>{1}));
  EXPECT_EQ(Rows(rel, Cmp("id", CmpOp::kNe, int64_t{2})),
            (std::vector<uint32_t>{0, 2, 3, 4}));
}

TEST(PredicateTest, DoubleComparisonAcceptsIntLiteral) {
  Relation rel = MakeRelation();
  EXPECT_EQ(Rows(rel, Cmp("price", CmpOp::kGt, int64_t{4})),
            (std::vector<uint32_t>{3, 4}));
  EXPECT_EQ(Rows(rel, Cmp("price", CmpOp::kLt, 2.6)),
            (std::vector<uint32_t>{0, 1}));
}

TEST(PredicateTest, StringEquality) {
  Relation rel = MakeRelation();
  EXPECT_EQ(Rows(rel, Cmp("name", CmpOp::kEq, std::string("apple"))),
            (std::vector<uint32_t>{0, 3}));
  EXPECT_EQ(Rows(rel, Cmp("name", CmpOp::kLt, std::string("b"))),
            (std::vector<uint32_t>{0, 3}));
}

TEST(PredicateTest, DateComparisonUsesIntLiteral) {
  Relation rel = MakeRelation();
  EXPECT_EQ(Rows(rel, Cmp("when", CmpOp::kGe, int64_t{30})),
            (std::vector<uint32_t>{2, 3, 4}));
}

TEST(PredicateTest, AndOrNotCompose) {
  Relation rel = MakeRelation();
  auto p = And(Cmp("id", CmpOp::kGt, int64_t{1}),
               Cmp("id", CmpOp::kLt, int64_t{5}));
  EXPECT_EQ(Rows(rel, p), (std::vector<uint32_t>{1, 2, 3}));

  auto q = Or(Cmp("id", CmpOp::kEq, int64_t{1}),
              Cmp("id", CmpOp::kEq, int64_t{5}));
  EXPECT_EQ(Rows(rel, q), (std::vector<uint32_t>{0, 4}));

  EXPECT_EQ(Rows(rel, Not(q)), (std::vector<uint32_t>{1, 2, 3}));
}

TEST(PredicateTest, TrueMatchesEverything) {
  Relation rel = MakeRelation();
  EXPECT_EQ(Rows(rel, True()).size(), rel.num_rows());
}

TEST(PredicateTest, DeMorganProperty) {
  // not(a and b) == (not a) or (not b) over all rows.
  Relation rel = MakeRelation();
  auto a = Cmp("id", CmpOp::kGt, int64_t{2});
  auto b = Cmp("when", CmpOp::kLt, int64_t{50});
  EXPECT_EQ(Rows(rel, Not(And(a, b))), Rows(rel, Or(Not(a), Not(b))));
}

TEST(PredicateTest, ValidateRejectsUnknownColumn) {
  Relation rel = MakeRelation();
  auto result = Filter(rel, Cmp("nope", CmpOp::kEq, int64_t{1}));
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(PredicateTest, ValidateRejectsWrongLiteralType) {
  Relation rel = MakeRelation();
  EXPECT_FALSE(Filter(rel, Cmp("id", CmpOp::kEq, std::string("x"))).ok());
  EXPECT_FALSE(Filter(rel, Cmp("name", CmpOp::kEq, int64_t{1})).ok());
  EXPECT_FALSE(Filter(rel, Cmp("when", CmpOp::kEq, 3.5)).ok());
}

TEST(PredicateTest, ValidateRejectsVectorColumn) {
  auto schema = storage::Schema::Create({{"v", DataType::kVector, 4}});
  std::vector<Column> cols;
  cols.push_back(Column::Vector(workload::RandomUnitVectors(2, 4, 1)));
  auto rel = Relation::Create(std::move(schema).value(), std::move(cols));
  ASSERT_TRUE(rel.ok());
  EXPECT_FALSE(Filter(*rel, Cmp("v", CmpOp::kEq, int64_t{0})).ok());
}

TEST(PredicateTest, AndIntersectsChildRows) {
  Relation rel = MakeRelation();
  EXPECT_EQ(Rows(rel, And(Cmp("id", CmpOp::kGe, int64_t{2}),
                          Cmp("when", CmpOp::kLt, int64_t{50}))),
            (std::vector<uint32_t>{1, 2, 3}));
  EXPECT_EQ(Rows(rel, And(Cmp("name", CmpOp::kEq, std::string("apple")),
                          Cmp("price", CmpOp::kGt, 2.0))),
            (std::vector<uint32_t>{3}));
  EXPECT_EQ(Rows(rel, And(Cmp("id", CmpOp::kGt, int64_t{5}),
                          Cmp("when", CmpOp::kGe, int64_t{10}))),
            (std::vector<uint32_t>{}));
}

TEST(PredicateTest, OrUnitesChildRows) {
  Relation rel = MakeRelation();
  EXPECT_EQ(Rows(rel, Or(Cmp("name", CmpOp::kEq, std::string("banana")),
                         Cmp("when", CmpOp::kGe, int64_t{40}))),
            (std::vector<uint32_t>{1, 3, 4}));
  // Rows both children select appear once.
  EXPECT_EQ(Rows(rel, Or(Cmp("price", CmpOp::kLt, 2.0),
                         Cmp("id", CmpOp::kLe, int64_t{2}))),
            (std::vector<uint32_t>{0, 1}));
}

TEST(PredicateTest, NotComplementsChildRows) {
  Relation rel = MakeRelation();
  EXPECT_EQ(Rows(rel, Not(Cmp("name", CmpOp::kEq, std::string("apple")))),
            (std::vector<uint32_t>{1, 2, 4}));
  EXPECT_EQ(Rows(rel, Not(Cmp("when", CmpOp::kGe, int64_t{30}))),
            (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(Rows(rel, Not(Not(Cmp("id", CmpOp::kEq, int64_t{3})))),
            (std::vector<uint32_t>{2}));
  EXPECT_EQ(Rows(rel, Not(True())), (std::vector<uint32_t>{}));
}

TEST(PredicateTest, CompoundsKeepNanRowsOutOfComparisonsOnly) {
  // A comparison with NaN is false, so NaN rows fail `x < 1` and `x >= 1`
  // alike; negation keeps them.
  auto schema = Schema::Create({{"x", DataType::kDouble, 0}});
  CEJ_CHECK(schema.ok());
  const double nan = std::nan("");
  std::vector<Column> columns;
  columns.push_back(Column::Double({0.5, nan, 2.0, -1.0, nan, 1.0}));
  auto rel = Relation::Create(std::move(schema).value(), std::move(columns));
  ASSERT_TRUE(rel.ok());
  auto below = Cmp("x", CmpOp::kLt, 1.0);
  auto at_or_above = Cmp("x", CmpOp::kGe, int64_t{1});
  EXPECT_EQ(Rows(*rel, below), (std::vector<uint32_t>{0, 3}));
  EXPECT_EQ(Rows(*rel, Not(below)), (std::vector<uint32_t>{1, 2, 4, 5}));
  EXPECT_EQ(Rows(*rel, Not(at_or_above)),
            (std::vector<uint32_t>{0, 1, 3, 4}));
  EXPECT_EQ(Rows(*rel, Or(below, at_or_above)),
            (std::vector<uint32_t>{0, 2, 3, 5}));
  EXPECT_EQ(Rows(*rel, And(Not(below), Not(at_or_above))),
            (std::vector<uint32_t>{1, 4}));
}

TEST(PredicateTest, SelectivityColumnGivesRequestedSelectivity) {
  // The bench workload's control knob: col < s selects ~s%.
  const size_t n = 200000;
  auto schema = storage::Schema::Create({{"sel", DataType::kInt64, 0}});
  std::vector<Column> cols;
  cols.push_back(Column::Int64(workload::SelectivityColumn(n, 77)));
  auto rel = Relation::Create(std::move(schema).value(), std::move(cols));
  ASSERT_TRUE(rel.ok());
  for (int64_t s : {0, 10, 50, 90, 100}) {
    auto rows = Rows(*rel, Cmp("sel", CmpOp::kLt, s));
    EXPECT_NEAR(static_cast<double>(rows.size()) / n, s / 100.0, 0.01)
        << "selectivity " << s;
  }
}

TEST(PredicateTest, EvalAppendsInAscendingOrder) {
  Relation rel = MakeRelation();
  auto rows = Rows(rel, Cmp("id", CmpOp::kNe, int64_t{3}));
  EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end()));
}

}  // namespace
}  // namespace cej::expr
