// Tests for cej/storage: schema validation, typed columns, relation
// assembly, gather/take, column appending, and gathered columns of every
// type as zero-copy views (id composition, lazy thread-safe densification).

#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cej/storage/column.h"
#include "cej/storage/relation.h"
#include "cej/storage/schema.h"
#include "cej/workload/generators.h"

namespace cej::storage {
namespace {

Schema MakeSchema(std::vector<Field> fields) {
  auto schema = Schema::Create(std::move(fields));
  CEJ_CHECK(schema.ok());
  return std::move(schema).value();
}

// ---------------------------------------------------------------------------
// Schema
// ---------------------------------------------------------------------------

TEST(SchemaTest, CreateAndLookup) {
  Schema schema = MakeSchema({{"id", DataType::kInt64, 0},
                              {"name", DataType::kString, 0},
                              {"emb", DataType::kVector, 100}});
  EXPECT_EQ(schema.num_fields(), 3u);
  EXPECT_EQ(schema.FieldIndex("name").value(), 1u);
  EXPECT_EQ(schema.field(2).vector_dim, 100u);
}

TEST(SchemaTest, RejectsDuplicateNames) {
  auto schema = Schema::Create(
      {{"x", DataType::kInt64, 0}, {"x", DataType::kDouble, 0}});
  EXPECT_FALSE(schema.ok());
  EXPECT_EQ(schema.status().code(), StatusCode::kInvalidArgument);
}

TEST(SchemaTest, RejectsEmptyName) {
  EXPECT_FALSE(Schema::Create({{"", DataType::kInt64, 0}}).ok());
}

TEST(SchemaTest, RejectsZeroDimVector) {
  EXPECT_FALSE(Schema::Create({{"v", DataType::kVector, 0}}).ok());
}

TEST(SchemaTest, RejectsDimOnNonVector) {
  EXPECT_FALSE(Schema::Create({{"x", DataType::kInt64, 8}}).ok());
}

TEST(SchemaTest, MissingFieldIsNotFound) {
  Schema schema = MakeSchema({{"a", DataType::kInt64, 0}});
  EXPECT_EQ(schema.FieldIndex("b").status().code(), StatusCode::kNotFound);
}

TEST(SchemaTest, DataTypeNames) {
  EXPECT_STREQ(DataTypeName(DataType::kInt64), "int64");
  EXPECT_STREQ(DataTypeName(DataType::kVector), "vector");
  EXPECT_STREQ(DataTypeName(DataType::kDate), "date");
}

// ---------------------------------------------------------------------------
// Column
// ---------------------------------------------------------------------------

TEST(ColumnTest, TypedConstructionAndAccess) {
  Column c = Column::Int64({1, 2, 3});
  EXPECT_EQ(c.type(), DataType::kInt64);
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c.int64_values()[1], 2);
  EXPECT_EQ(c.vector_dim(), 0u);
}

TEST(ColumnTest, VectorColumnReportsDim) {
  Column c = Column::Vector(workload::RandomUnitVectors(4, 16, 1));
  EXPECT_EQ(c.type(), DataType::kVector);
  EXPECT_EQ(c.size(), 4u);
  EXPECT_EQ(c.vector_dim(), 16u);
  EXPECT_NE(c.VectorAt(3), nullptr);
}

TEST(ColumnTest, GatherReordersAndRepeats) {
  Column c = Column::String({"a", "b", "c"});
  Column g = c.Gather({2, 0, 2, 1});
  ASSERT_EQ(g.size(), 4u);
  EXPECT_EQ(g.string_values()[0], "c");
  EXPECT_EQ(g.string_values()[1], "a");
  EXPECT_EQ(g.string_values()[2], "c");
  EXPECT_EQ(g.string_values()[3], "b");
}

TEST(ColumnTest, GatherVectorReadsSourceRowsInPlace) {
  la::Matrix m(3, 2);
  m.At(0, 0) = 1.0f;
  m.At(1, 0) = 2.0f;
  m.At(2, 0) = 3.0f;
  Column c = Column::Vector(std::move(m));
  Column g = c.Gather({1, 1, 0});
  EXPECT_EQ(g.size(), 3u);
  EXPECT_EQ(g.vector_dim(), 2u);
  EXPECT_FLOAT_EQ(g.VectorAt(0)[0], 2.0f);
  EXPECT_FLOAT_EQ(g.VectorAt(1)[0], 2.0f);
  EXPECT_FLOAT_EQ(g.VectorAt(2)[0], 1.0f);
  // No row was copied: the gathered rows are the source's rows.
  EXPECT_EQ(g.VectorAt(0), c.VectorAt(1));
  EXPECT_EQ(g.VectorAt(1), c.VectorAt(1));
  EXPECT_EQ(g.VectorAt(2), c.VectorAt(0));
}

TEST(ColumnTest, GatherOfGatherComposesToBaseRows) {
  Column base = Column::Vector(workload::RandomUnitVectors(6, 8, 3));
  Column first = base.Gather({5, 3, 1, 0});
  Column second = first.Gather({2, 0, 2, 3});
  ASSERT_EQ(second.size(), 4u);
  // 2 -> 1, 0 -> 5, 2 -> 1, 3 -> 0 in base rows.
  EXPECT_EQ(second.VectorAt(0), base.VectorAt(1));
  EXPECT_EQ(second.VectorAt(1), base.VectorAt(5));
  EXPECT_EQ(second.VectorAt(2), base.VectorAt(1));
  EXPECT_EQ(second.VectorAt(3), base.VectorAt(0));
  // Densifying the intermediate view does not redirect later gathers.
  (void)first.vector_values();
  Column third = first.Gather({1});
  EXPECT_EQ(third.VectorAt(0), base.VectorAt(3));
}

// The rows of `column` copied one by one: the bytes a dense gather holds.
la::Matrix EagerGather(const Column& column,
                       const std::vector<uint32_t>& rows) {
  const la::Matrix& source = column.vector_values();
  la::Matrix out(rows.size(), source.cols());
  for (size_t i = 0; i < rows.size(); ++i) {
    std::memcpy(out.Row(i), source.Row(rows[i]),
                source.cols() * sizeof(float));
  }
  return out;
}

TEST(ColumnTest, ViewDensifiesOnceToTheEagerBytes) {
  Column base = Column::Vector(workload::RandomUnitVectors(16, 12, 4));
  const std::vector<uint32_t> rows = {15, 2, 2, 9, 0, 7};
  Column view = base.Gather(rows);
  const la::Matrix eager = EagerGather(base, rows);
  const la::Matrix& dense = view.vector_values();
  ASSERT_EQ(dense.rows(), eager.rows());
  ASSERT_EQ(dense.cols(), eager.cols());
  EXPECT_EQ(std::memcmp(dense.data(), eager.data(),
                        eager.size() * sizeof(float)),
            0);
  // Built once: repeated calls return the same matrix.
  EXPECT_EQ(&view.vector_values(), &dense);
  EXPECT_EQ(view.shared_vector_values().get(), &dense);
  // A dense column hands out its own matrix, never a copy.
  EXPECT_EQ(&base.vector_values(), base.shared_vector_values().get());
}

TEST(ColumnTest, ConcurrentFirstDensifyBuildsOneMatrix) {
  Column base = Column::Vector(workload::RandomUnitVectors(512, 32, 6));
  std::vector<uint32_t> rows;
  for (uint32_t r = 0; r < 512; r += 3) rows.push_back(r);
  const auto view = std::make_shared<const Column>(base.Gather(rows));
  constexpr int kThreads = 8;
  std::vector<const la::Matrix*> seen(kThreads, nullptr);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      seen[t] = &view->vector_values();
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
  const la::Matrix eager = EagerGather(base, rows);
  ASSERT_EQ(seen[0]->rows(), rows.size());
  EXPECT_EQ(std::memcmp(seen[0]->data(), eager.data(),
                        eager.size() * sizeof(float)),
            0);
}

TEST(ColumnDeathTest, OutOfRangeGatherDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Column base = Column::Vector(workload::RandomUnitVectors(4, 8, 7));
  EXPECT_DEATH(base.Gather({0, 4}), "CEJ_CHECK");
  // A view is bounded by its own length, not its source matrix's.
  Column view = base.Gather({3, 1});
  EXPECT_DEATH(view.Gather({2}), "CEJ_CHECK");
}

TEST(ColumnTest, GatherEmptyProducesEmpty) {
  Column c = Column::Date({10, 20});
  Column g = c.Gather({});
  EXPECT_EQ(g.size(), 0u);
  EXPECT_EQ(g.type(), DataType::kDate);

  Column v = Column::Vector(workload::RandomUnitVectors(3, 4, 5)).Gather({});
  EXPECT_EQ(v.size(), 0u);
  EXPECT_EQ(v.vector_dim(), 4u);
  EXPECT_EQ(v.vector_values().rows(), 0u);
  EXPECT_EQ(v.vector_values().cols(), 4u);
}

// Int64, double, date and string columns gather to views as vectors do.
// Each kind builds a column from six distinct values and reads it back.
struct Int64Kind {
  using Value = int64_t;
  static std::vector<Value> Base() { return {70, -3, 42, 0, 9, 11}; }
  static Column Make(std::vector<Value> v) { return Column::Int64(v); }
  static const std::vector<Value>& Values(const Column& c) {
    return c.int64_values();
  }
};
struct DoubleKind {
  using Value = double;
  static std::vector<Value> Base() {
    return {0.5, -1.25, 3.0, 1e9, -2.0, 7.75};
  }
  static Column Make(std::vector<Value> v) { return Column::Double(v); }
  static const std::vector<Value>& Values(const Column& c) {
    return c.double_values();
  }
};
struct DateKind {
  using Value = int32_t;
  static std::vector<Value> Base() { return {19000, 1, -365, 20500, 0, 7}; }
  static Column Make(std::vector<Value> v) { return Column::Date(v); }
  static const std::vector<Value>& Values(const Column& c) {
    return c.date_values();
  }
};
struct StringKind {
  using Value = std::string;
  static std::vector<Value> Base() {
    return {"alpha", "", "a somewhat longer string than SSO holds", "d",
            "epsilon", "zeta"};
  }
  static Column Make(std::vector<Value> v) { return Column::String(v); }
  static const std::vector<Value>& Values(const Column& c) {
    return c.string_values();
  }
};

template <typename Kind>
class ScalarViewTest : public ::testing::Test {
 protected:
  using Value = typename Kind::Value;
  // The base values at `rows`, gathered by hand.
  static std::vector<Value> At(const std::vector<uint32_t>& rows) {
    const std::vector<Value> base = Kind::Base();
    std::vector<Value> out;
    for (uint32_t r : rows) out.push_back(base[r]);
    return out;
  }
};
using ScalarKinds =
    ::testing::Types<Int64Kind, DoubleKind, DateKind, StringKind>;
TYPED_TEST_SUITE(ScalarViewTest, ScalarKinds);

TYPED_TEST(ScalarViewTest, GatherReordersAndRepeats) {
  Column base = TypeParam::Make(TypeParam::Base());
  Column view = base.Gather({5, 0, 5, 2});
  EXPECT_EQ(view.type(), base.type());
  ASSERT_EQ(view.size(), 4u);
  EXPECT_EQ(TypeParam::Values(view), this->At({5, 0, 5, 2}));
  // The source is untouched.
  EXPECT_EQ(TypeParam::Values(base), TypeParam::Base());
}

TYPED_TEST(ScalarViewTest, GatherOfGatherComposesToBaseRows) {
  Column base = TypeParam::Make(TypeParam::Base());
  Column first = base.Gather({5, 3, 1, 0});
  Column second = first.Gather({2, 0, 2, 3});
  // 2 -> 1, 0 -> 5, 2 -> 1, 3 -> 0 in base rows.
  EXPECT_EQ(TypeParam::Values(second), this->At({1, 5, 1, 0}));
  // Densifying the intermediate view does not redirect later gathers.
  EXPECT_EQ(TypeParam::Values(first), this->At({5, 3, 1, 0}));
  Column third = first.Gather({1, 3});
  EXPECT_EQ(TypeParam::Values(third), this->At({3, 0}));
  // Nor does dropping it: the composed view holds the base values.
  { Column dropped = std::move(first); }
  Column fourth = second.Gather({3, 1});
  EXPECT_EQ(TypeParam::Values(fourth), this->At({0, 5}));
}

TYPED_TEST(ScalarViewTest, EmptyGatherIsEmpty) {
  Column base = TypeParam::Make(TypeParam::Base());
  Column view = base.Gather({});
  EXPECT_EQ(view.size(), 0u);
  EXPECT_EQ(view.type(), base.type());
  EXPECT_TRUE(TypeParam::Values(view).empty());
  EXPECT_EQ(view.Gather({}).size(), 0u);
}

TYPED_TEST(ScalarViewTest, ConcurrentFirstDensifyBuildsOneCopy) {
  std::vector<typename TypeParam::Value> values;
  for (int i = 0; i < 64; ++i) {
    for (const auto& v : TypeParam::Base()) values.push_back(v);
  }
  Column base = TypeParam::Make(values);
  std::vector<uint32_t> rows;
  for (uint32_t r = 0; r < values.size(); r += 3) rows.push_back(r);
  const auto view = std::make_shared<const Column>(base.Gather(rows));
  constexpr int kThreads = 8;
  std::vector<const void*> seen(kThreads, nullptr);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      seen[t] = &TypeParam::Values(*view);
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
  std::vector<typename TypeParam::Value> expected;
  for (uint32_t r : rows) expected.push_back(values[r]);
  EXPECT_EQ(TypeParam::Values(*view), expected);
  EXPECT_EQ(&TypeParam::Values(*view), seen[0]);
}

template <typename Kind>
class ScalarViewDeathTest : public ScalarViewTest<Kind> {};
TYPED_TEST_SUITE(ScalarViewDeathTest, ScalarKinds);

TYPED_TEST(ScalarViewDeathTest, OutOfRangeGatherDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Column base = TypeParam::Make(TypeParam::Base());
  EXPECT_DEATH(base.Gather({0, 6}), "CEJ_CHECK");
  // A view is bounded by its own length, not its source's.
  Column view = base.Gather({3, 1});
  EXPECT_DEATH(view.Gather({2}), "CEJ_CHECK");
}

TEST(ColumnTest, GatherAllMixesDenseAndViewColumns) {
  // The shape of a join input built from an earlier join: views over two
  // id lists, plus a dense column the earlier join appended.
  Column ids = Column::Int64({0, 10, 20, 30});
  Column words = Column::String({"w", "x", "y", "z"});
  std::vector<Column> left = Column::GatherAll({&ids, &words}, {3, 1, 2});
  Column names = Column::String({"p", "q"});
  Column right = names.Gather({1, 0, 0});
  Column sims = Column::Double({0.5, 0.25, 0.125});

  std::vector<Column> out =
      Column::GatherAll({&left[0], &left[1], &right, &sims}, {2, 2, 0});
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0].int64_values(), (std::vector<int64_t>{20, 20, 30}));
  EXPECT_EQ(out[1].string_values(),
            (std::vector<std::string>{"y", "y", "z"}));
  EXPECT_EQ(out[2].string_values(),
            (std::vector<std::string>{"p", "p", "q"}));
  EXPECT_EQ(out[3].double_values(),
            (std::vector<double>{0.125, 0.125, 0.5}));
}

TEST(ColumnDeathTest, GatherAllChecksEveryColumn) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Column longer = Column::Int64({1, 2, 3});
  Column shorter = Column::Date({4, 5});
  EXPECT_DEATH(Column::GatherAll({&longer, &shorter}, {2}), "CEJ_CHECK");
}

// ---------------------------------------------------------------------------
// Relation
// ---------------------------------------------------------------------------

Relation MakeTestRelation() {
  Schema schema = MakeSchema({{"id", DataType::kInt64, 0},
                              {"word", DataType::kString, 0},
                              {"when", DataType::kDate, 0}});
  std::vector<Column> columns;
  columns.push_back(Column::Int64({10, 20, 30, 40}));
  columns.push_back(Column::String({"w", "x", "y", "z"}));
  columns.push_back(Column::Date({100, 200, 300, 400}));
  auto rel = Relation::Create(std::move(schema), std::move(columns));
  CEJ_CHECK(rel.ok());
  return std::move(rel).value();
}

TEST(RelationTest, CreateValid) {
  Relation rel = MakeTestRelation();
  EXPECT_EQ(rel.num_rows(), 4u);
  EXPECT_EQ(rel.num_columns(), 3u);
  EXPECT_EQ(rel.ColumnByName("word").value()->string_values()[2], "y");
}

TEST(RelationTest, RejectsColumnCountMismatch) {
  Schema schema = MakeSchema({{"a", DataType::kInt64, 0}});
  std::vector<Column> columns;
  columns.push_back(Column::Int64({1}));
  columns.push_back(Column::Int64({2}));
  EXPECT_FALSE(Relation::Create(schema, std::move(columns)).ok());
}

TEST(RelationTest, RejectsTypeMismatch) {
  Schema schema = MakeSchema({{"a", DataType::kInt64, 0}});
  std::vector<Column> columns;
  columns.push_back(Column::Double({1.0}));
  EXPECT_FALSE(Relation::Create(schema, std::move(columns)).ok());
}

TEST(RelationTest, RejectsLengthMismatch) {
  Schema schema = MakeSchema(
      {{"a", DataType::kInt64, 0}, {"b", DataType::kInt64, 0}});
  std::vector<Column> columns;
  columns.push_back(Column::Int64({1, 2}));
  columns.push_back(Column::Int64({1, 2, 3}));
  EXPECT_FALSE(Relation::Create(schema, std::move(columns)).ok());
}

TEST(RelationTest, RejectsVectorDimMismatch) {
  Schema schema = MakeSchema({{"v", DataType::kVector, 8}});
  std::vector<Column> columns;
  columns.push_back(Column::Vector(workload::RandomUnitVectors(2, 4, 1)));
  EXPECT_FALSE(Relation::Create(schema, std::move(columns)).ok());
}

TEST(RelationTest, TakeMaterializesSubset) {
  Relation rel = MakeTestRelation();
  Relation sub = rel.Take({3, 1});
  EXPECT_EQ(sub.num_rows(), 2u);
  EXPECT_EQ(sub.ColumnByName("id").value()->int64_values()[0], 40);
  EXPECT_EQ(sub.ColumnByName("word").value()->string_values()[1], "x");
  // Original untouched.
  EXPECT_EQ(rel.num_rows(), 4u);
}

TEST(RelationTest, TakeEmptyYieldsEmptyRelation) {
  Relation rel = MakeTestRelation();
  Relation sub = rel.Take({});
  EXPECT_EQ(sub.num_rows(), 0u);
  EXPECT_EQ(sub.num_columns(), 3u);
}

TEST(RelationTest, WithColumnAppends) {
  Relation rel = MakeTestRelation();
  auto extended = rel.WithColumn({"score", DataType::kDouble, 0},
                                 Column::Double({0.1, 0.2, 0.3, 0.4}));
  ASSERT_TRUE(extended.ok());
  EXPECT_EQ(extended->num_columns(), 4u);
  EXPECT_EQ(extended->ColumnByName("score").value()->double_values()[3],
            0.4);
  // Shares the original columns.
  EXPECT_EQ(&rel.column(0), &extended->column(0));
}

TEST(RelationTest, WithColumnRejectsNameClash) {
  Relation rel = MakeTestRelation();
  auto extended =
      rel.WithColumn({"id", DataType::kInt64, 0}, Column::Int64({1, 2, 3, 4}));
  EXPECT_EQ(extended.status().code(), StatusCode::kAlreadyExists);
}

TEST(RelationTest, WithColumnRejectsLengthMismatch) {
  Relation rel = MakeTestRelation();
  auto extended =
      rel.WithColumn({"s", DataType::kInt64, 0}, Column::Int64({1}));
  EXPECT_FALSE(extended.ok());
}

TEST(RelationTest, WithColumnRejectsTypeMismatch) {
  Relation rel = MakeTestRelation();
  auto extended = rel.WithColumn({"s", DataType::kDouble, 0},
                                 Column::Int64({1, 2, 3, 4}));
  EXPECT_FALSE(extended.ok());
}

Relation MakeVectorRelation(size_t rows) {
  Schema schema = MakeSchema(
      {{"id", DataType::kInt64, 0}, {"emb", DataType::kVector, 8}});
  std::vector<int64_t> ids(rows);
  for (size_t i = 0; i < rows; ++i) ids[i] = static_cast<int64_t>(i);
  std::vector<Column> columns;
  columns.push_back(Column::Int64(std::move(ids)));
  columns.push_back(Column::Vector(workload::RandomUnitVectors(rows, 8, 8)));
  auto rel = Relation::Create(std::move(schema), std::move(columns));
  CEJ_CHECK(rel.ok());
  return std::move(rel).value();
}

TEST(RelationTest, TakeAndProjectOnViewColumns) {
  Relation rel = MakeVectorRelation(10);
  const Column& base = *rel.ColumnByName("emb").value();
  Relation first = rel.Take({9, 4, 6, 1});
  Relation second = first.Take({3, 3, 0});
  const Column& emb = *second.ColumnByName("emb").value();
  ASSERT_EQ(second.num_rows(), 3u);
  EXPECT_EQ(emb.size(), 3u);
  EXPECT_EQ(emb.VectorAt(0), base.VectorAt(1));
  EXPECT_EQ(emb.VectorAt(1), base.VectorAt(1));
  EXPECT_EQ(emb.VectorAt(2), base.VectorAt(9));
  EXPECT_EQ(second.ColumnByName("id").value()->int64_values(),
            (std::vector<int64_t>{1, 1, 9}));

  auto projected = second.Project(
      MakeSchema({{"vec", DataType::kVector, 8}, {"key", DataType::kInt64, 0}}),
      {1, 0});
  ASSERT_TRUE(projected.ok()) << projected.status().ToString();
  EXPECT_EQ(&projected->column(0), &emb);
  EXPECT_EQ(projected->ColumnByName("vec").value()->VectorAt(2),
            base.VectorAt(9));
  EXPECT_EQ(projected->column(0).vector_values().rows(), 3u);
}

TEST(RelationTest, WithVectorColumn) {
  Relation rel = MakeTestRelation();
  auto extended = rel.WithColumn(
      {"emb", DataType::kVector, 8},
      Column::Vector(workload::RandomUnitVectors(4, 8, 5)));
  ASSERT_TRUE(extended.ok());
  EXPECT_EQ(extended->ColumnByName("emb").value()->vector_dim(), 8u);
}

}  // namespace
}  // namespace cej::storage
