// End-to-end integration tests: the full pipeline the paper motivates —
// corpus -> trained/structural embedding model -> declarative plan ->
// optimizer -> join operators -> decoded results — plus cross-module
// consistency checks at realistic (small) scale.

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "cej/api/engine.h"
#include "cej/common/thread_pool.h"
#include "cej/index/hnsw_index.h"
#include "cej/join/index_join.h"
#include "cej/join/nlj_prefetch.h"
#include "cej/join/tensor_join.h"
#include "cej/model/skipgram.h"
#include "cej/model/subword_hash_model.h"
#include "cej/plan/executor.h"
#include "cej/plan/rewrite.h"
#include "cej/workload/corpus.h"
#include "cej/workload/generators.h"

namespace cej {
namespace {

using storage::Column;
using storage::DataType;
using storage::Relation;
using storage::Schema;

// ---------------------------------------------------------------------------
// Semantic similarity join quality: family recall/precision with the
// concept-aware subword model (the paper's "online data cleaning" use case).
// ---------------------------------------------------------------------------

TEST(SemanticJoinIntegrationTest, FamilyMembersJoinWithHighRecall) {
  workload::CorpusOptions copts;
  copts.num_families = 24;
  copts.variants_per_family = 4;
  copts.num_noise_words = 200;
  copts.seed = 21;
  workload::Corpus corpus(copts);
  auto lexicon = corpus.MakeLexicon();
  model::SubwordHashOptions mopts;
  mopts.concept_weight = 0.8f;
  model::SubwordHashModel model(mopts, &lexicon);

  // Left: one canonical member per family. Right: all family members plus
  // noise words.
  std::vector<std::string> left, right;
  for (size_t f = 0; f < corpus.num_families(); ++f) {
    left.push_back(corpus.Family(f)[0]);
    for (const auto& w : corpus.Family(f)) right.push_back(w);
  }
  auto noise = corpus.SampleWords(150, 0.0, 22);
  right.insert(right.end(), noise.begin(), noise.end());

  auto result = join::TensorJoinMatrices(
      model.EmbedBatch(left), model.EmbedBatch(right),
      join::JoinCondition::Threshold(0.6f));
  ASSERT_TRUE(result.ok());

  size_t true_positive = 0, false_positive = 0, expected_pairs = 0;
  std::set<std::pair<uint32_t, uint32_t>> matched;
  for (const auto& p : result->pairs) matched.insert({p.left, p.right});
  for (uint32_t i = 0; i < left.size(); ++i) {
    for (uint32_t j = 0; j < right.size(); ++j) {
      const bool truth = corpus.SameFamily(left[i], right[j]);
      const bool got = matched.count({i, j}) > 0;
      expected_pairs += truth;
      true_positive += (truth && got);
      false_positive += (!truth && got);
    }
  }
  const double recall =
      static_cast<double>(true_positive) / expected_pairs;
  const double precision =
      static_cast<double>(true_positive) /
      std::max<size_t>(true_positive + false_positive, 1);
  EXPECT_GT(recall, 0.9) << "recall " << recall;
  EXPECT_GT(precision, 0.8) << "precision " << precision;
}

TEST(SemanticJoinIntegrationTest, TrainedSkipGramSupportsJoins) {
  // The fully-learned path: train skip-gram, join over trained embeddings,
  // verify family members rank first.
  workload::CorpusOptions copts;
  copts.num_families = 6;
  copts.variants_per_family = 3;
  copts.num_noise_words = 12;
  copts.seed = 23;
  workload::Corpus corpus(copts);
  auto tokens = corpus.GenerateTokenStream(5000, 24);
  model::SkipGramOptions sopts;
  sopts.dim = 32;
  sopts.epochs = 4;
  auto trained = model::TrainSkipGram(tokens, sopts);
  ASSERT_TRUE(trained.ok());

  std::vector<std::string> left, right;
  for (size_t f = 0; f < corpus.num_families(); ++f) {
    left.push_back(corpus.Family(f)[0]);
    for (const auto& w : corpus.Family(f)) right.push_back(w);
  }
  auto result = join::TensorJoinMatrices(
      (*trained)->EmbedBatch(left), (*trained)->EmbedBatch(right),
      join::JoinCondition::TopK(copts.variants_per_family));
  ASSERT_TRUE(result.ok());
  // Count how many of each left word's top-k matches are family members.
  size_t family_hits = 0;
  for (const auto& p : result->pairs) {
    family_hits += corpus.SameFamily(left[p.left], right[p.right]);
  }
  const double hit_rate = static_cast<double>(family_hits) /
                          static_cast<double>(result->pairs.size());
  EXPECT_GT(hit_rate, 0.6) << "trained-embedding top-k family hit rate";
}

// ---------------------------------------------------------------------------
// E^-1 round trip through a join (paper Section III.C decode semantics).
// ---------------------------------------------------------------------------

TEST(DecodeIntegrationTest, JoinResultsDecodeBackToWords) {
  // A registered word table is the lookup table of E^-1: joining the words
  // against themselves top-1, each row matches itself, and the matched row
  // id decodes to the original string.
  model::SubwordHashModel model;
  auto words = workload::RandomStrings(50, 5, 9, 25);
  auto schema = Schema::Create({{"word", DataType::kString, 0}});
  ASSERT_TRUE(schema.ok());
  std::vector<Column> columns;
  columns.push_back(Column::String(words));
  auto table = Relation::Create(std::move(schema).value(), std::move(columns));
  ASSERT_TRUE(table.ok());

  Engine engine;
  ASSERT_TRUE(engine.RegisterModel("subword", &model).ok());
  ASSERT_TRUE(engine.RegisterTable("words", std::move(table).value()).ok());
  auto result = engine.Query("words")
                    .EJoin("words", "word", join::JoinCondition::TopK(1))
                    .Execute();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto& rel = result->relation;
  ASSERT_EQ(rel.num_rows(), words.size());
  const auto& left = rel.ColumnByName("word").value()->string_values();
  const auto& right =
      rel.ColumnByName("right_word").value()->string_values();
  for (size_t i = 0; i < rel.num_rows(); ++i) {
    EXPECT_EQ(left[i], words[i]);
    EXPECT_EQ(right[i], left[i]);
  }
}

// ---------------------------------------------------------------------------
// Scan vs probe consistency at scale with relational pre-filtering —
// a miniature of the Figure 15 experiment, checking result agreement
// rather than time.
// ---------------------------------------------------------------------------

TEST(ScanVsProbeIntegrationTest, FilteredScanAndProbeAgreeOnTopK) {
  const size_t n_right = 3000, n_left = 25, dim = 32;
  la::Matrix left = workload::RandomUnitVectors(n_left, dim, 26);
  la::Matrix right = workload::RandomUnitVectors(n_right, dim, 27);
  auto bitmap = workload::ExactSelectivityBitmap(n_right, 40.0, 28);

  // Scan path: materialize the filtered right side, then exact top-k join.
  std::vector<uint32_t> kept;
  for (uint32_t r = 0; r < n_right; ++r) {
    if (bitmap[r]) kept.push_back(r);
  }
  la::Matrix filtered(kept.size(), dim);
  for (size_t i = 0; i < kept.size(); ++i) {
    std::copy(right.Row(kept[i]), right.Row(kept[i]) + dim,
              filtered.Row(i));
  }
  auto scan = join::TensorJoinMatrices(left, filtered,
                                       join::JoinCondition::TopK(5));
  ASSERT_TRUE(scan.ok());

  // Probe path: pre-filtered HNSW probes over the full index.
  auto hnsw =
      index::HnswIndex::Build(right.Clone(), index::HnswBuildOptions::Hi());
  ASSERT_TRUE(hnsw.ok());
  (*hnsw)->set_ef_search(256);
  join::IndexJoinOptions ioptions;
  ioptions.filter = &bitmap;
  auto probe =
      join::IndexJoin(left, **hnsw, join::JoinCondition::TopK(5), ioptions);
  ASSERT_TRUE(probe.ok());

  // Compare: map scan ids back to base ids; require >= 90% agreement
  // (probe is approximate).
  std::set<std::pair<uint32_t, uint32_t>> scan_pairs, probe_pairs;
  for (const auto& p : scan->pairs) {
    scan_pairs.insert({p.left, kept[p.right]});
  }
  for (const auto& p : probe->pairs) probe_pairs.insert({p.left, p.right});
  size_t hits = 0;
  for (const auto& pr : probe_pairs) hits += scan_pairs.count(pr);
  EXPECT_GE(static_cast<double>(hits) / scan_pairs.size(), 0.9);
}

// ---------------------------------------------------------------------------
// Full declarative pipeline: the Figure 5 query — join two tables on
// string similarity with a date predicate, through the optimizer.
// ---------------------------------------------------------------------------

TEST(DeclarativeIntegrationTest, Figure5QueryEndToEnd) {
  workload::CorpusOptions copts;
  copts.num_families = 10;
  copts.variants_per_family = 3;
  copts.seed = 29;
  workload::Corpus corpus(copts);
  auto lexicon = corpus.MakeLexicon();
  model::SubwordHashOptions mopts;
  mopts.concept_weight = 0.8f;
  model::SubwordHashModel model(mopts, &lexicon);

  auto make_table = [&](size_t n, uint64_t seed) {
    auto schema = Schema::Create({{"word", DataType::kString, 0},
                                  {"taken", DataType::kDate, 0}});
    CEJ_CHECK(schema.ok());
    std::vector<Column> cols;
    cols.push_back(Column::String(corpus.SampleWords(n, 0.9, seed)));
    cols.push_back(Column::Date(workload::UniformDates(n, 0, 99, seed + 1)));
    auto rel =
        Relation::Create(std::move(schema).value(), std::move(cols));
    CEJ_CHECK(rel.ok());
    return std::make_shared<const Relation>(std::move(rel).value());
  };
  auto photos = make_table(60, 30);
  auto catalog = make_table(80, 32);

  // SELECT * FROM photos p, catalog c
  // WHERE p.taken > 50 AND sim(mu(p.word), mu(c.word)) >= 0.65
  auto plan = plan::EJoin(
      plan::Select(plan::Scan("photos", photos),
                   expr::Cmp("taken", expr::CmpOp::kGt, int64_t{50})),
      plan::Scan("catalog", catalog), "word", "word", &model,
      join::JoinCondition::Threshold(0.65f));
  auto optimized = plan::Optimize(plan);

  ThreadPool pool(2);
  plan::ExecContext context;
  context.pool = &pool;
  auto result = plan::Execute(optimized, context);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Every output row satisfies both the relational predicate and the
  // similarity condition, with matching family semantics dominating.
  const auto& taken = result->ColumnByName("taken").value()->date_values();
  const auto& sims =
      result->ColumnByName("similarity").value()->double_values();
  const auto& lw = result->ColumnByName("word").value()->string_values();
  const auto& rw =
      result->ColumnByName("right_word").value()->string_values();
  ASSERT_GT(result->num_rows(), 0u);
  size_t same_family = 0;
  for (size_t i = 0; i < result->num_rows(); ++i) {
    EXPECT_GT(taken[i], 50);
    EXPECT_GE(sims[i], 0.65);
    same_family += corpus.SameFamily(lw[i], rw[i]) || lw[i] == rw[i];
  }
  EXPECT_GT(static_cast<double>(same_family) / result->num_rows(), 0.8);
}

// ---------------------------------------------------------------------------
// Figure 13 semantics at test scale: mini-batching trades nothing in
// correctness for bounded memory.
// ---------------------------------------------------------------------------

TEST(MemoryIntegrationTest, MiniBatchingBoundsMemoryWithEqualResults) {
  const size_t n = 400, dim = 64;
  la::Matrix left = workload::RandomUnitVectors(n, dim, 33);
  la::Matrix right = workload::RandomUnitVectors(n, dim, 34);

  join::TensorJoinOptions no_batch;
  no_batch.batch_rows_left = n;
  no_batch.batch_rows_right = n;
  auto full = join::TensorJoinMatrices(left, right,
                                       join::JoinCondition::Threshold(0.2f),
                                       no_batch);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->stats.peak_buffer_bytes, n * n * sizeof(float));

  join::TensorJoinOptions budgeted;
  budgeted.batch_rows_left = n;
  budgeted.batch_rows_right = n;
  budgeted.memory_budget_bytes = 32 * 1024;
  auto batched = join::TensorJoinMatrices(
      left, right, join::JoinCondition::Threshold(0.2f), budgeted);
  ASSERT_TRUE(batched.ok());
  EXPECT_LE(batched->stats.peak_buffer_bytes, budgeted.memory_budget_bytes);
  // >= 19x memory reduction, identical results.
  EXPECT_GE(full->stats.peak_buffer_bytes /
                std::max<size_t>(batched->stats.peak_buffer_bytes, 1),
            19u);
  ASSERT_EQ(full->pairs.size(), batched->pairs.size());
  for (size_t i = 0; i < full->pairs.size(); ++i) {
    EXPECT_EQ(full->pairs[i].left, batched->pairs[i].left);
    EXPECT_EQ(full->pairs[i].right, batched->pairs[i].right);
  }
}

}  // namespace
}  // namespace cej
