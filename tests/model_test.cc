// Tests for cej/model: subword hashing embedder (determinism, OOV,
// misspelling tolerance, concept semantics), skip-gram training (real
// representation learning on a planted corpus), lookup model, decoding
// (E^-1) as a top-k E-join, vocab, and model-call accounting.

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cej/cej.h"
#include "cej/la/vector_ops.h"
#include "cej/model/embedding_model.h"
#include "cej/model/lookup_table_model.h"
#include "cej/model/skipgram.h"
#include "cej/model/subword_hash_model.h"
#include "cej/model/vocab.h"
#include "cej/workload/corpus.h"
#include "cej/workload/generators.h"

namespace cej::model {
namespace {

float Sim(const EmbeddingModel& model, const std::string& a,
          const std::string& b) {
  auto va = model.EmbedToVector(a);
  auto vb = model.EmbedToVector(b);
  return la::Dot(va, vb);
}

// ---------------------------------------------------------------------------
// SubwordHashModel
// ---------------------------------------------------------------------------

TEST(SubwordHashModelTest, OutputIsUnitNorm) {
  SubwordHashModel model;
  for (const char* w : {"a", "hello", "barbecue", "x y z", ""}) {
    auto v = model.EmbedToVector(w);
    if (std::string(w).empty()) continue;  // Empty may embed via markers.
    EXPECT_NEAR(la::L2Norm(v.data(), v.size()), 1.0f, 1e-4f) << w;
  }
}

TEST(SubwordHashModelTest, Deterministic) {
  SubwordHashModel a, b;
  EXPECT_EQ(a.EmbedToVector("barbecue"), b.EmbedToVector("barbecue"));
}

TEST(SubwordHashModelTest, DifferentSeedsAreDifferentModels) {
  SubwordHashOptions o1, o2;
  o2.seed = 43;
  SubwordHashModel a(o1), b(o2);
  EXPECT_NE(a.EmbedToVector("barbecue"), b.EmbedToVector("barbecue"));
}

TEST(SubwordHashModelTest, HandlesOutOfVocabularyAnything) {
  SubwordHashModel model;
  // Never-seen strings embed fine (the hashing trick is total).
  auto v = model.EmbedToVector("zzqqjjkkxx123");
  EXPECT_EQ(v.size(), model.dim());
}

TEST(SubwordHashModelTest, MisspellingIsCloserThanRandomWord) {
  // The FastText property the paper relies on: shared n-grams => high
  // cosine. "barbecue" vs "barbicue" share most n-grams; "barbecue" vs
  // "quixotic" share none.
  SubwordHashModel model;
  const float misspelled = Sim(model, "barbecue", "barbicue");
  const float unrelated = Sim(model, "barbecue", "quixotic");
  EXPECT_GT(misspelled, unrelated + 0.2f);
  // A mid-word character substitution invalidates the n-grams spanning it;
  // roughly half survive, so the cosine sits near 0.4-0.5.
  EXPECT_GT(misspelled, 0.35f);
}

TEST(SubwordHashModelTest, PluralIsCloserThanRandomWord) {
  SubwordHashModel model;
  EXPECT_GT(Sim(model, "barbecue", "barbecues"),
            Sim(model, "barbecue", "mountain") + 0.2f);
}

TEST(SubwordHashModelTest, SelfSimilarityIsOne) {
  SubwordHashModel model;
  EXPECT_NEAR(Sim(model, "postgres", "postgres"), 1.0f, 1e-5f);
}

TEST(SubwordHashModelTest, ConceptLexiconLinksUnrelatedSurfaceForms) {
  // "bbq" and "barbecue" share no n-grams; only the concept component can
  // make them similar — emulating learned synonym semantics.
  ConceptLexicon lexicon;
  lexicon.Add("bbq", 1);
  lexicon.Add("barbecue", 1);
  lexicon.Add("sushi", 2);
  SubwordHashOptions options;
  SubwordHashModel with_concepts(options, &lexicon);
  SubwordHashModel without_concepts(options, nullptr);

  const float with = Sim(with_concepts, "bbq", "barbecue");
  const float without = Sim(without_concepts, "bbq", "barbecue");
  EXPECT_GT(with, 0.5f);
  EXPECT_GT(with, without + 0.3f);
  // Different concepts stay apart.
  EXPECT_LT(Sim(with_concepts, "bbq", "sushi"), with - 0.2f);
}

TEST(SubwordHashModelTest, ConceptWeightZeroDisablesBlending) {
  ConceptLexicon lexicon;
  lexicon.Add("bbq", 1);
  lexicon.Add("barbecue", 1);
  SubwordHashOptions options;
  options.concept_weight = 0.0f;
  SubwordHashModel blended(options, &lexicon);
  SubwordHashModel plain(options, nullptr);
  EXPECT_NEAR(Sim(blended, "bbq", "barbecue"),
              Sim(plain, "bbq", "barbecue"), 1e-4f);
}

TEST(SubwordHashModelTest, CustomDimensionality) {
  SubwordHashOptions options;
  options.dim = 17;
  SubwordHashModel model(options);
  EXPECT_EQ(model.dim(), 17u);
  EXPECT_EQ(model.EmbedToVector("abc").size(), 17u);
}

TEST(SubwordHashModelTest, CountsEmbedCalls) {
  SubwordHashModel model;
  model.ResetStats();
  model.EmbedToVector("a");
  model.EmbedToVector("b");
  EXPECT_EQ(model.embed_calls(), 2u);
  model.ResetStats();
  EXPECT_EQ(model.embed_calls(), 0u);
}

TEST(SubwordHashModelTest, EmbedBatchMatchesSingleEmbeds) {
  SubwordHashModel model;
  std::vector<std::string> words = {"alpha", "beta", "gamma"};
  la::Matrix batch = model.EmbedBatch(words);
  ASSERT_EQ(batch.rows(), 3u);
  for (size_t i = 0; i < words.size(); ++i) {
    auto single = model.EmbedToVector(words[i]);
    for (size_t c = 0; c < model.dim(); ++c) {
      EXPECT_EQ(batch.At(i, c), single[c]);
    }
  }
}

// ---------------------------------------------------------------------------
// Vocab
// ---------------------------------------------------------------------------

TEST(VocabTest, AssignsStableIds) {
  Vocab vocab;
  EXPECT_EQ(vocab.AddOccurrence("x"), 0u);
  EXPECT_EQ(vocab.AddOccurrence("y"), 1u);
  EXPECT_EQ(vocab.AddOccurrence("x"), 0u);
  EXPECT_EQ(vocab.size(), 2u);
  EXPECT_EQ(vocab.CountOf(0), 2u);
  EXPECT_EQ(vocab.total_count(), 3u);
  EXPECT_EQ(vocab.Lookup("y"), 1);
  EXPECT_EQ(vocab.Lookup("z"), -1);
  EXPECT_EQ(vocab.WordOf(1), "y");
}

TEST(VocabTest, NegativeSamplingFollowsFrequency) {
  Vocab vocab;
  for (int i = 0; i < 900; ++i) vocab.AddOccurrence("common");
  for (int i = 0; i < 100; ++i) vocab.AddOccurrence("rare");
  vocab.BuildSamplingTable(1 << 16);
  Rng rng(3);
  int common = 0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    if (vocab.SampleNegative(rng) == 0) ++common;
  }
  // Unigram^0.75 flattens 9:1 to about 900^.75 : 100^.75 ~ 5.2:1.
  const double frac = static_cast<double>(common) / kDraws;
  EXPECT_GT(frac, 0.70);
  EXPECT_LT(frac, 0.92);
}

// ---------------------------------------------------------------------------
// Skip-gram training (real representation learning).
// ---------------------------------------------------------------------------

TEST(SkipGramTest, RejectsDegenerateCorpora) {
  SkipGramOptions options;
  EXPECT_FALSE(TrainSkipGram({}, options).ok());
  EXPECT_FALSE(TrainSkipGram({"a", "a", "a"}, options).ok());
  options.dim = 0;
  EXPECT_FALSE(TrainSkipGram({"a", "b"}, options).ok());
}

TEST(SkipGramTest, LearnsPlantedFamilies) {
  // Words appearing in identical contexts should end up cosine-close;
  // words from different families should not.
  workload::CorpusOptions copts;
  copts.num_families = 8;
  copts.variants_per_family = 3;
  copts.num_noise_words = 16;
  copts.seed = 4;
  workload::Corpus corpus(copts);
  auto tokens = corpus.GenerateTokenStream(6000, /*seed=*/5);

  SkipGramOptions options;
  options.dim = 32;
  options.epochs = 4;
  auto model = TrainSkipGram(tokens, options);
  ASSERT_TRUE(model.ok());

  // Average same-family vs cross-family similarity over the first families.
  double same_sum = 0.0, cross_sum = 0.0;
  int same_n = 0, cross_n = 0;
  for (size_t f = 0; f < 4; ++f) {
    const auto& fam = corpus.Family(f);
    const auto& other = corpus.Family(f + 4);
    for (size_t i = 0; i + 1 < fam.size(); ++i) {
      same_sum += Sim(**model, fam[i], fam[i + 1]);
      ++same_n;
    }
    cross_sum += Sim(**model, fam[0], other[0]);
    ++cross_n;
  }
  const double same_avg = same_sum / same_n;
  const double cross_avg = cross_sum / cross_n;
  EXPECT_GT(same_avg, cross_avg + 0.2)
      << "same-family " << same_avg << " cross-family " << cross_avg;
}

TEST(SkipGramTest, TrainedVectorsAreUnitNorm) {
  auto model = TrainSkipGram({"a", "b", "a", "c", "b", "a"}, {});
  ASSERT_TRUE(model.ok());
  auto v = (*model)->EmbedToVector("a");
  EXPECT_NEAR(la::L2Norm(v.data(), v.size()), 1.0f, 1e-4f);
}

TEST(SkipGramTest, OovEmbedsDeterministically) {
  auto model = TrainSkipGram({"a", "b", "a", "b"}, {});
  ASSERT_TRUE(model.ok());
  EXPECT_EQ((*model)->EmbedToVector("unseen"),
            (*model)->EmbedToVector("unseen"));
  EXPECT_NE((*model)->EmbedToVector("unseen"),
            (*model)->EmbedToVector("different"));
}

TEST(SkipGramTest, TrainingIsDeterministicGivenSeed) {
  std::vector<std::string> tokens;
  for (int i = 0; i < 200; ++i) {
    tokens.push_back(i % 3 == 0 ? "x" : (i % 3 == 1 ? "y" : "z"));
  }
  auto m1 = TrainSkipGram(tokens, {});
  auto m2 = TrainSkipGram(tokens, {});
  ASSERT_TRUE(m1.ok() && m2.ok());
  EXPECT_EQ((*m1)->EmbedToVector("x"), (*m2)->EmbedToVector("x"));
}

// ---------------------------------------------------------------------------
// LookupTableModel
// ---------------------------------------------------------------------------

TEST(LookupTableModelTest, ReturnsTableRows) {
  la::Matrix table(2, 4);
  table.At(0, 0) = 1.0f;
  table.At(1, 1) = 1.0f;
  auto model = LookupTableModel::Create({"cat", "dog"}, std::move(table));
  ASSERT_TRUE(model.ok());
  auto v = (*model)->EmbedToVector("cat");
  EXPECT_FLOAT_EQ(v[0], 1.0f);
  EXPECT_FLOAT_EQ(v[1], 0.0f);
}

TEST(LookupTableModelTest, NormalizesIngestedRows) {
  la::Matrix table(1, 2);
  table.At(0, 0) = 3.0f;
  table.At(0, 1) = 4.0f;
  auto model = LookupTableModel::Create({"w"}, std::move(table));
  ASSERT_TRUE(model.ok());
  auto v = (*model)->EmbedToVector("w");
  EXPECT_NEAR(v[0], 0.6f, 1e-5f);
  EXPECT_NEAR(v[1], 0.8f, 1e-5f);
}

TEST(LookupTableModelTest, RejectsBadInputs) {
  EXPECT_FALSE(LookupTableModel::Create({}, la::Matrix(0, 4)).ok());
  EXPECT_FALSE(LookupTableModel::Create({"a"}, la::Matrix(2, 4)).ok());
  EXPECT_FALSE(
      LookupTableModel::Create({"a", "a"}, la::Matrix(2, 4)).ok());
}

TEST(LookupTableModelTest, OovIsDeterministicUnitVector) {
  auto model =
      LookupTableModel::Create({"a"}, workload::RandomUnitVectors(1, 8, 1));
  ASSERT_TRUE(model.ok());
  auto v1 = (*model)->EmbedToVector("zzz");
  auto v2 = (*model)->EmbedToVector("zzz");
  EXPECT_EQ(v1, v2);
  EXPECT_NEAR(la::L2Norm(v1.data(), v1.size()), 1.0f, 1e-4f);
}

// ---------------------------------------------------------------------------
// E^-1 (paper Section III.C) as the engine runs it: a registered word table
// is the lookup table (row id -> word), and a word decodes by a top-k
// E-join against it. The suite keeps the name of the class it replaced.
// ---------------------------------------------------------------------------

std::shared_ptr<const storage::Relation> WordsTable(
    std::vector<std::string> words, la::Matrix vectors = {}) {
  std::vector<storage::Field> fields = {
      {"word", storage::DataType::kString, 0}};
  std::vector<storage::Column> columns;
  columns.push_back(storage::Column::String(std::move(words)));
  if (!vectors.empty()) {
    fields.push_back({"emb", storage::DataType::kVector, vectors.cols()});
    columns.push_back(storage::Column::Vector(std::move(vectors)));
  }
  auto schema = storage::Schema::Create(std::move(fields));
  CEJ_CHECK(schema.ok());
  auto rel = storage::Relation::Create(std::move(schema).value(),
                                       std::move(columns));
  CEJ_CHECK(rel.ok());
  return std::make_shared<const storage::Relation>(std::move(rel).value());
}

struct DecodedWord {
  std::string query;
  std::string word;
  double similarity;
};

// Runs `query` and returns its (word, right_word, similarity) rows: query
// words in string order, each one's rows best-first. The join returns rows
// in (left, right) order; a stable sort keeps the smaller right id first on
// ties, as a top-k does.
std::vector<DecodedWord> Decode(const QueryBuilder& query) {
  auto result = query.Execute();
  CEJ_CHECK(result.ok());
  const auto& rel = result->relation;
  const auto& left = rel.ColumnByName("word").value()->string_values();
  const auto& right =
      rel.ColumnByName("right_word").value()->string_values();
  const auto& sims = rel.ColumnByName("similarity").value()->double_values();
  std::vector<DecodedWord> out;
  for (size_t i = 0; i < rel.num_rows(); ++i) {
    out.push_back({left[i], right[i], sims[i]});
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const DecodedWord& a, const DecodedWord& b) {
                     if (a.query != b.query) return a.query < b.query;
                     return a.similarity > b.similarity;
                   });
  return out;
}

TEST(DecoderTest, RoundTripsModelEmbeddings) {
  // E^-1(E(w)) = w for every vocabulary word (paper Section III.C).
  SubwordHashModel model;
  std::vector<std::string> words = {"dbms", "postgres", "clothes", "query",
                                    "join"};
  Engine engine;
  ASSERT_TRUE(engine.RegisterModel("subword", &model).ok());
  ASSERT_TRUE(engine.RegisterTable("vocab", WordsTable(words)).ok());
  ASSERT_TRUE(engine.RegisterTable("queries", WordsTable(words)).ok());
  auto decoded = Decode(engine.Query("queries").EJoin(
      "vocab", "word", join::JoinCondition::TopK(1)));
  ASSERT_EQ(decoded.size(), words.size());
  for (const auto& d : decoded) {
    EXPECT_EQ(d.word, d.query);
    EXPECT_NEAR(d.similarity, 1.0, 1e-4);
  }
}

TEST(DecoderTest, TopKReturnsBestFirst) {
  SubwordHashModel model;
  std::vector<std::string> words = {"barbecue", "barbecues", "barbicue",
                                    "mountain", "computer"};
  Engine engine;
  ASSERT_TRUE(engine.RegisterModel("subword", &model).ok());
  ASSERT_TRUE(engine.RegisterTable("vocab", WordsTable(words)).ok());
  ASSERT_TRUE(engine.RegisterTable("query", WordsTable({"barbecue"})).ok());
  auto top = Decode(engine.Query("query").EJoin(
      "vocab", "word", join::JoinCondition::TopK(3)));
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].word, "barbecue");
  // The two surface variants outrank the unrelated words.
  EXPECT_TRUE(top[1].word == "barbecues" || top[1].word == "barbicue");
  EXPECT_TRUE(top[2].word == "barbecues" || top[2].word == "barbicue");
  EXPECT_GE(top[0].similarity, top[1].similarity);
  EXPECT_GE(top[1].similarity, top[2].similarity);
}

TEST(DecoderTest, WordOfIsExactInverse) {
  // A stored vector decodes to the word of its own row: the row id is the
  // lookup key, and no model is involved.
  std::vector<std::string> words = {"p", "q"};
  const la::Matrix vectors = workload::RandomUnitVectors(2, 8, 3);
  Engine engine;
  ASSERT_TRUE(
      engine.RegisterTable("vocab", WordsTable(words, vectors.Clone())).ok());
  ASSERT_TRUE(
      engine.RegisterTable("queries", WordsTable(words, vectors.Clone()))
          .ok());
  auto decoded = Decode(engine.Query("queries").EJoin(
      "vocab", "emb", join::JoinCondition::TopK(1)));
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0].query, "p");
  EXPECT_EQ(decoded[0].word, "p");
  EXPECT_EQ(decoded[1].query, "q");
  EXPECT_EQ(decoded[1].word, "q");
}

}  // namespace
}  // namespace cej::model
