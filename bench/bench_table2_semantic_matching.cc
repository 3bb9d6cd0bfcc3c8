// Table II: "Semantic Matching using FastText trained on Wikipedia dataset,
// 100-D embeddings, sample words." — top-15 model matches for sample words.
//
// Substitution: the concept-aware subword model plays the role of the
// trained FastText model (surface-form n-grams + planted synonym semantics;
// see cej/model/subword_hash_model.h). A second section repeats the
// exercise with real skip-gram embeddings trained on the synthetic corpus.
//
// Decoding (E^{-1}, paper Section III.C) is the paper's lookup table: the
// corpus vocabulary is a registered one-column table, so a row id maps to
// its word, and a sample word decodes by a top-k E-join against it.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "cej/cej.h"
#include "cej/model/skipgram.h"
#include "cej/workload/corpus.h"

namespace cej {
namespace {

// Families mirroring the paper's sample words: each family = one concept's
// surface forms (synonyms, variants, misspellings).
std::vector<std::vector<std::string>> PaperStyleFamilies() {
  return {
      {"dbms", "rdbms", "nosql", "dbmss", "postgresql", "rdbmss", "sql",
       "dbmses", "sqlite", "dataflow", "ordbms", "oodbms", "couchdb",
       "mysql", "ldap", "oltp"},
      {"postgres", "postgre", "postgis", "odbc", "backend", "rdbmses",
       "openvt", "openvp"},
      {"clothes", "dresses", "clothing", "garments", "underwear",
       "bedclothes", "undergarments", "towels", "underwears", "scarves",
       "shoes", "nightgowns", "clothings", "bathrobes", "underclothes"},
      {"barbecue", "barbecues", "bbq", "barbicue", "grilling"},
  };
}

std::shared_ptr<const storage::Relation> WordsTable(
    std::vector<std::string> words) {
  auto schema =
      storage::Schema::Create({{"word", storage::DataType::kString, 0}});
  std::vector<storage::Column> columns;
  columns.push_back(storage::Column::String(std::move(words)));
  auto rel = storage::Relation::Create(std::move(schema).value(),
                                       std::move(columns));
  return std::make_shared<const storage::Relation>(std::move(rel).value());
}

// Decodes each sample word to its `k` nearest vocabulary words under
// `model_name` and prints them best-first. The join returns rows in
// (left, right) order, so each word's rows are ranked here; a stable sort
// keeps the smaller vocabulary id first on ties, as a top-k does.
bool PrintTopK(Engine& engine, const std::string& model_name,
               const std::vector<std::string>& samples, size_t k) {
  CEJ_CHECK(engine.ReplaceTable("samples", WordsTable(samples)).ok());
  auto result = engine.Query("samples")
                    .UsingModel(model_name)
                    .EJoin("vocab", "word", join::JoinCondition::TopK(k))
                    .Execute();
  if (!result.ok()) {
    std::fprintf(stderr, "decode: %s\n", result.status().ToString().c_str());
    return false;
  }
  const auto& rel = result->relation;
  const auto& left = rel.ColumnByName("word").value()->string_values();
  const auto& right =
      rel.ColumnByName("right_word").value()->string_values();
  const auto& sims = rel.ColumnByName("similarity").value()->double_values();
  for (const auto& word : samples) {
    std::vector<size_t> rows;
    for (size_t i = 0; i < rel.num_rows(); ++i) {
      if (left[i] == word) rows.push_back(i);
    }
    std::stable_sort(rows.begin(), rows.end(),
                     [&](size_t a, size_t b) { return sims[a] > sims[b]; });
    std::printf("%-10s |", word.c_str());
    for (size_t i : rows) std::printf(" %s(%.2f)", right[i].c_str(), sims[i]);
    std::printf("\n");
  }
  return true;
}

}  // namespace
}  // namespace cej

int main() {
  using namespace cej;
  bench::PrintHeader("bench_table2_semantic_matching",
                     "Table II (top-15 semantic matches)");

  auto families = PaperStyleFamilies();
  workload::CorpusOptions copts;
  copts.num_noise_words = 400;
  workload::Corpus corpus(copts, families);
  auto lexicon = corpus.MakeLexicon();
  model::SubwordHashOptions mopts;
  mopts.concept_weight = 0.6f;
  model::SubwordHashModel model(mopts, &lexicon);

  // Vocabulary to decode against: all corpus words.
  Engine engine;
  CEJ_CHECK(engine.RegisterTable("vocab", WordsTable(corpus.words())).ok());
  CEJ_CHECK(engine.RegisterModel("subword", &model).ok());

  std::printf("\n## Concept-aware subword model (FastText substitute)\n");
  std::printf("%-10s | top-15 matches (cosine)\n", "word");
  if (!PrintTopK(engine, "subword",
                 {"dbms", "postgres", "clothes", "barbecue"}, 15)) {
    return 1;
  }

  // Trained path: skip-gram on the corpus token stream.
  std::printf("\n## Skip-gram trained on synthetic corpus (top-10)\n");
  auto tokens = corpus.GenerateTokenStream(
      bench::Scaled(20000, 200000), /*seed=*/1);
  model::SkipGramOptions sopts;
  sopts.dim = 64;
  sopts.epochs = 3;
  bool decoded = false;
  const double train_ms = bench::TimeMs([&] {
    auto trained = model::TrainSkipGram(tokens, sopts);
    if (!trained.ok()) return;
    CEJ_CHECK(
        engine.RegisterModel("skipgram", std::move(trained).value()).ok());
    decoded =
        PrintTopK(engine, "skipgram", {"dbms", "clothes", "barbecue"}, 10);
  });
  std::printf("# skip-gram training + decode: %.0f ms over %zu tokens\n",
              train_ms, tokens.size());
  return decoded ? 0 : 1;
}
