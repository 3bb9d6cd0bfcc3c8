// Semantic search over a string corpus through cej::Engine — the paper's
// observation in Section II.A.3, run literally: "a search query takes a
// single query as an input; batching many search queries would be
// equivalent to a join operation". A search is a one-row query table
// E-joined against the corpus — plus index persistence.
//
//   1. Embed a corpus once, build an HNSW index over it, save + reload it
//      (as a long-running service would).
//   2. Register corpus, model, and index with an Engine.
//   3. Answer top-k and range queries through both the exact tensor scan
//      and the index probe path, and compare.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "cej/cej.h"
#include "cej/workload/corpus.h"

using namespace cej;

namespace {

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

// The rows of a one-row query's join result, best-first. A join returns
// its rows in (left, right) order, not by rank; the stable sort keeps the
// smaller corpus id first on ties.
std::vector<size_t> RankedRows(const storage::Relation& rel) {
  const auto& sims = rel.ColumnByName("similarity").value()->double_values();
  std::vector<size_t> rows(rel.num_rows());
  std::iota(rows.begin(), rows.end(), 0);
  std::stable_sort(rows.begin(), rows.end(),
                   [&](size_t a, size_t b) { return sims[a] > sims[b]; });
  return rows;
}

void PrintMatches(const char* label, const QueryResult& result) {
  const auto& rel = result.relation;
  const auto& words =
      rel.ColumnByName("right_word").value()->string_values();
  const auto& sims = rel.ColumnByName("similarity").value()->double_values();
  std::printf("%s (operator '%s', %llu similarity computations):\n", label,
              result.stats.join_operator.c_str(),
              static_cast<unsigned long long>(
                  result.stats.join_stats.similarity_computations));
  for (size_t i : RankedRows(rel)) {
    std::printf("  %-20s %.3f\n", words[i].c_str(), sims[i]);
  }
}

}  // namespace

int main() {
  // Corpus: product-name-like words with planted synonym families.
  workload::CorpusOptions copts;
  copts.num_families = 50;
  copts.variants_per_family = 4;
  copts.num_noise_words = 4000;
  copts.seed = 11;
  workload::Corpus corpus(copts);
  const auto& docs = corpus.words();

  auto lexicon = corpus.MakeLexicon();
  model::SubwordHashOptions mopts;
  mopts.concept_weight = 0.7f;
  model::SubwordHashModel model(mopts, &lexicon);

  // One-off: embed the corpus, build + persist the index.
  la::Matrix embeddings = model.EmbedBatch(docs);
  const std::string index_path = "/tmp/cej_semantic_search.idx";
  {
    auto built = index::HnswIndex::Build(embeddings.Clone(),
                                         index::HnswBuildOptions::Lo());
    if (!built.ok() || !(*built)->Save(index_path).ok()) {
      std::fprintf(stderr, "index build/save failed\n");
      return 1;
    }
  }
  auto index = index::HnswIndex::Load(index_path);
  if (!index.ok()) {
    std::fprintf(stderr, "index load failed: %s\n",
                 index.status().ToString().c_str());
    return 1;
  }

  Engine engine;
  CEJ_CHECK(engine.RegisterTable("corpus", WordsTable(docs)).ok());
  CEJ_CHECK(engine.RegisterModel("subword", &model).ok());
  // The corpus is joined on its string column; the optimizer hoists the
  // embedding, and the registered index covers that hoisted column.
  CEJ_CHECK(engine.RegisterIndex("corpus", "word", index->get()).ok());
  std::printf("corpus: %zu documents, index persisted to %s and "
              "reloaded\n\n", docs.size(), index_path.c_str());

  // Demo 1 — misspelling tolerance: query with a typo of a corpus word.
  // Pick a long word so the typo leaves most character n-grams intact
  // (short words degrade, exactly as with real FastText).
  std::string base;
  for (const auto& w : docs) {
    if (corpus.FamilyOf(w) < 0 && w.size() > base.size()) base = w;
  }
  std::string query_word = base;
  std::swap(query_word[query_word.size() - 2],
            query_word[query_word.size() - 3]);
  std::printf("query: \"%s\" (typo of \"%s\")\n", query_word.c_str(),
              base.c_str());

  // The search IS a join: a one-row query table against the corpus.
  CEJ_CHECK(engine.RegisterTable("query", WordsTable({query_word})).ok());
  auto search =
      engine.Query("query").EJoin("corpus", "word", "word",
                                  join::JoinCondition::TopK(5));

  auto scan = search.Via("tensor").Execute();
  auto probe = search.Via("index").Execute();
  if (!scan.ok() || !probe.ok()) return 1;
  std::printf("\n");
  PrintMatches("exact scan (tensor operator)", *scan);
  PrintMatches("HNSW probe (index operator)", *probe);
  std::printf("probe touched %.1f%% of the corpus\n\n",
              100.0 * probe->stats.join_stats.similarity_computations /
                  scan->stats.join_stats.similarity_computations);

  // Demo 2 — semantic (synonym) retrieval: range-query with a family
  // member; its synonyms share a learned concept, not surface n-grams.
  const std::string& member = corpus.Family(7)[0];
  CEJ_CHECK(engine.RegisterTable("synonym_query", WordsTable({member})).ok());
  auto range = engine.Query("synonym_query")
                   .EJoin("corpus", "word", "word",
                          join::JoinCondition::Threshold(0.6f))
                   .Execute();
  if (!range.ok()) return 1;
  const auto& hits =
      range->relation.ColumnByName("right_word").value()->string_values();
  const auto& sims =
      range->relation.ColumnByName("similarity").value()->double_values();
  std::printf("synonym range query \"%s\" (cosine >= 0.6): %zu documents\n",
              member.c_str(), hits.size());
  for (size_t i : RankedRows(range->relation)) {
    std::printf("  %-20s %.3f%s\n", hits[i].c_str(), sims[i],
                corpus.SameFamily(hits[i], member) ? "  [same family]"
                                                   : "");
  }
  return 0;
}
