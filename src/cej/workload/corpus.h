// Synthetic corpus with planted semantics — the stand-in for the paper's
// Wikipedia training corpus (see the substitution note in
// cej/model/subword_hash_model.h).
//
// The generator plants *synonym families*: groups of surface forms (base
// word, tense/plural variants, misspellings, and unrelated-looking aliases
// like "bbq" for "barbecue") that share a meaning. Families give three
// things the real corpus cannot: (1) a ConceptLexicon for the subword
// model, (2) a token stream in which family members appear in identical
// contexts so skip-gram training recovers the families, and (3) exact
// ground truth for similarity-join recall checks.

#ifndef CEJ_WORKLOAD_CORPUS_H_
#define CEJ_WORKLOAD_CORPUS_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "cej/common/rng.h"
#include "cej/model/subword_hash_model.h"

namespace cej::workload {

/// Corpus shape parameters.
struct CorpusOptions {
  size_t num_families = 64;       ///< Synonym families to plant.
  size_t variants_per_family = 5; ///< Surface forms per family (>= 1).
  size_t num_noise_words = 256;   ///< Unrelated filler vocabulary.
  uint64_t seed = 13;
};

/// A generated corpus: vocabulary with family structure plus samplers.
class Corpus {
 public:
  explicit Corpus(CorpusOptions options);

  /// Explicitly planted families override generated ones; used to mirror
  /// the paper's Table II examples (dbms/postgres/clothes...).
  /// Each inner vector is one family of surface forms.
  Corpus(CorpusOptions options,
         std::vector<std::vector<std::string>> explicit_families);

  /// All distinct words (family members first, then noise words).
  const std::vector<std::string>& words() const { return words_; }

  /// Family id of `word`, or -1 for noise words / unknown words.
  int64_t FamilyOf(const std::string& word) const;

  /// Ground truth: do two words share a family?
  bool SameFamily(const std::string& a, const std::string& b) const;

  /// Members of family `id`.
  const std::vector<std::string>& Family(size_t id) const {
    return families_.at(id);
  }
  size_t num_families() const { return families_.size(); }

  /// Concept lexicon for SubwordHashModel: every family member maps to its
  /// family id.
  model::ConceptLexicon MakeLexicon() const;

  /// Token stream for skip-gram training: sentences of the form
  /// [ctx ctx MEMBER ctx ctx], where each family owns a fixed set of
  /// context words. Family members thus share contexts and their trained
  /// embeddings converge.
  std::vector<std::string> GenerateTokenStream(size_t num_sentences,
                                               uint64_t seed) const;

  /// Samples n words for a join column: with probability `family_fraction`
  /// a uniformly random family member, else a noise word.
  std::vector<std::string> SampleWords(size_t n, double family_fraction,
                                       uint64_t seed) const;

 private:
  void BuildGeneratedFamilies(Rng& rng);
  void FinishConstruction();

  CorpusOptions options_;
  std::vector<std::vector<std::string>> families_;
  std::vector<std::string> noise_words_;
  std::vector<std::string> words_;
  std::unordered_map<std::string, int64_t> family_of_;
  // Per-family context vocabulary for the token stream.
  std::vector<std::vector<std::string>> family_contexts_;
};

}  // namespace cej::workload

#endif  // CEJ_WORKLOAD_CORPUS_H_
