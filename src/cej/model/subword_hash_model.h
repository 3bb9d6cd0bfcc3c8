// FastText-style subword hashing embedder.
//
// Substitution note: the paper uses a FastText model trained
// on Wikipedia. FastText inference is the sum of hashed character-n-gram
// vectors; this model reproduces exactly that access/compute profile with
// deterministic pseudo-random n-gram vectors, so it is (a) OOV-capable,
// (b) misspelling-tolerant by construction (shared n-grams => high cosine),
// and (c) as expensive per call as real subword inference — which is what
// the model-cost experiments need. Semantic (non-surface) similarity such as
// "bbq" ~ "barbecue" is injected via an optional ConceptLexicon, standing in
// for what training on a real corpus provides.

#ifndef CEJ_MODEL_SUBWORD_HASH_MODEL_H_
#define CEJ_MODEL_SUBWORD_HASH_MODEL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>

#include "cej/model/embedding_model.h"

namespace cej::model {

/// Maps surface forms to concept ids. Words sharing a concept receive a
/// shared dominant vector component, emulating learned semantic similarity
/// (synonyms, tenses) that pure subword overlap cannot express.
class ConceptLexicon {
 public:
  /// Registers `word` as a surface form of `concept_id`.
  void Add(std::string word, uint32_t concept_id) {
    map_[std::move(word)] = concept_id;
  }

  /// Returns the concept for `word`, or -1 if unmapped.
  int64_t Lookup(std::string_view word) const {
    auto it = map_.find(std::string(word));
    return it == map_.end() ? -1 : static_cast<int64_t>(it->second);
  }

  size_t size() const { return map_.size(); }

 private:
  std::unordered_map<std::string, uint32_t> map_;
};

/// Configuration for SubwordHashModel.
struct SubwordHashOptions {
  size_t dim = 100;          ///< Embedding dimensionality (paper: 100).
  size_t min_ngram = 3;      ///< Shortest character n-gram (FastText default).
  size_t max_ngram = 6;      ///< Longest character n-gram (FastText default).
  uint64_t seed = 42;        ///< Model identity: different seeds = different mu.
  /// Weight of the concept component when the word is in the lexicon
  /// (0 = pure subword; 1 = pure concept). FastText-on-Wikipedia behaviour
  /// sits in between: surface forms cluster AND semantics cluster.
  float concept_weight = 0.7f;
};

/// Deterministic subword-hashing embedding model (see file comment).
class SubwordHashModel final : public EmbeddingModel {
 public:
  explicit SubwordHashModel(SubwordHashOptions options = {},
                            const ConceptLexicon* lexicon = nullptr);

  size_t dim() const override { return options_.dim; }
  const SubwordHashOptions& options() const { return options_; }

 protected:
  void EmbedImpl(std::string_view input, float* out) const override;

 private:
  /// Adds the deterministic unit-scale vector of hash bucket `h` into `out`
  /// with weight `w`.
  void AccumulateBucket(uint64_t h, float w, float* out) const;

  SubwordHashOptions options_;
  const ConceptLexicon* lexicon_;  // Not owned; may be nullptr.
};

}  // namespace cej::model

#endif  // CEJ_MODEL_SUBWORD_HASH_MODEL_H_
