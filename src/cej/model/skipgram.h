// Skip-gram with negative sampling (word2vec), trained from scratch.
//
// This is the "representation learning" substrate: the paper's FastText
// model is word2vec extended with subword units. CEJ trains real skip-gram
// embeddings on the synthetic corpus so that words appearing in the same
// contexts (the corpus generator plants synonym families into shared
// contexts) end up cosine-close — the learned analogue of what
// SubwordHashModel injects structurally.

#ifndef CEJ_MODEL_SKIPGRAM_H_
#define CEJ_MODEL_SKIPGRAM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cej/common/status.h"
#include "cej/model/lookup_table_model.h"

namespace cej::model {

/// Training hyperparameters.
struct SkipGramOptions {
  size_t dim = 64;             ///< Embedding dimensionality.
  size_t window = 3;           ///< Context window half-size.
  size_t negatives = 5;        ///< Negative samples per positive pair.
  size_t epochs = 3;           ///< Passes over the token stream.
  float learning_rate = 0.05f; ///< Initial SGD step (linearly decayed).
  uint64_t seed = 7;           ///< RNG seed (init + sampling).
};

/// Trains skip-gram/negative-sampling embeddings over `tokens` and returns
/// the trained table as a word-table model: one row per distinct token, in
/// first-seen order. Returns an error if the corpus is empty or has fewer
/// than 2 distinct tokens (nothing to contrast against).
Result<std::unique_ptr<LookupTableModel>> TrainSkipGram(
    const std::vector<std::string>& tokens, const SkipGramOptions& options);

}  // namespace cej::model

#endif  // CEJ_MODEL_SKIPGRAM_H_
