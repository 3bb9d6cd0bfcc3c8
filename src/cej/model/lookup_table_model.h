// Word-table embedding model: one unit row per known word.
//
// This is the paper's cheapest model term M, "random access to a lookup
// table" (Section IV.A). It serves precomputed tables and the trained
// skip-gram table alike (TrainSkipGram returns one). The reverse mapping,
// E^{-1} (Section III.C), needs no class of its own: register the words as
// a table and top-k E-join a query against it through cej::Engine.

#ifndef CEJ_MODEL_LOOKUP_TABLE_MODEL_H_
#define CEJ_MODEL_LOOKUP_TABLE_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "cej/common/status.h"
#include "cej/la/matrix.h"
#include "cej/model/embedding_model.h"
#include "cej/model/vocab.h"

namespace cej::model {

/// EmbeddingModel backed by an explicit (vocab -> row) table. Unknown words
/// embed to a deterministic hash vector.
class LookupTableModel final : public EmbeddingModel {
 public:
  /// Builds a model from parallel `words` / `table` rows. The table is
  /// L2-normalized on ingestion. Fails if sizes mismatch or are empty.
  static Result<std::unique_ptr<LookupTableModel>> Create(
      const std::vector<std::string>& words, la::Matrix table);

  size_t dim() const override { return table_.cols(); }
  const Vocab& vocab() const { return *vocab_; }
  const la::Matrix& table() const { return table_; }

 protected:
  void EmbedImpl(std::string_view input, float* out) const override;

 private:
  LookupTableModel(std::shared_ptr<Vocab> vocab, la::Matrix table);

  std::shared_ptr<Vocab> vocab_;
  la::Matrix table_;  // One L2-normalized row per vocab word.
};

}  // namespace cej::model

#endif  // CEJ_MODEL_LOOKUP_TABLE_MODEL_H_
