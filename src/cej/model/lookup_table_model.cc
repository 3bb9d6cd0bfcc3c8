#include "cej/model/lookup_table_model.h"

#include <algorithm>
#include <cstdint>

#include "cej/common/rng.h"
#include "cej/la/vector_ops.h"

namespace cej::model {

Result<std::unique_ptr<LookupTableModel>> LookupTableModel::Create(
    const std::vector<std::string>& words, la::Matrix table) {
  if (words.empty()) {
    return Status::InvalidArgument("lookup model: empty vocabulary");
  }
  if (words.size() != table.rows()) {
    return Status::InvalidArgument(
        "lookup model: words/table row count mismatch");
  }
  if (table.cols() == 0) {
    return Status::InvalidArgument("lookup model: zero-dimensional table");
  }
  auto vocab = std::make_shared<Vocab>();
  for (const auto& w : words) {
    if (vocab->Lookup(w) >= 0) {
      return Status::AlreadyExists("lookup model: duplicate word '" + w +
                                   "'");
    }
    vocab->AddOccurrence(w);
  }
  table.NormalizeRows();
  return std::unique_ptr<LookupTableModel>(
      new LookupTableModel(std::move(vocab), std::move(table)));
}

LookupTableModel::LookupTableModel(std::shared_ptr<Vocab> vocab,
                                   la::Matrix table)
    : vocab_(std::move(vocab)), table_(std::move(table)) {}

void LookupTableModel::EmbedImpl(std::string_view input, float* out) const {
  const int64_t id = vocab_->Lookup(input);
  const size_t d = dim();
  if (id >= 0) {
    const float* row = table_.Row(static_cast<size_t>(id));
    std::copy(row, row + d, out);
    return;
  }
  // OOV fallback: deterministic hash vector (keeps the model total; real
  // FastText would back off to subword n-grams here).
  uint64_t state = 0x5bd1e995ULL;
  for (char c : input) state = state * 131 + static_cast<unsigned char>(c);
  for (size_t i = 0; i < d; ++i) {
    out[i] = static_cast<float>((SplitMix64(state) >> 40) * 0x1.0p-24) - 0.5f;
  }
  la::NormalizeInPlace(out, d);
}

}  // namespace cej::model
