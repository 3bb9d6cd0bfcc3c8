#include "cej/model/decoder.h"

#include "cej/la/simd.h"

namespace cej::model {

Result<Decoder> Decoder::Create(std::vector<std::string> words,
                                la::Matrix table) {
  if (words.empty()) {
    return Status::InvalidArgument("decoder: empty table");
  }
  if (words.size() != table.rows()) {
    return Status::InvalidArgument("decoder: words/table size mismatch");
  }
  table.NormalizeRows();
  return Decoder(std::move(words), std::move(table));
}

Decoder::Decoder(std::vector<std::string> words, la::Matrix table)
    : words_(std::move(words)), table_(std::move(table)) {}

Decoded Decoder::Decode(const float* vec) const {
  auto top = DecodeTopK(vec, 1);
  return top.front();
}

std::vector<Decoded> Decoder::DecodeTopK(const float* vec, size_t k) const {
  la::TopKCollector collector(k);
  const size_t d = table_.cols();
  for (size_t r = 0; r < table_.rows(); ++r) {
    collector.Push(la::Dot(vec, table_.Row(r), d), r);
  }
  std::vector<Decoded> out;
  for (const auto& scored : collector.TakeSorted()) {
    out.push_back({words_[scored.id], scored.score});
  }
  return out;
}

}  // namespace cej::model
