// Vocabulary: word <-> id mapping with frequency counts and a unigram^0.75
// negative-sampling table, shared by the skip-gram trainer and the
// word-table model.

#ifndef CEJ_MODEL_VOCAB_H_
#define CEJ_MODEL_VOCAB_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cej/common/rng.h"

namespace cej::model {

/// Append-only vocabulary with frequency tracking.
class Vocab {
 public:
  /// Adds one occurrence of `word`, creating an id on first sight.
  /// Returns the word id.
  uint32_t AddOccurrence(std::string_view word);

  /// Returns the id of `word`, or -1 if unknown.
  int64_t Lookup(std::string_view word) const;

  const std::string& WordOf(uint32_t id) const { return words_.at(id); }
  uint64_t CountOf(uint32_t id) const { return counts_.at(id); }
  size_t size() const { return words_.size(); }
  uint64_t total_count() const { return total_count_; }

  /// Builds the unigram^0.75 sampling table (word2vec's negative-sampling
  /// distribution). Must be called after the vocabulary is final.
  void BuildSamplingTable(size_t table_size = 1 << 20);

  /// Samples a word id from the unigram^0.75 distribution.
  /// BuildSamplingTable must have been called.
  uint32_t SampleNegative(Rng& rng) const;

 private:
  std::unordered_map<std::string, uint32_t> ids_;
  std::vector<std::string> words_;
  std::vector<uint64_t> counts_;
  std::vector<uint32_t> sampling_table_;
  uint64_t total_count_ = 0;
};

}  // namespace cej::model

#endif  // CEJ_MODEL_VOCAB_H_
