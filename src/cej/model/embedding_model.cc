#include "cej/model/embedding_model.h"

#include "cej/common/thread_pool.h"

namespace cej::model {
namespace {

// Minimum rows per parallel chunk: below this the scheduling overhead of a
// pool task rivals the embedding work itself.
constexpr size_t kMinRowsPerChunk = 8;

}  // namespace

la::Matrix EmbeddingModel::EmbedBatch(const std::vector<std::string>& inputs,
                                      ThreadPool* pool) const {
  la::Matrix out(inputs.size(), dim());
  auto embed_rows = [this, &inputs, &out](size_t begin, size_t end) {
    for (size_t r = begin; r < end; ++r) Embed(inputs[r], out.Row(r));
  };
  if (pool != nullptr && inputs.size() > kMinRowsPerChunk) {
    pool->ParallelForRange(0, inputs.size(), embed_rows, kMinRowsPerChunk);
  } else {
    embed_rows(0, inputs.size());
  }
  return out;
}

}  // namespace cej::model
