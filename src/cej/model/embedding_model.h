// The embedding operator's model interface (paper Section III.B).
//
// A model mu maps context-rich input (strings here, but the operators are
// input-type-agnostic once in the vector domain) into a d-dimensional unit
// vector. Models count their invocations: the logical-optimization study
// (Figure 8, cost model Section IV.A) hinges on whether a join performs
// |R|*|S| or |R|+|S| model accesses, and the counter lets tests and benches
// verify which one an operator actually did.

#ifndef CEJ_MODEL_EMBEDDING_MODEL_H_
#define CEJ_MODEL_EMBEDDING_MODEL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cej/la/matrix.h"

namespace cej {
class ThreadPool;
}

namespace cej::model {

/// Abstract embedding model mu: string -> unit vector in R^dim.
class EmbeddingModel {
 public:
  virtual ~EmbeddingModel() = default;

  /// Embedding dimensionality d.
  virtual size_t dim() const = 0;

  /// Embeds `input` into out[0..dim()), L2-normalized. Thread-safe.
  void Embed(std::string_view input, float* out) const {
    embed_calls_.fetch_add(1, std::memory_order_relaxed);
    EmbedImpl(input, out);
  }

  /// Convenience: embeds into a fresh vector.
  std::vector<float> EmbedToVector(std::string_view input) const {
    std::vector<float> out(dim());
    Embed(input, out.data());
    return out;
  }

  /// Embeds a batch of strings into a rows x dim matrix (one string per
  /// row). This is the "prefetch" primitive of the E-NLJ optimization.
  /// With a pool, rows are embedded in parallel over contiguous chunks
  /// (EmbedImpl is thread-safe per the interface contract; output rows are
  /// disjoint); results are identical to the sequential path. Model
  /// invocation dominates end-to-end join cost (paper Fig. 14), so this is
  /// the single biggest cold-start lever the operators have.
  la::Matrix EmbedBatch(const std::vector<std::string>& inputs,
                        ThreadPool* pool = nullptr) const;

  /// Number of Embed() invocations since construction or ResetStats().
  uint64_t embed_calls() const {
    return embed_calls_.load(std::memory_order_relaxed);
  }
  void ResetStats() const {
    embed_calls_.store(0, std::memory_order_relaxed);
  }

 protected:
  virtual void EmbedImpl(std::string_view input, float* out) const = 0;

 private:
  mutable std::atomic<uint64_t> embed_calls_{0};
};

}  // namespace cej::model

#endif  // CEJ_MODEL_EMBEDDING_MODEL_H_
