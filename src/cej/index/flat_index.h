// Exact brute-force index: the ground truth against which approximate
// indexes are measured (recall), and the "scan" access path in miniature.

#ifndef CEJ_INDEX_FLAT_INDEX_H_
#define CEJ_INDEX_FLAT_INDEX_H_

#include <atomic>
#include <memory>
#include <string>

#include "cej/common/serde.h"
#include "cej/common/status.h"
#include "cej/la/matrix.h"
#include "cej/index/vector_index.h"

namespace cej::index {

/// Exhaustive-scan index over a row-major matrix of unit vectors.
class FlatIndex final : public VectorIndex {
 public:
  /// Takes ownership of `vectors` (one unit vector per row).
  explicit FlatIndex(la::Matrix vectors);
  /// Zero-copy form: shares an existing matrix (e.g. a cached column
  /// embedding) instead of cloning it — the flat index only reads.
  explicit FlatIndex(std::shared_ptr<const la::Matrix> vectors);

  size_t dim() const override { return vectors_->cols(); }
  size_t size() const override { return vectors_->rows(); }

  std::vector<la::ScoredId> SearchTopK(
      const float* query, size_t k,
      const FilterBitmap* filter = nullptr) const override;

  std::vector<la::ScoredId> SearchRange(
      const float* query, float threshold,
      const FilterBitmap* filter = nullptr) const override;

  uint64_t distance_computations() const override {
    return distance_computations_.load(std::memory_order_relaxed);
  }
  void ResetStats() const override {
    distance_computations_.store(0, std::memory_order_relaxed);
  }

  /// Persists the vector matrix ("CEJF" binary format). SaveTo/LoadFrom
  /// nest inside a larger stream (the IndexManager envelope).
  Status Save(const std::string& path) const;
  Status SaveTo(serde::Writer& writer) const;
  static Result<std::unique_ptr<FlatIndex>> Load(const std::string& path);
  static Result<std::unique_ptr<FlatIndex>> LoadFrom(serde::Reader& reader);

 private:
  std::shared_ptr<const la::Matrix> vectors_;
  mutable std::atomic<uint64_t> distance_computations_{0};
};

}  // namespace cej::index

#endif  // CEJ_INDEX_FLAT_INDEX_H_
