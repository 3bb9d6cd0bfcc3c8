// IVF-Flat: inverted-file index with exact within-list scans — the second
// major vector-index family alongside HNSW (Johnson et al., "Billion-scale
// similarity search with GPUs"; the paper cites it as [8] and vector
// databases expose it next to HNSW). A spherical-k-means coarse quantizer
// partitions the vectors into nlist buckets; a probe scans the nprobe
// most promising buckets exhaustively.
//
// Included to widen the access-path study: IVF trades HNSW's pointer
// chasing for sequential list scans, sitting between the flat scan and
// the graph index on the Table I spectrum.

#ifndef CEJ_INDEX_IVF_INDEX_H_
#define CEJ_INDEX_IVF_INDEX_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cej/common/serde.h"
#include "cej/common/status.h"
#include "cej/common/thread_pool.h"
#include "cej/index/kmeans.h"
#include "cej/index/vector_index.h"
#include "cej/la/matrix.h"

namespace cej::index {

/// Construction options.
struct IvfBuildOptions {
  size_t nlist = 64;        ///< Number of inverted lists (clusters).
  size_t train_iters = 10;  ///< K-means iterations.
  uint64_t seed = 5;
};

/// Inverted-file index with flat (uncompressed) lists.
class IvfFlatIndex final : public VectorIndex {
 public:
  /// Builds over `vectors` (one unit vector per row). With a pool, the
  /// k-means assignment pass (the training hot loop) fans out across it;
  /// `options.seed` makes the clustering bit-identical either way.
  static Result<std::unique_ptr<IvfFlatIndex>> Build(
      la::Matrix vectors, IvfBuildOptions options = {},
      ThreadPool* pool = nullptr);

  size_t dim() const override { return vectors_.cols(); }
  size_t size() const override { return vectors_.rows(); }

  /// Lists scanned per probe (clamped to nlist). Default 8.
  void set_nprobe(size_t nprobe) { nprobe_ = nprobe; }
  size_t nprobe() const { return nprobe_; }
  size_t nlist() const { return centroids_.rows(); }

  std::vector<la::ScoredId> SearchTopK(
      const float* query, size_t k,
      const FilterBitmap* filter = nullptr) const override;

  /// Range probe: scans the nprobe closest lists and keeps entries above
  /// the threshold. Like all IVF probes, recall is bounded by list
  /// coverage.
  std::vector<la::ScoredId> SearchRange(
      const float* query, float threshold,
      const FilterBitmap* filter = nullptr) const override;

  uint64_t distance_computations() const override {
    return distance_computations_.load(std::memory_order_relaxed);
  }
  void ResetStats() const override {
    distance_computations_.store(0, std::memory_order_relaxed);
  }

  /// Introspection for tests: members of list `c`.
  const std::vector<uint32_t>& ListOf(size_t c) const {
    return lists_.at(c);
  }

  /// Persists vectors + centroids + inverted lists ("CEJI" binary format)
  /// so the k-means training cost is paid once across runs. SaveTo/LoadFrom
  /// nest inside a larger stream (the IndexManager envelope).
  Status Save(const std::string& path) const;
  Status SaveTo(serde::Writer& writer) const;
  static Result<std::unique_ptr<IvfFlatIndex>> Load(const std::string& path);
  static Result<std::unique_ptr<IvfFlatIndex>> LoadFrom(serde::Reader& reader);

 private:
  IvfFlatIndex(la::Matrix vectors, la::Matrix centroids,
               std::vector<std::vector<uint32_t>> lists);

  /// Indexes of the nprobe centroids most similar to `query`.
  std::vector<uint32_t> ClosestLists(const float* query) const;

  la::Matrix vectors_;
  la::Matrix centroids_;
  std::vector<std::vector<uint32_t>> lists_;
  size_t nprobe_ = 8;
  mutable std::atomic<uint64_t> distance_computations_{0};
};

}  // namespace cej::index

#endif  // CEJ_INDEX_IVF_INDEX_H_
