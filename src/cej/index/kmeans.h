// Spherical k-means: the coarse quantizer substrate for the IVF index.
//
// Operates on unit vectors with cosine (inner-product) assignment;
// centroids are re-normalized every iteration, which is the standard
// spherical-k-means update and keeps assignment consistent with the
// index's search metric.

#ifndef CEJ_INDEX_KMEANS_H_
#define CEJ_INDEX_KMEANS_H_

#include <cstdint>
#include <vector>

#include "cej/common/status.h"
#include "cej/common/thread_pool.h"
#include "cej/la/matrix.h"

namespace cej::index {

/// K-means configuration.
struct KMeansOptions {
  size_t clusters = 64;
  size_t max_iters = 10;
  /// Seeds BOTH stochastic steps — the initial partial-Fisher-Yates
  /// centroid draw and dead-centroid reseeding — so a fixed seed yields a
  /// bit-identical clustering (the IVF catalog keys rely on this).
  uint64_t seed = 5;
  /// Parallelizes the assignment pass (the O(n·k·d) hot loop) across the
  /// pool. Per-row assignments are independent, so the result is
  /// bit-identical to the sequential pass; the centroid update stays
  /// sequential to keep the floating-point reduction order fixed.
  ThreadPool* pool = nullptr;
};

/// Result: centroid matrix (clusters x dim, unit rows) and per-row
/// assignment.
struct KMeansResult {
  la::Matrix centroids;
  std::vector<uint32_t> assignment;
};

/// Runs spherical k-means over `data` (unit vector per row). `clusters`
/// is clamped to data.rows(). Fails on empty input or clusters == 0.
Result<KMeansResult> SphericalKMeans(const la::Matrix& data,
                                     const KMeansOptions& options);

}  // namespace cej::index

#endif  // CEJ_INDEX_KMEANS_H_
