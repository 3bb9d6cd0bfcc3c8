#include "cej/index/kmeans.h"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "cej/common/rng.h"
#include "cej/la/vector_ops.h"

namespace cej::index {

Result<KMeansResult> SphericalKMeans(const la::Matrix& data,
                                     const KMeansOptions& options) {
  if (data.rows() == 0 || data.cols() == 0) {
    return Status::InvalidArgument("k-means: empty input");
  }
  if (options.clusters == 0) {
    return Status::InvalidArgument("k-means: clusters must be > 0");
  }
  const size_t n = data.rows();
  const size_t dim = data.cols();
  const size_t k = std::min(options.clusters, n);

  // Init: k distinct rows chosen by partial Fisher-Yates.
  Rng rng(options.seed);
  std::vector<uint32_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<uint32_t>(i);
  for (size_t i = 0; i < k; ++i) {
    std::swap(order[i], order[i + rng.NextBounded(n - i)]);
  }
  KMeansResult result;
  result.centroids.Reset(k, dim);
  for (size_t c = 0; c < k; ++c) {
    std::memcpy(result.centroids.Row(c), data.Row(order[c]),
                dim * sizeof(float));
  }
  result.assignment.assign(n, 0);

  // Nearest-centroid pass; returns whether any assignment changed. Rows
  // are independent, so the pass fans out over the pool when one is
  // supplied — assignments (and therefore the whole clustering) are
  // bit-identical either way.
  auto assign = [&](size_t k_now) {
    std::atomic<bool> changed{false};
    auto assign_rows = [&](size_t row_begin, size_t row_end) {
      bool local_changed = false;
      for (size_t r = row_begin; r < row_end; ++r) {
        uint32_t best = 0;
        float best_sim = -2.0f;
        for (size_t c = 0; c < k_now; ++c) {
          const float sim =
              la::Dot(data.Row(r), result.centroids.Row(c), dim);
          if (sim > best_sim) {
            best_sim = sim;
            best = static_cast<uint32_t>(c);
          }
        }
        if (result.assignment[r] != best) {
          result.assignment[r] = best;
          local_changed = true;
        }
      }
      if (local_changed) changed.store(true, std::memory_order_relaxed);
    };
    if (options.pool != nullptr && n > 1) {
      options.pool->ParallelForRange(0, n, assign_rows, /*min_chunk=*/64);
    } else {
      assign_rows(0, n);
    }
    return changed.load(std::memory_order_relaxed);
  };

  std::vector<double> sums(k * dim);
  std::vector<uint32_t> counts(k);
  for (size_t iter = 0; iter < options.max_iters; ++iter) {
    const bool changed = assign(k);
    if (!changed && iter > 0) break;
    // Update step: mean of members, re-normalized (spherical update).
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0u);
    for (size_t r = 0; r < n; ++r) {
      const uint32_t c = result.assignment[r];
      ++counts[c];
      const float* row = data.Row(r);
      double* sum = sums.data() + static_cast<size_t>(c) * dim;
      for (size_t d = 0; d < dim; ++d) sum[d] += row[d];
    }
    for (size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Dead centroid: reseed from a random row to keep k lists useful.
        std::memcpy(result.centroids.Row(c), data.Row(rng.NextBounded(n)),
                    dim * sizeof(float));
        continue;
      }
      float* centroid = result.centroids.Row(c);
      const double* sum = sums.data() + static_cast<size_t>(c) * dim;
      for (size_t d = 0; d < dim; ++d) {
        centroid[d] = static_cast<float>(sum[d]);
      }
      la::NormalizeInPlace(centroid, dim);
    }
  }
  // Lloyd iterations end on an update step: refresh assignments so the
  // inverted lists are consistent with the final centroids.
  assign(k);
  return result;
}

}  // namespace cej::index
