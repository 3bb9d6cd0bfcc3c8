// Blocked, multi-threaded similarity GEMM: D = A · Bᵀ.
//
// This is the computational core of the tensor join formulation (paper
// Section IV.C, Figure 6). A is |R| x d, B is |S| x d (both row-major, one
// embedding per row); D is the |R| x |S| pairwise inner-product matrix. The
// block-matrix decomposition partitions A and B along *tuple* boundaries
// (never along dimensions) so that a tile of B stays resident in cache while
// a tile of A streams against it.

#ifndef CEJ_LA_GEMM_H_
#define CEJ_LA_GEMM_H_

#include <cstddef>

#include "cej/common/thread_pool.h"
#include "cej/la/matrix.h"
#include "cej/la/simd.h"

namespace cej::la {

/// Tuning knobs for the blocked GEMM.
struct GemmOptions {
  /// Row-tile height over A (tuples of R per block).
  size_t block_m = 64;
  /// Row-tile height over B (tuples of S per block).
  size_t block_n = 256;
  /// Kernel speed only: both modes return the same bits. kForceScalar is
  /// the NO-SIMD arm of Figures 8 and 9.
  SimdMode simd = SimdMode::kAuto;
  /// Worker pool; nullptr runs single-threaded on the caller.
  ThreadPool* pool = nullptr;
};

/// Computes D = A · Bᵀ. D must be pre-shaped to A.rows() x B.rows();
/// A.cols() must equal B.cols().
void GemmABt(const Matrix& a, const Matrix& b, Matrix* d,
             const GemmOptions& options = {});

/// Reference implementation (naive triple loop) for correctness testing.
void GemmABtReference(const Matrix& a, const Matrix& b, Matrix* d);

/// Computes one output tile D[i0..i1) x [j0..j1) of A · Bᵀ into `out`, a
/// dense row-major (i1-i0) x (j1-j0) buffer. This is the unit of work the
/// mini-batched tensor join schedules (Figure 7): callers own the buffer and
/// can bound its size independently of |R| x |S|. Every entry equals
/// Dot(a_i, b_j) bit for bit, whatever the tile bounds.
void GemmTile(const Matrix& a, const Matrix& b, size_t i0, size_t i1,
              size_t j0, size_t j1, float* out, SimdMode simd);

}  // namespace cej::la

#endif  // CEJ_LA_GEMM_H_
