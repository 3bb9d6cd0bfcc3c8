// Vector-level similarity operations (paper Section III.A).
//
// Cosine similarity over unit vectors reduces to a dot product; every
// embedding model in CEJ normalizes its output so join operators can use
// the cheaper inner-product form throughout. The raw dot-product kernels
// themselves live in simd.h; this header adds norms and full cosine.

#ifndef CEJ_LA_VECTOR_OPS_H_
#define CEJ_LA_VECTOR_OPS_H_

#include <cstddef>
#include <vector>

#include "cej/la/simd.h"

namespace cej::la {

/// Euclidean norm ||a||.
float L2Norm(const float* a, size_t dim);

/// Scales `a` to unit L2 norm in place; zero vectors are left unchanged.
void NormalizeInPlace(float* a, size_t dim);

/// Full cosine similarity (does NOT assume unit inputs):
///   cos(theta) = <a,b> / (||a|| * ||b||).
/// Returns 0 when either vector is zero.
float CosineSimilarity(const float* a, const float* b, size_t dim);

/// Convenience overloads on std::vector (sizes must match).
float Dot(const std::vector<float>& a, const std::vector<float>& b);
float CosineSimilarity(const std::vector<float>& a,
                       const std::vector<float>& b);

}  // namespace cej::la

#endif  // CEJ_LA_VECTOR_OPS_H_
