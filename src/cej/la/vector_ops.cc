#include "cej/la/vector_ops.h"

#include <cmath>

#include "cej/common/macros.h"

namespace cej::la {

float L2Norm(const float* a, size_t dim) {
  return std::sqrt(SquaredNorm(a, dim));
}

void NormalizeInPlace(float* a, size_t dim) {
  const float norm = L2Norm(a, dim);
  if (norm == 0.0f) return;
  const float inv = 1.0f / norm;
  for (size_t i = 0; i < dim; ++i) a[i] *= inv;
}

float CosineSimilarity(const float* a, const float* b, size_t dim) {
  const float na = L2Norm(a, dim);
  const float nb = L2Norm(b, dim);
  if (na == 0.0f || nb == 0.0f) return 0.0f;
  return Dot(a, b, dim) / (na * nb);
}

float Dot(const std::vector<float>& a, const std::vector<float>& b) {
  CEJ_CHECK(a.size() == b.size());
  return Dot(a.data(), b.data(), a.size());
}

float CosineSimilarity(const std::vector<float>& a,
                       const std::vector<float>& b) {
  CEJ_CHECK(a.size() == b.size());
  return CosineSimilarity(a.data(), b.data(), a.size());
}

}  // namespace cej::la
