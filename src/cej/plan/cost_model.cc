#include "cej/plan/cost_model.h"

#include <algorithm>
#include <string>
#include <vector>

#include "cej/common/timer.h"
#include "cej/la/matrix.h"
#include "cej/la/simd.h"
#include "cej/workload/generators.h"

namespace cej::plan {

join::CostParams Calibrate(const model::EmbeddingModel& model,
                           size_t sample) {
  join::CostParams p;
  const size_t dim = model.dim();
  // M: average embedding latency over `sample` random strings.
  const auto strings = workload::RandomStrings(sample, 5, 12, /*seed=*/99);
  std::vector<float> buf(dim);
  WallTimer timer;
  for (const auto& s : strings) model.Embed(s, buf.data());
  p.model = timer.ElapsedNanos() / static_cast<double>(sample);

  // C: average unit-vector dot latency at this dimensionality.
  la::Matrix vecs = workload::RandomUnitVectors(sample, dim, /*seed=*/100);
  timer.Restart();
  volatile float sink = 0.0f;
  for (size_t i = 0; i + 1 < sample; ++i) {
    sink = sink + la::Dot(vecs.Row(i), vecs.Row(i + 1), dim);
  }
  p.compute = timer.ElapsedNanos() / static_cast<double>(sample - 1);

  // A: sequential access approximated as one cache line per vector —
  // bounded below to keep the parameter meaningful on hot caches.
  p.access = std::max(0.5, p.compute * 0.1);
  return p;
}

}  // namespace cej::plan
