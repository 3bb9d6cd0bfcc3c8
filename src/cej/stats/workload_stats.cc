#include "cej/stats/workload_stats.h"

#include <algorithm>

namespace cej::stats {

uint64_t WorkloadStats::Record(Observation obs) {
  std::lock_guard<std::mutex> lock(mu_);
  obs.sequence = ++sequence_;
  const uint64_t stamped = obs.sequence;
  OperatorRing& ring = rings_[obs.op];
  ++ring.recorded;
  if (ring.ring.size() < ring_capacity_) {
    ring.ring.push_back(std::move(obs));
  } else {
    ring.ring[ring.next] = std::move(obs);
    ring.next = (ring.next + 1) % ring_capacity_;
  }
  return stamped;
}

std::vector<Observation> WorkloadStats::AllObservations() const {
  std::vector<Observation> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [op, ring] : rings_) {
      out.insert(out.end(), ring.ring.begin(), ring.ring.end());
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Observation& a, const Observation& b) {
              return a.sequence < b.sequence;
            });
  return out;
}

uint64_t WorkloadStats::RecordedCount(std::string_view op) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = rings_.find(std::string(op));
  return it == rings_.end() ? 0 : it->second.recorded;
}

}  // namespace cej::stats
