#include "cej/la/topk.h"

#include <algorithm>
#include <cmath>

#include "cej/common/macros.h"

namespace cej::la {
namespace {

// Heap comparison making the *worst* kept element the heap top. "Worse"
// means lower score, or equal score with larger id (so the smaller id wins
// ties for being kept).
bool HeapLess(const ScoredId& x, const ScoredId& y) {
  if (x.score != y.score) return x.score > y.score;
  return x.id < y.id;
}

}  // namespace

TopKCollector::TopKCollector(size_t k) : k_(k) {
  CEJ_CHECK(k_ > 0);
  heap_.reserve(k_);
}

void TopKCollector::Push(float score, uint64_t id) {
  if (!WouldAccept(score, id)) return;
  if (heap_.size() < k_) {
    heap_.push_back({score, id});
    std::push_heap(heap_.begin(), heap_.end(), HeapLess);
    return;
  }
  std::pop_heap(heap_.begin(), heap_.end(), HeapLess);
  heap_.back() = {score, id};
  std::push_heap(heap_.begin(), heap_.end(), HeapLess);
}

bool TopKCollector::WouldAccept(float score, uint64_t id) const {
  // A NaN never qualifies. Once the heap is full the comparisons below
  // already reject it; before then it must not take a slot, or no later
  // score could displace it.
  if (heap_.size() < k_) return !std::isnan(score);
  const ScoredId& worst = heap_.front();
  // Mirror of Push's displacement test: strictly better than the worst
  // kept entry under the (score desc, id asc) total order.
  return score > worst.score || (score == worst.score && id < worst.id);
}

std::vector<ScoredId> TopKCollector::TakeSorted() {
  std::vector<ScoredId> out = std::move(heap_);
  heap_.clear();
  std::sort(out.begin(), out.end());  // ScoredId::operator< is best-first.
  return out;
}

std::vector<ScoredId> SelectTopK(const float* scores, size_t n, size_t k) {
  // The k == 0 answer is decided before any collector exists: the
  // collector CHECKs k > 0 and must never be constructed for it.
  if (k == 0) return {};
  TopKCollector collector(k);
  for (size_t i = 0; i < n; ++i) {
    collector.Push(scores[i], static_cast<uint64_t>(i));
  }
  return collector.TakeSorted();
}

}  // namespace cej::la
