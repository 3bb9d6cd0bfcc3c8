// Top-k selection over similarity scores.
//
// Index-based joins must specify a top-k (paper Table I / Section VI.E);
// scan-based joins can also emit top-k per probe vector. This helper keeps
// the k largest (score, id) pairs seen, breaking score ties by smaller id
// for determinism.

#ifndef CEJ_LA_TOPK_H_
#define CEJ_LA_TOPK_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cej::la {

/// One scored candidate.
struct ScoredId {
  float score;
  uint64_t id;

  /// Ordering: higher score first; ties broken by smaller id.
  friend bool operator<(const ScoredId& x, const ScoredId& y) {
    if (x.score != y.score) return x.score > y.score;
    return x.id < y.id;
  }
  friend bool operator==(const ScoredId& x, const ScoredId& y) {
    return x.score == y.score && x.id == y.id;
  }
};

/// Bounded max-collector: retains the k best ScoredIds pushed.
class TopKCollector {
 public:
  explicit TopKCollector(size_t k);

  /// Offers a candidate; kept only if it beats the current k-th best. A
  /// NaN score is never kept.
  void Push(float score, uint64_t id);

  /// True iff Push(score, id) would displace the current worst kept entry
  /// (or the collector is not yet full and the score is not NaN) — a
  /// faithful pre-filter: it applies Push's exact ordering, including the
  /// smaller-id tie-break, so a true return is never followed by a
  /// rejected Push of the same candidate.
  bool WouldAccept(float score, uint64_t id) const;

  size_t k() const { return k_; }
  size_t size() const { return heap_.size(); }

  /// Extracts results best-first. The collector is emptied.
  std::vector<ScoredId> TakeSorted();

 private:
  size_t k_;
  // Min-heap on (score, -id): heap_[0] is the current worst kept entry.
  std::vector<ScoredId> heap_;
};

/// Selects the k best entries of scores[0..n) (ids are indexes), sorted
/// best-first. Ties broken by smaller index.
std::vector<ScoredId> SelectTopK(const float* scores, size_t n, size_t k);

}  // namespace cej::la

#endif  // CEJ_LA_TOPK_H_
