// Brute-force correctness oracle for the benchmark suite.
//
// The oracle owns a second SubwordHashModel built from the same options
// and lexicon as the engine's, embeds on one thread, and scores pairs
// with a scalar double-precision dot product. It runs after the timed
// phases, so the counters the suite reports (model calls, cache hits)
// never include its work. Scores within kTolerance of a threshold or of a
// top-k boundary may go either way: the library's SIMD float sums differ
// from this scalar sum in the last bits.

#ifndef CEJ_BENCH_SUITE_ORACLE_H_
#define CEJ_BENCH_SUITE_ORACLE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "cej/model/subword_hash_model.h"

namespace cej::suite {

inline constexpr double kTolerance = 1e-5;

/// A right id and the similarity the library reported for it.
using ScoredId = std::pair<uint32_t, float>;

class Oracle {
 public:
  /// Row-major embeddings from the oracle's model.
  struct Embedded {
    size_t dim = 0;
    std::vector<float> data;
    size_t rows() const { return dim == 0 ? 0 : data.size() / dim; }
    const float* row(size_t i) const { return data.data() + i * dim; }
  };

  Oracle(const model::SubwordHashOptions& options,
         const model::ConceptLexicon* lexicon)
      : model_(options, lexicon) {}

  Embedded Embed(const std::vector<std::string>& strings) const {
    Embedded out;
    out.dim = model_.dim();
    out.data.resize(strings.size() * out.dim);
    for (size_t i = 0; i < strings.size(); ++i) {
      model_.Embed(strings[i], out.data.data() + i * out.dim);
    }
    return out;
  }

  static std::vector<double> Scores(const float* left,
                                    const Embedded& right) {
    std::vector<double> scores(right.rows());
    for (size_t j = 0; j < scores.size(); ++j) {
      const float* r = right.row(j);
      double dot = 0.0;
      for (size_t d = 0; d < right.dim; ++d) {
        dot += static_cast<double>(left[d]) * static_cast<double>(r[d]);
      }
      scores[j] = dot;
    }
    return scores;
  }

  /// One left row of a top-k join: exactly min(k, |S|) distinct ids, each
  /// reported score equal to the oracle's, and each id scoring at least
  /// the oracle's k-th best (ties at the boundary may pick any id).
  /// Returns an empty string on success, else what failed.
  static std::string CheckTopK(const std::vector<double>& scores, size_t k,
                               const std::vector<ScoredId>& got) {
    const size_t expected = std::min(k, scores.size());
    if (got.size() != expected) {
      return "top-k returned " + std::to_string(got.size()) + " ids, want " +
             std::to_string(expected);
    }
    if (expected == 0) return "";
    std::vector<double> sorted = scores;
    std::nth_element(sorted.begin(), sorted.begin() + (expected - 1),
                     sorted.end(), std::greater<double>());
    const double kth = sorted[expected - 1];
    std::unordered_set<uint32_t> seen;
    double weakest = INFINITY;
    for (const auto& [id, sim] : got) {
      if (id >= scores.size() || !seen.insert(id).second) {
        return "top-k id " + std::to_string(id) + " out of range or repeated";
      }
      if (std::fabs(sim - scores[id]) > kTolerance) {
        return "top-k id " + std::to_string(id) + " reported score " +
               std::to_string(sim) + ", oracle " + std::to_string(scores[id]);
      }
      if (scores[id] < kth - kTolerance) {
        return "top-k id " + std::to_string(id) + " scores " +
               std::to_string(scores[id]) + " below the k-th best " +
               std::to_string(kth);
      }
      weakest = std::min(weakest, scores[id]);
    }
    if (std::fabs(weakest - kth) > kTolerance) {
      return "top-k k-th score " + std::to_string(weakest) + ", oracle " +
             std::to_string(kth);
    }
    return "";
  }

  /// One left row of a threshold join: every id scoring >= t + tolerance
  /// present, none scoring < t - tolerance, no repeats, and each reported
  /// score equal to the oracle's.
  static std::string CheckThreshold(const std::vector<double>& scores,
                                    double t,
                                    const std::vector<ScoredId>& got) {
    std::unordered_set<uint32_t> seen;
    for (const auto& [id, sim] : got) {
      if (id >= scores.size() || !seen.insert(id).second) {
        return "threshold id " + std::to_string(id) +
               " out of range or repeated";
      }
      if (scores[id] < t - kTolerance) {
        return "threshold id " + std::to_string(id) + " scores " +
               std::to_string(scores[id]) + " below " + std::to_string(t);
      }
      if (std::fabs(sim - scores[id]) > kTolerance) {
        return "threshold id " + std::to_string(id) + " reported score " +
               std::to_string(sim) + ", oracle " + std::to_string(scores[id]);
      }
    }
    for (size_t j = 0; j < scores.size(); ++j) {
      if (scores[j] >= t + kTolerance &&
          seen.count(static_cast<uint32_t>(j)) == 0) {
        return "threshold id " + std::to_string(j) + " scores " +
               std::to_string(scores[j]) + " but is missing";
      }
    }
    return "";
  }

 private:
  model::SubwordHashModel model_;
};

}  // namespace cej::suite

#endif  // CEJ_BENCH_SUITE_ORACLE_H_
