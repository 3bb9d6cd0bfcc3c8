#include "cej/model/skipgram.h"

#include <algorithm>
#include <cmath>

#include "cej/common/rng.h"
#include "cej/model/vocab.h"

namespace cej::model {
namespace {

// Logistic function with clamping, as in the word2vec reference code.
float Sigmoid(float x) {
  if (x > 8.0f) return 1.0f;
  if (x < -8.0f) return 0.0f;
  return 1.0f / (1.0f + std::exp(-x));
}

}  // namespace

Result<std::unique_ptr<LookupTableModel>> TrainSkipGram(
    const std::vector<std::string>& tokens, const SkipGramOptions& options) {
  if (tokens.empty()) {
    return Status::InvalidArgument("skip-gram: empty corpus");
  }
  if (options.dim == 0) {
    return Status::InvalidArgument("skip-gram: dim must be > 0");
  }

  Vocab vocab;
  std::vector<uint32_t> stream;
  stream.reserve(tokens.size());
  for (const auto& tok : tokens) stream.push_back(vocab.AddOccurrence(tok));
  if (vocab.size() < 2) {
    return Status::InvalidArgument(
        "skip-gram: need at least 2 distinct tokens");
  }
  vocab.BuildSamplingTable();

  const size_t v = vocab.size();
  const size_t d = options.dim;
  Rng rng(options.seed);

  // Input ("in") vectors initialized uniform in [-0.5/d, 0.5/d] as in
  // word2vec; output ("out") vectors start at zero.
  la::Matrix in(v, d);
  la::Matrix out_table(v, d);
  for (size_t r = 0; r < v; ++r) {
    float* row = in.Row(r);
    for (size_t c = 0; c < d; ++c) {
      row[c] = (rng.NextFloat() - 0.5f) / static_cast<float>(d);
    }
  }

  const size_t n = stream.size();
  const uint64_t total_steps =
      static_cast<uint64_t>(options.epochs) * static_cast<uint64_t>(n);
  uint64_t step = 0;
  std::vector<float> grad_in(d);

  for (size_t epoch = 0; epoch < options.epochs; ++epoch) {
    for (size_t center = 0; center < n; ++center, ++step) {
      const float progress =
          static_cast<float>(step) / static_cast<float>(total_steps);
      const float lr =
          std::max(options.learning_rate * (1.0f - progress),
                   options.learning_rate * 1e-2f);
      // Dynamic window as in word2vec: uniform in [1, window].
      const size_t win = 1 + rng.NextBounded(options.window);
      const size_t lo = center >= win ? center - win : 0;
      const size_t hi = std::min(n - 1, center + win);
      const uint32_t w_center = stream[center];
      float* v_in = in.Row(w_center);
      for (size_t ctx = lo; ctx <= hi; ++ctx) {
        if (ctx == center) continue;
        std::fill(grad_in.begin(), grad_in.end(), 0.0f);
        // One positive + `negatives` sampled targets.
        for (size_t k = 0; k <= options.negatives; ++k) {
          uint32_t target;
          float label;
          if (k == 0) {
            target = stream[ctx];
            label = 1.0f;
          } else {
            target = vocab.SampleNegative(rng);
            if (target == stream[ctx]) continue;
            label = 0.0f;
          }
          float* v_out = out_table.Row(target);
          float dot = 0.0f;
          for (size_t i = 0; i < d; ++i) dot += v_in[i] * v_out[i];
          const float g = (label - Sigmoid(dot)) * lr;
          for (size_t i = 0; i < d; ++i) {
            grad_in[i] += g * v_out[i];
            v_out[i] += g * v_in[i];
          }
        }
        for (size_t i = 0; i < d; ++i) v_in[i] += grad_in[i];
      }
    }
  }

  std::vector<std::string> words;
  words.reserve(v);
  for (uint32_t id = 0; id < v; ++id) words.push_back(vocab.WordOf(id));
  return LookupTableModel::Create(words, std::move(in));
}

}  // namespace cej::model
