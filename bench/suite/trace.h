// In-memory span recording for traced benchmark runs, plus the two timing
// decorators the suite wraps around the library's public extension points
// (an EmbeddingModel and a JoinSink). Spans are recorded only from the
// suite's own code and these decorators — never from inside src/.
//
// A span has a name, start, end, parent span and request id. The parent
// is the enclosing span on the same thread; a span opened on another
// thread (a pool worker embedding strings for a query) takes the op the
// closed-loop client published as current, or none. Model calls are
// coalesced per thread into runs of back-to-back calls so a 20k-string
// embedding becomes a handful of spans, while busy time stays exact.

#ifndef CEJ_BENCH_SUITE_TRACE_H_
#define CEJ_BENCH_SUITE_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "cej/join/join_sink.h"
#include "cej/model/embedding_model.h"

namespace cej::suite {

/// Monotonic nanoseconds (steady_clock).
int64_t NowNs();

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 = root.
  int64_t request = -1;  ///< -1 = not attributable to one request.
  uint32_t tid = 0;
  uint32_t calls = 1;    ///< Coalesced calls (model runs), else 1.
};

/// One row of the per-layer table: all spans sharing a name.
struct LayerRow {
  std::string name;
  uint64_t spans = 0;
  uint64_t calls = 0;
  size_t threads = 0;
  double total_ms = 0.0;  ///< Sum of span durations (busy time).
  double self_ms = 0.0;   ///< Minus same-thread children.
};

/// Process-wide span recorder. Create one, before any engine whose
/// threads may record into it, and destroy it after them.
class Tracer {
 public:
  Tracer();
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// The op a single-client loop has in flight: spans opened on threads
  /// with no enclosing span of their own attach to it.
  void SetCurrent(int64_t request, uint64_t span_id);

  /// Opens a span on the calling thread; returns its id (0 when disabled).
  uint64_t Begin(const char* name, int64_t request);
  void End(uint64_t id);

  /// Records a leaf span on the calling thread.
  void Record(const char* name, int64_t start_ns, int64_t end_ns);

  /// Records one model call, extending the thread's current run when the
  /// call follows the previous one closely.
  void ModelCall(int64_t start_ns, int64_t end_ns);

  /// Closes every thread's open model run. Call when no thread records.
  void FlushRuns();

  /// Every recorded span, in no particular order.
  std::vector<Span> Collect() const;
  uint64_t dropped() const { return dropped_.load(); }

  /// Aggregates spans by name (see LayerRow).
  static std::vector<LayerRow> Summarize(const std::vector<Span>& spans);

  /// Writes Chrome trace-event JSON ("X" events, microseconds) that
  /// Perfetto and chrome://tracing open. `metadata_json` must be a JSON
  /// object; it is stored under "otherData".
  static bool WriteChromeTrace(const std::string& path,
                               const std::vector<Span>& spans,
                               const std::string& metadata_json);

 private:
  struct ThreadBuffer;
  ThreadBuffer* ThisThread();
  void PushLocked(ThreadBuffer* buffer, const Span& span);
  void FlushRunLocked(ThreadBuffer* buffer);

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> recorded_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<int64_t> current_request_{-1};
  std::atomic<uint64_t> current_span_{0};

  mutable std::mutex buffers_mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// RAII span; a null or disabled tracer makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t request = -1);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  uint64_t id_;
};

/// EmbeddingModel decorator: forwards every call to `inner` and, while the
/// tracer is enabled, times it (exact busy time plus coalesced spans).
/// Call counts come from the inner model's own embed_calls().
class TimedModel final : public model::EmbeddingModel {
 public:
  TimedModel(const model::EmbeddingModel* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  size_t dim() const override { return inner_->dim(); }

  int64_t busy_ns() const { return busy_ns_.load(); }

 protected:
  void EmbedImpl(std::string_view input, float* out) const override;

 private:
  const model::EmbeddingModel* inner_;
  Tracer* tracer_;
  mutable std::atomic<int64_t> busy_ns_{0};
};

/// JoinSink decorator: times Consume() and counts the pairs delivered.
class TimedSink final : public join::JoinSink {
 public:
  TimedSink(join::JoinSink* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  bool Consume(const join::JoinPair* pairs, size_t count) override;
  void Finish() override { inner_->Finish(); }

  int64_t consume_ns() const { return consume_ns_.load(); }
  uint64_t pairs() const { return pairs_.load(); }

 private:
  join::JoinSink* inner_;
  Tracer* tracer_;
  std::atomic<int64_t> consume_ns_{0};
  std::atomic<uint64_t> pairs_{0};
};

}  // namespace cej::suite

#endif  // CEJ_BENCH_SUITE_TRACE_H_
