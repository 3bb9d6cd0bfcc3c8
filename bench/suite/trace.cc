#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <set>
#include <unordered_map>

namespace cej::suite {
namespace {

// Model calls closer together than this on one thread extend the same run.
constexpr int64_t kRunGapNs = 50'000;
// Spans past this many are counted as dropped, which bounds the tracer's
// memory in a long traced run.
constexpr uint64_t kMaxSpans = 200'000;

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Tracer::ThreadBuffer {
  std::mutex mu;
  uint32_t tid = 0;
  std::vector<Span> spans;
  std::vector<Span> open;  // Enclosing spans, innermost last.
  Span run;                // The open model-call run, if run_open.
  bool run_open = false;
};

Tracer::Tracer() = default;

Tracer::~Tracer() = default;

Tracer::ThreadBuffer* Tracer::ThisThread() {
  thread_local ThreadBuffer* buffer = nullptr;
  thread_local const Tracer* owner = nullptr;
  if (owner != this) {
    std::lock_guard<std::mutex> lock(buffers_mu_);
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    buffer = buffers_.back().get();
    buffer->tid = static_cast<uint32_t>(buffers_.size());
    owner = this;
  }
  return buffer;
}

void Tracer::SetCurrent(int64_t request, uint64_t span_id) {
  current_request_.store(request, std::memory_order_relaxed);
  current_span_.store(span_id, std::memory_order_relaxed);
}

void Tracer::PushLocked(ThreadBuffer* buffer, const Span& span) {
  if (recorded_.fetch_add(1, std::memory_order_relaxed) >= kMaxSpans) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buffer->spans.push_back(span);
}

uint64_t Tracer::Begin(const char* name, int64_t request) {
  if (!enabled()) return 0;
  ThreadBuffer* buffer = ThisThread();
  Span span;
  span.name = name;
  span.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  span.request = request;
  span.tid = buffer->tid;
  std::lock_guard<std::mutex> lock(buffer->mu);
  span.parent =
      buffer->open.empty() ? current_span_.load() : buffer->open.back().id;
  span.start_ns = NowNs();
  buffer->open.push_back(span);
  return span.id;
}

void Tracer::End(uint64_t id) {
  if (id == 0) return;
  const int64_t end = NowNs();
  ThreadBuffer* buffer = ThisThread();
  std::lock_guard<std::mutex> lock(buffer->mu);
  if (buffer->open.empty() || buffer->open.back().id != id) return;
  Span span = buffer->open.back();
  buffer->open.pop_back();
  span.end_ns = end;
  PushLocked(buffer, span);
}

void Tracer::Record(const char* name, int64_t start_ns, int64_t end_ns) {
  ThreadBuffer* buffer = ThisThread();
  Span span;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  span.tid = buffer->tid;
  std::lock_guard<std::mutex> lock(buffer->mu);
  if (buffer->open.empty()) {
    span.parent = current_span_.load();
    span.request = current_request_.load();
  } else {
    span.parent = buffer->open.back().id;
    span.request = buffer->open.back().request;
  }
  PushLocked(buffer, span);
}

void Tracer::ModelCall(int64_t start_ns, int64_t end_ns) {
  ThreadBuffer* buffer = ThisThread();
  std::lock_guard<std::mutex> lock(buffer->mu);
  const uint64_t parent =
      buffer->open.empty() ? current_span_.load() : buffer->open.back().id;
  if (buffer->run_open && buffer->run.parent == parent &&
      start_ns - buffer->run.end_ns < kRunGapNs) {
    buffer->run.end_ns = end_ns;
    ++buffer->run.calls;
    return;
  }
  FlushRunLocked(buffer);
  Span& run = buffer->run;
  run.name = "model.Embed";
  run.start_ns = start_ns;
  run.end_ns = end_ns;
  run.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  run.parent = parent;
  run.request = buffer->open.empty() ? current_request_.load()
                                     : buffer->open.back().request;
  run.tid = buffer->tid;
  run.calls = 1;
  buffer->run_open = true;
}

void Tracer::FlushRunLocked(ThreadBuffer* buffer) {
  if (!buffer->run_open) return;
  PushLocked(buffer, buffer->run);
  buffer->run_open = false;
}

void Tracer::FlushRuns() {
  std::lock_guard<std::mutex> lock(buffers_mu_);
  for (auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    FlushRunLocked(buffer.get());
  }
}

std::vector<Span> Tracer::Collect() const {
  std::vector<Span> out;
  std::lock_guard<std::mutex> lock(buffers_mu_);
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    out.insert(out.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return out;
}

std::vector<LayerRow> Tracer::Summarize(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> index;
  index.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  // Children on the caller's thread nest inside it, so their time is not
  // the caller's own; children on other threads run beside it.
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (const Span& span : spans) {
    auto it = index.find(span.parent);
    if (it == index.end() || spans[it->second].tid != span.tid) continue;
    child_ns[it->second] += span.end_ns - span.start_ns;
  }
  std::map<std::string, LayerRow> rows;
  std::map<std::string, std::set<uint32_t>> threads;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    LayerRow& row = rows[span.name];
    row.name = span.name;
    ++row.spans;
    row.calls += span.calls;
    const int64_t duration = span.end_ns - span.start_ns;
    row.total_ms += static_cast<double>(duration) / 1e6;
    row.self_ms += static_cast<double>(duration - child_ns[i]) / 1e6;
    threads[span.name].insert(span.tid);
  }
  std::vector<LayerRow> out;
  for (auto& [name, row] : rows) {
    row.threads = threads[name].size();
    out.push_back(row);
  }
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path,
                              const std::vector<Span>& spans,
                              const std::string& metadata_json) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  int64_t origin = 0;
  if (!spans.empty()) {
    origin = std::min_element(spans.begin(), spans.end(),
                              [](const Span& a, const Span& b) {
                                return a.start_ns < b.start_ns;
                              })
                 ->start_ns;
  }
  std::fprintf(file, "{\"displayTimeUnit\":\"ms\",\"otherData\":%s,"
                     "\"traceEvents\":[",
               metadata_json.c_str());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(file,
                 "%s\n{\"name\":\"%s\",\"cat\":\"cej\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                 "\"args\":{\"id\":%llu,\"parent\":%llu,\"request\":%lld,"
                 "\"calls\":%u}}",
                 i == 0 ? "" : ",", s.name,
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.tid,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<long long>(s.request), s.calls);
  }
  std::fprintf(file, "\n]}\n");
  return std::fclose(file) == 0;
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, int64_t request)
    : tracer_(tracer),
      id_(tracer != nullptr ? tracer->Begin(name, request) : 0) {}

ScopedSpan::~ScopedSpan() {
  if (tracer_ != nullptr) tracer_->End(id_);
}

void TimedModel::EmbedImpl(std::string_view input, float* out) const {
  if (!tracer_->enabled()) {
    inner_->Embed(input, out);
    return;
  }
  const int64_t start = NowNs();
  inner_->Embed(input, out);
  const int64_t end = NowNs();
  busy_ns_.fetch_add(end - start, std::memory_order_relaxed);
  tracer_->ModelCall(start, end);
}

bool TimedSink::Consume(const join::JoinPair* pairs, size_t count) {
  const int64_t start = NowNs();
  const bool more = inner_->Consume(pairs, count);
  const int64_t end = NowNs();
  consume_ns_.fetch_add(end - start, std::memory_order_relaxed);
  pairs_.fetch_add(count, std::memory_order_relaxed);
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->Record("sink.Consume", start, end);
  }
  return more;
}

}  // namespace cej::suite
