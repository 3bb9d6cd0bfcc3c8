// The four workloads of the CEJ benchmark suite. Each drives the library
// only through its public entry points (Engine, QueryBuilder,
// serve::Server, JoinSink, EmbeddingModel) and uses one query shape, so
// its latency percentiles describe one kind of request. Why each exists
// is recorded in bench/suite/README.md and BENCHMARK.json.

#include <sys/prctl.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "cej/common/rng.h"
#include "cej/workload/generators.h"
#include "suite.h"

namespace cej::suite {
namespace {

using join::JoinCondition;
using storage::DataType;

constexpr double kThreshold = 0.8;
// Every kSampleStride-th op (by op index) of a timed phase keeps its output
// for the oracle, up to kMaxSamples per run.
constexpr uint64_t kSampleStride = 16;
constexpr size_t kMaxSamples = 4;
// Left rows of one sampled op that the oracle re-derives in full.
constexpr size_t kRowsPerSample = 16;

uint64_t SubSeed(uint64_t seed, uint64_t stream, uint64_t index) {
  uint64_t state = seed * 0x9e3779b97f4a7c15ULL +
                   stream * 0xbf58476d1ce4e5b9ULL + index;
  return SplitMix64(state);
}

// n strings in random order: round(n * family_fraction) surface forms of
// the planted families [family_begin, family_end), spread evenly over
// them, and random lowercase strings of 3-12 characters (unrelated to
// every other string) for the rest. Fixed per-family counts keep match
// counts, and so the work per query, the same from seed to seed.
std::vector<std::string> MixedWords(const workload::Corpus& corpus, size_t n,
                                    size_t family_begin, size_t family_end,
                                    double family_fraction, uint64_t seed) {
  Rng rng(seed);
  const size_t family_words = static_cast<size_t>(
      std::llround(static_cast<double>(n) * family_fraction));
  std::vector<std::string> out =
      workload::RandomStrings(n, 3, 12, SubSeed(seed, 1, 0));
  for (size_t i = 0; i < family_words; ++i) {
    const auto& family =
        corpus.Family(family_begin + i % (family_end - family_begin));
    out[i] = family[rng.NextBounded(family.size())];
  }
  std::shuffle(out.begin(), out.end(), rng);
  return out;
}

// n values 0..99, each equally often, in random order: a window of w
// values selects the same number of rows in every query.
std::vector<int64_t> SelColumn(size_t n, uint64_t seed) {
  std::vector<int64_t> sel(n);
  for (size_t i = 0; i < n; ++i) sel[i] = static_cast<int64_t>(i % 100);
  Rng rng(seed);
  std::shuffle(sel.begin(), sel.end(), rng);
  return sel;
}

std::vector<int64_t> Iota(size_t n) {
  std::vector<int64_t> ids(n);
  for (size_t i = 0; i < n; ++i) ids[i] = static_cast<int64_t>(i);
  return ids;
}

std::shared_ptr<const storage::Relation> MakeRelation(
    std::vector<storage::Field> fields, std::vector<storage::Column> columns) {
  auto schema = storage::Schema::Create(std::move(fields));
  CEJ_CHECK(schema.ok());
  auto relation = storage::Relation::Create(std::move(schema).value(),
                                            std::move(columns));
  CEJ_CHECK(relation.ok());
  return std::make_shared<const storage::Relation>(std::move(relation).value());
}

// Payload bytes of a materialized result (strings counted by length).
double RelationBytes(const storage::Relation& relation) {
  double bytes = 0.0;
  const double rows = static_cast<double>(relation.num_rows());
  for (size_t c = 0; c < relation.num_columns(); ++c) {
    const storage::Column& column = relation.column(c);
    switch (column.type()) {
      case DataType::kInt64:
      case DataType::kDouble:
        bytes += 8.0 * rows;
        break;
      case DataType::kDate:
        bytes += 4.0 * rows;
        break;
      case DataType::kVector:
        bytes += 4.0 * rows * static_cast<double>(column.vector_dim());
        break;
      case DataType::kString:
        for (const std::string& s : column.string_values()) {
          bytes += static_cast<double>(s.size());
        }
        break;
    }
  }
  return bytes;
}

const std::vector<int64_t>& Int64Column(const storage::Relation& relation,
                                        const std::string& name) {
  auto column = relation.ColumnByName(name);
  CEJ_CHECK(column.ok());
  return (*column)->int64_values();
}

expr::PredicatePtr Window(const std::string& column, int64_t lo,
                          int64_t width) {
  return expr::And(expr::Cmp(column, expr::CmpOp::kGe, lo),
                   expr::Cmp(column, expr::CmpOp::kLt, lo + width));
}

// Rows whose `sel` value falls in [lo, lo + width).
std::vector<uint32_t> RowsInWindow(const std::vector<int64_t>& sel, int64_t lo,
                                   int64_t width) {
  std::vector<uint32_t> rows;
  for (size_t r = 0; r < sel.size(); ++r) {
    if (sel[r] >= lo && sel[r] < lo + width) {
      rows.push_back(static_cast<uint32_t>(r));
    }
  }
  return rows;
}

// Up to `count` evenly spaced entries of `rows`.
std::vector<uint32_t> Spread(const std::vector<uint32_t>& rows, size_t count) {
  if (rows.size() <= count) return rows;
  std::vector<uint32_t> out;
  for (size_t i = 0; i < count; ++i) {
    out.push_back(rows[i * rows.size() / count]);
  }
  return out;
}

void ReportMismatch(const char* workload, const std::string& what,
                    size_t* mismatches) {
  if (*mismatches < 5) {
    std::fprintf(stderr, "oracle mismatch [%s]: %s\n", workload, what.c_str());
  }
  ++*mismatches;
}

void ReportFailure(const char* workload, const Status& status,
                   uint64_t* reported) {
  if ((*reported)++ < 5) {
    std::fprintf(stderr, "op failed [%s]: %s\n", workload,
                 status.ToString().c_str());
  }
}

Engine::Options EngineOptions() {
  Engine::Options options;
  options.num_threads = kEngineThreads;
  return options;
}

// Traced phases time OptimizedPlan() on its own, outside any op latency.
void TimeOptimize(const QueryBuilder& query, int64_t request, Tracer* tracer,
                  LayerCounters* layers) {
  if (tracer == nullptr) return;
  const int64_t start = NowNs();
  {
    ScopedSpan span(tracer, "plan.OptimizedPlan", request);
    (void)query.OptimizedPlan();  // A failing plan fails the op itself.
  }
  layers->optimize_ms.push_back(static_cast<double>(NowNs() - start) / 1e6);
}

// ---------------------------------------------------------------------------
// Closed loop: one client issues op i+1 when op i returns.
// ---------------------------------------------------------------------------
class ClosedLoop : public Workload {
 public:
  ClosedLoop(const char* name, const Environment& env)
      : name_(name), env_(env) {}

  Status Setup() override {
    engine_.reset();
    engine_ = std::make_unique<Engine>(EngineOptions());
    CEJ_RETURN_IF_ERROR(engine_->RegisterModel("subword", env_.model));
    CEJ_RETURN_IF_ERROR(RegisterTables());
    LayerCounters unused;
    double latency_ms = 0.0;
    if (!Op(next_op_++, PhaseKind::kWarmup, nullptr, &unused, &latency_ms)) {
      return Status::Internal("the first query failed");
    }
    return Status::OK();
  }

  PhaseResult Run(double seconds, PhaseKind kind) final {
    PhaseResult result;
    Tracer* tracer = kind == PhaseKind::kTraced ? env_.tracer : nullptr;
    const int64_t start = NowNs();
    const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
    while (NowNs() < deadline) {
      const uint64_t i = next_op_++;
      double latency_ms = 0.0;
      bool ok = false;
      {
        ScopedSpan op(tracer, "op", static_cast<int64_t>(i));
        if (tracer != nullptr) {
          tracer->SetCurrent(static_cast<int64_t>(i), op.id());
        }
        ok = Op(i, kind, tracer, &result.layers, &latency_ms);
        if (tracer != nullptr) tracer->SetCurrent(-1, 0);
      }
      ++result.attempted;
      if (!ok) {
        ++result.failed;
        continue;
      }
      result.latency_ms.push_back(latency_ms);
    }
    const double elapsed = static_cast<double>(NowNs() - start) / 1e9;
    result.throughput_qps =
        static_cast<double>(result.latency_ms.size()) / elapsed;
    result.layers.queries = static_cast<double>(result.latency_ms.size());
    return result;
  }

  size_t checked() const override { return checked_; }
  Engine* engine() override { return engine_.get(); }

 protected:
  virtual Status RegisterTables() = 0;

  // Runs op `i`; on success sets the op's latency. Spans go to `tracer`
  // (null when untraced), per-layer counters to `layers`.
  virtual bool Op(uint64_t i, PhaseKind kind, Tracer* tracer,
                  LayerCounters* layers, double* latency_ms) = 0;

  bool ShouldSample(uint64_t i, PhaseKind kind, size_t taken) const {
    return kind != PhaseKind::kWarmup && i % kSampleStride == 0 &&
           taken < kMaxSamples;
  }

  // Reports a failed op (the first few, to stderr); returns false.
  bool Failed(const Status& status) {
    ReportFailure(name_, status, &failures_reported_);
    return false;
  }

  // Op i's timed Execute() of `query`; traced phases also fold the
  // result's counters into `layers`.
  Result<QueryResult> TimedExecute(const QueryBuilder& query, uint64_t i,
                                   Tracer* tracer, LayerCounters* layers,
                                   double* latency_ms) {
    TimeOptimize(query, static_cast<int64_t>(i), tracer, layers);
    const int64_t start = NowNs();
    Result<QueryResult> result = [&] {
      ScopedSpan span(tracer, "query.Execute", static_cast<int64_t>(i));
      return query.Execute();
    }();
    *latency_ms = static_cast<double>(NowNs() - start) / 1e6;
    if (result.ok() && tracer != nullptr) {
      layers->AddExec(result->stats, env_.model->dim(), 1.0);
      layers->rows_out += static_cast<double>(result->relation.num_rows());
      layers->bytes_out += RelationBytes(result->relation);
    }
    return result;
  }

  const char* const name_;
  Environment env_;
  std::unique_ptr<Engine> engine_;
  uint64_t next_op_ = 0;
  uint64_t failures_reported_ = 0;
  size_t checked_ = 0;
};

// ---------------------------------------------------------------------------
// scan_topk: Select over an 8k-row probe table, top-8 E-join against a 16k
// corpus whose embeddings stay cached. The GEMM sweep and top-k collection
// do the work. Each of the 4 shards sweeps 4k corpus rows (1.6 MB), which
// stay in one core's 2 MB L2 on the reference host: with a 50k corpus the
// shards streamed from an L3 that other tenants of the host share, and in
// interleaved runs the run-to-run spread of the median latency was 36%
// there against 18% at 16k.
// ---------------------------------------------------------------------------
class ScanTopK final : public ClosedLoop {
 public:
  static constexpr size_t kProbeRows = 8000;
  static constexpr size_t kCorpusRows = 16000;
  static constexpr int64_t kSelWidth = 3;  // ~3% of the probes per query.
  static constexpr size_t kK = 8;

  explicit ScanTopK(const Environment& env) : ClosedLoop("scan_topk", env) {
    const workload::Corpus& corpus = *env.corpus;
    const size_t families = corpus.num_families();
    probe_words_ = MixedWords(corpus, kProbeRows, 0, families, 0.5,
                              SubSeed(env.seed, 10, 0));
    probe_sel_ = SelColumn(kProbeRows, SubSeed(env.seed, 10, 1));
    corpus_words_ = MixedWords(corpus, kCorpusRows, 0, families, 0.1,
                               SubSeed(env.seed, 10, 2));
    std::vector<storage::Column> probe_columns;
    probe_columns.push_back(storage::Column::Int64(Iota(kProbeRows)));
    probe_columns.push_back(storage::Column::Int64(probe_sel_));
    probe_columns.push_back(storage::Column::String(probe_words_));
    probes_ = MakeRelation({{"pid", DataType::kInt64, 0},
                            {"sel", DataType::kInt64, 0},
                            {"word", DataType::kString, 0}},
                           std::move(probe_columns));
    std::vector<storage::Column> corpus_columns;
    corpus_columns.push_back(storage::Column::Int64(Iota(kCorpusRows)));
    corpus_columns.push_back(storage::Column::String(corpus_words_));
    corpus_ = MakeRelation({{"cid", DataType::kInt64, 0},
                            {"word", DataType::kString, 0}},
                           std::move(corpus_columns));
  }

  std::vector<std::pair<std::string, double>> Sizes() const override {
    return {{"probe_rows", kProbeRows},
            {"probe_rows_per_query", kProbeRows * kSelWidth / 100.0},
            {"corpus_rows", kCorpusRows},
            {"k", kK}};
  }

  size_t Check(const Oracle& oracle) override {
    size_t mismatches = 0;
    checked_ = 0;
    if (samples_.empty()) return 0;
    const Oracle::Embedded corpus = oracle.Embed(corpus_words_);
    for (const Sample& sample : samples_) {
      const std::vector<uint32_t> selected =
          RowsInWindow(probe_sel_, sample.lo, kSelWidth);
      std::unordered_map<uint32_t, std::vector<ScoredId>> by_probe;
      for (size_t r = 0; r < sample.pid.size(); ++r) {
        by_probe[static_cast<uint32_t>(sample.pid[r])].push_back(
            {static_cast<uint32_t>(sample.cid[r]),
             static_cast<float>(sample.similarity[r])});
      }
      const std::unordered_set<uint32_t> wanted(selected.begin(),
                                                selected.end());
      for (const auto& [pid, ids] : by_probe) {
        if (wanted.count(pid) == 0) {
          ReportMismatch("scan_topk",
                         "probe " + std::to_string(pid) + " fails the Select",
                         &mismatches);
        }
      }
      for (uint32_t pid : Spread(selected, kRowsPerSample)) {
        ++checked_;
        const Oracle::Embedded left = oracle.Embed({probe_words_[pid]});
        const std::string why = Oracle::CheckTopK(
            Oracle::Scores(left.row(0), corpus), kK, by_probe[pid]);
        if (!why.empty()) {
          ReportMismatch("scan_topk",
                         "probe " + std::to_string(pid) + ": " + why,
                         &mismatches);
        }
      }
    }
    return mismatches;
  }

 protected:
  Status RegisterTables() override {
    CEJ_RETURN_IF_ERROR(engine_->RegisterTable("probes", probes_));
    return engine_->RegisterTable("corpus", corpus_);
  }

  bool Op(uint64_t i, PhaseKind kind, Tracer* tracer, LayerCounters* layers,
          double* latency_ms) override {
    const int64_t lo = static_cast<int64_t>((i * 37) % (101 - kSelWidth));
    QueryBuilder query = engine_->Query("probes")
                             .Select(Window("sel", lo, kSelWidth))
                             .EJoin("corpus", "word", JoinCondition::TopK(kK));
    Result<QueryResult> result =
        TimedExecute(query, i, tracer, layers, latency_ms);
    if (!result.ok()) return Failed(result.status());
    if (ShouldSample(i, kind, samples_.size())) {
      const storage::Relation& out = result->relation;
      auto similarity = out.ColumnByName("similarity");
      CEJ_CHECK(similarity.ok());
      samples_.push_back({lo, Int64Column(out, "pid"), Int64Column(out, "cid"),
                          (*similarity)->double_values()});
    }
    return true;
  }

 private:
  struct Sample {
    int64_t lo;
    std::vector<int64_t> pid;
    std::vector<int64_t> cid;
    std::vector<double> similarity;
  };

  std::vector<std::string> probe_words_;
  std::vector<int64_t> probe_sel_;
  std::vector<std::string> corpus_words_;
  std::shared_ptr<const storage::Relation> probes_;
  std::shared_ptr<const storage::Relation> corpus_;
  std::vector<Sample> samples_;
};

// ---------------------------------------------------------------------------
// ingest_stream: every op replaces a 20k-string table with other contents,
// then streams a threshold E-join of 64 probe strings against it. The
// replaced column is never cached, so model embedding (overlapped with
// the sweep by the pipelined operator) dominates. The contents cycle
// through a few tables built before any timing, so the client generates
// no input inside the timed loop; the cache is keyed by table name and
// dropped on every ReplaceTable, so a repeated table embeds again.
// ---------------------------------------------------------------------------
class IngestStream final : public ClosedLoop {
 public:
  static constexpr size_t kProbeRows = 64;
  static constexpr size_t kFreshRows = 20000;
  static constexpr size_t kFreshVersions = 4;
  static constexpr double kFreshFamilyFraction = 0.05;

  explicit IngestStream(const Environment& env)
      : ClosedLoop("ingest_stream", env) {
    probe_words_ = MixedWords(*env.corpus, kProbeRows, 0,
                              env.corpus->num_families(), 1.0,
                              SubSeed(env.seed, 20, 0));
    std::vector<storage::Column> columns;
    columns.push_back(storage::Column::Int64(Iota(kProbeRows)));
    columns.push_back(storage::Column::String(probe_words_));
    probes_ = MakeRelation({{"qid", DataType::kInt64, 0},
                            {"word", DataType::kString, 0}},
                           std::move(columns));
    for (size_t v = 0; v < kFreshVersions; ++v) {
      std::vector<storage::Column> fresh_columns;
      fresh_columns.push_back(storage::Column::Int64(Iota(kFreshRows)));
      fresh_columns.push_back(storage::Column::String(
          MixedWords(*env.corpus, kFreshRows, 0, env.corpus->num_families(),
                     kFreshFamilyFraction, SubSeed(env.seed, 21, v))));
      fresh_.push_back(MakeRelation({{"fid", DataType::kInt64, 0},
                                     {"word", DataType::kString, 0}},
                                    std::move(fresh_columns)));
    }
  }

  std::vector<std::pair<std::string, double>> Sizes() const override {
    return {{"probe_rows", kProbeRows},
            {"fresh_rows_per_op", kFreshRows},
            {"fresh_versions", kFreshVersions},
            {"threshold", kThreshold}};
  }

  size_t Check(const Oracle& oracle) override {
    size_t mismatches = 0;
    checked_ = 0;
    if (samples_.empty()) return 0;
    const Oracle::Embedded probes = oracle.Embed(probe_words_);
    for (const Sample& sample : samples_) {
      const Oracle::Embedded fresh = oracle.Embed(FreshWords(sample.op));
      std::vector<std::vector<ScoredId>> by_probe(kProbeRows);
      for (const join::JoinPair& pair : sample.pairs) {
        if (pair.left >= kProbeRows) {
          ReportMismatch("ingest_stream", "left id out of range", &mismatches);
          continue;
        }
        by_probe[pair.left].push_back({pair.right, pair.similarity});
      }
      for (size_t q = 0; q < kProbeRows; ++q) {
        ++checked_;
        const std::string why = Oracle::CheckThreshold(
            Oracle::Scores(probes.row(q), fresh), kThreshold, by_probe[q]);
        if (!why.empty()) {
          ReportMismatch("ingest_stream",
                         "op " + std::to_string(sample.op) + " probe " +
                             std::to_string(q) + ": " + why,
                         &mismatches);
        }
      }
    }
    return mismatches;
  }

 protected:
  Status RegisterTables() override {
    return engine_->RegisterTable("queries", probes_);
  }

  bool Op(uint64_t i, PhaseKind kind, Tracer* tracer, LayerCounters* layers,
          double* latency_ms) override {
    const int64_t replace_start = NowNs();
    const Status replaced = [&] {
      ScopedSpan span(tracer, "api.ReplaceTable", static_cast<int64_t>(i));
      return engine_->ReplaceTable("fresh", fresh_[i % kFreshVersions]);
    }();
    const int64_t replace_ns = NowNs() - replace_start;
    if (!replaced.ok()) return Failed(replaced);
    QueryBuilder query =
        engine_->Query("queries").EJoin("fresh", "word",
                                        JoinCondition::Threshold(kThreshold));
    TimeOptimize(query, static_cast<int64_t>(i), tracer, layers);

    join::MaterializingSink sink;
    TimedSink timed(&sink, tracer);
    plan::ExecStats stats;
    const int64_t stream_start = NowNs();
    Result<join::JoinStats> streamed = [&] {
      ScopedSpan span(tracer, "query.Stream", static_cast<int64_t>(i));
      join::JoinSink* target =
          tracer != nullptr ? static_cast<join::JoinSink*>(&timed) : &sink;
      return query.Stream(target, &stats);
    }();
    const int64_t stream_ns = NowNs() - stream_start;
    *latency_ms = static_cast<double>(replace_ns + stream_ns) / 1e6;
    if (!streamed.ok()) return Failed(streamed.status());
    if (tracer != nullptr) {
      layers->replace_table_ms.push_back(static_cast<double>(replace_ns) / 1e6);
      layers->AddExec(stats, env_.model->dim(), 1.0);
      layers->sink_consume_ms += static_cast<double>(timed.consume_ns()) / 1e6;
      layers->sink_pairs += static_cast<double>(timed.pairs());
    }
    if (ShouldSample(i, kind, samples_.size())) {
      samples_.push_back({i, sink.TakePairs()});
    }
    return true;
  }

 private:
  struct Sample {
    uint64_t op;
    std::vector<join::JoinPair> pairs;
  };

  // The strings op `op` registered as "fresh".
  const std::vector<std::string>& FreshWords(uint64_t op) const {
    auto column = fresh_[op % kFreshVersions]->ColumnByName("word");
    CEJ_CHECK(column.ok());
    return (*column)->string_values();
  }

  std::vector<std::string> probe_words_;
  std::shared_ptr<const storage::Relation> probes_;
  std::vector<std::shared_ptr<const storage::Relation>> fresh_;
  std::vector<Sample> samples_;
};

// ---------------------------------------------------------------------------
// graph_pipeline: a 3-relation star of threshold E-joins (items ~ enrich
// on a word, items ~ cats on a tag) over planted synonym families. The DP
// orders the edges; the ~50k-row result exercises intermediates and
// materialization. Every relation stays under the sharding floor, so the
// plain tensor operator is the planner's choice here.
// ---------------------------------------------------------------------------
class GraphPipeline final : public ClosedLoop {
 public:
  static constexpr size_t kItemRows = 2000;
  static constexpr size_t kEnrichRows = 1800;
  static constexpr int64_t kSelWidth = 50;  // ~half the items per query.
  static constexpr size_t kWordFamilies = 16;
  static constexpr size_t kTagFamilies = 8;

  explicit GraphPipeline(const Environment& env)
      : ClosedLoop("graph_pipeline", env) {
    const workload::Corpus& corpus = *env.corpus;
    const size_t tag_begin = corpus.num_families() - kTagFamilies;
    item_words_ = MixedWords(corpus, kItemRows, 0, kWordFamilies, 1.0,
                             SubSeed(env.seed, 30, 0));
    item_tags_ = MixedWords(corpus, kItemRows, tag_begin, corpus.num_families(),
                            1.0, SubSeed(env.seed, 30, 1));
    item_sel_ = SelColumn(kItemRows, SubSeed(env.seed, 30, 2));
    enrich_keys_ = MixedWords(corpus, kEnrichRows, 0, kWordFamilies, 0.5,
                              SubSeed(env.seed, 30, 3));
    for (size_t f = tag_begin; f < corpus.num_families(); ++f) {
      cat_keys_.push_back(corpus.Family(f).front());
    }

    std::vector<storage::Column> item_columns;
    item_columns.push_back(storage::Column::Int64(Iota(kItemRows)));
    item_columns.push_back(storage::Column::Int64(item_sel_));
    item_columns.push_back(storage::Column::String(item_words_));
    item_columns.push_back(storage::Column::String(item_tags_));
    items_ = MakeRelation({{"iid", DataType::kInt64, 0},
                           {"sel", DataType::kInt64, 0},
                           {"word", DataType::kString, 0},
                           {"tag", DataType::kString, 0}},
                          std::move(item_columns));
    std::vector<storage::Column> enrich_columns;
    enrich_columns.push_back(storage::Column::Int64(Iota(kEnrichRows)));
    enrich_columns.push_back(storage::Column::String(enrich_keys_));
    enrich_ = MakeRelation({{"bid", DataType::kInt64, 0},
                            {"bkey", DataType::kString, 0}},
                           std::move(enrich_columns));
    std::vector<storage::Column> cat_columns;
    cat_columns.push_back(storage::Column::Int64(Iota(cat_keys_.size())));
    cat_columns.push_back(storage::Column::String(cat_keys_));
    cats_ = MakeRelation({{"cid", DataType::kInt64, 0},
                          {"ckey", DataType::kString, 0}},
                         std::move(cat_columns));
  }

  std::vector<std::pair<std::string, double>> Sizes() const override {
    return {{"item_rows", kItemRows},
            {"item_rows_per_query", kItemRows * kSelWidth / 100.0},
            {"enrich_rows", kEnrichRows},
            {"cat_rows", static_cast<double>(cat_keys_.size())},
            {"threshold", kThreshold}};
  }

  size_t Check(const Oracle& oracle) override {
    size_t mismatches = 0;
    checked_ = 0;
    if (samples_.empty()) return 0;
    const Oracle::Embedded words = oracle.Embed(item_words_);
    const Oracle::Embedded tags = oracle.Embed(item_tags_);
    const Oracle::Embedded enrich = oracle.Embed(enrich_keys_);
    const Oracle::Embedded cats = oracle.Embed(cat_keys_);
    for (const Sample& sample : samples_) {
      const std::vector<uint32_t> selected =
          RowsInWindow(item_sel_, sample.lo, kSelWidth);
      const std::unordered_set<uint32_t> wanted(selected.begin(),
                                                selected.end());
      std::unordered_map<uint32_t, std::vector<std::pair<uint32_t, uint32_t>>>
          by_item;
      for (size_t r = 0; r < sample.iid.size(); ++r) {
        const auto iid = static_cast<uint32_t>(sample.iid[r]);
        if (wanted.count(iid) == 0) {
          ReportMismatch("graph_pipeline",
                         "item " + std::to_string(iid) + " fails the Select",
                         &mismatches);
          continue;
        }
        by_item[iid].push_back({static_cast<uint32_t>(sample.bid[r]),
                                static_cast<uint32_t>(sample.cid[r])});
      }
      // The star's relations are small enough to check every selected item.
      for (uint32_t iid : selected) {
        ++checked_;
        const std::string why =
            CheckItem(Oracle::Scores(words.row(iid), enrich),
                      Oracle::Scores(tags.row(iid), cats), by_item[iid]);
        if (!why.empty()) {
          ReportMismatch("graph_pipeline",
                         "item " + std::to_string(iid) + ": " + why,
                         &mismatches);
        }
      }
    }
    return mismatches;
  }

 protected:
  Status RegisterTables() override {
    CEJ_RETURN_IF_ERROR(engine_->RegisterTable("items", items_));
    CEJ_RETURN_IF_ERROR(engine_->RegisterTable("enrich", enrich_));
    return engine_->RegisterTable("cats", cats_);
  }

  bool Op(uint64_t i, PhaseKind kind, Tracer* tracer, LayerCounters* layers,
          double* latency_ms) override {
    const int64_t lo = static_cast<int64_t>((i * 13) % (101 - kSelWidth));
    const auto threshold = JoinCondition::Threshold(kThreshold);
    QueryBuilder query = engine_->Query("items")
                             .Select(Window("sel", lo, kSelWidth))
                             .EJoin("enrich", "word", "bkey", threshold)
                             .EJoin("cats", "tag", "ckey", threshold);
    Result<QueryResult> result =
        TimedExecute(query, i, tracer, layers, latency_ms);
    if (!result.ok()) return Failed(result.status());
    if (ShouldSample(i, kind, samples_.size())) {
      const storage::Relation& out = result->relation;
      samples_.push_back({lo, Int64Column(out, "iid"), Int64Column(out, "bid"),
                          Int64Column(out, "cid")});
    }
    return true;
  }

 private:
  struct Sample {
    int64_t lo;
    std::vector<int64_t> iid;
    std::vector<int64_t> bid;
    std::vector<int64_t> cid;
  };

  // Per-edge brute force on the star: an item's output rows (enrich id, cat
  // id) must be the cross product of its enrich matches and its cat
  // matches, given the item's oracle scores against each relation.
  static std::string CheckItem(
      const std::vector<double>& b_scores, const std::vector<double>& c_scores,
      const std::vector<std::pair<uint32_t, uint32_t>>& rows) {
    std::unordered_set<uint64_t> seen;
    for (const auto& [b, c] : rows) {
      if (b >= b_scores.size() || c >= c_scores.size()) {
        return "id out of range";
      }
      if (!seen.insert((uint64_t{b} << 32) | c).second) {
        return "row (" + std::to_string(b) + ", " + std::to_string(c) +
               ") repeated";
      }
      if (b_scores[b] < kThreshold - kTolerance ||
          c_scores[c] < kThreshold - kTolerance) {
        return "row (" + std::to_string(b) + ", " + std::to_string(c) +
               ") scores below the threshold";
      }
    }
    for (size_t b = 0; b < b_scores.size(); ++b) {
      if (b_scores[b] < kThreshold + kTolerance) continue;
      for (size_t c = 0; c < c_scores.size(); ++c) {
        if (c_scores[c] < kThreshold + kTolerance) continue;
        if (seen.count((uint64_t{static_cast<uint32_t>(b)} << 32) | c) == 0) {
          return "row (" + std::to_string(b) + ", " + std::to_string(c) +
                 ") missing";
        }
      }
    }
    return "";
  }

  std::vector<std::string> item_words_;
  std::vector<std::string> item_tags_;
  std::vector<int64_t> item_sel_;
  std::vector<std::string> enrich_keys_;
  std::vector<std::string> cat_keys_;
  std::shared_ptr<const storage::Relation> items_;
  std::shared_ptr<const storage::Relation> enrich_;
  std::shared_ptr<const storage::Relation> cats_;
  std::vector<Sample> samples_;
};

// ---------------------------------------------------------------------------
// serve_probe: many small independent top-4 requests (8 probe strings each)
// against a cached 20k-string corpus through Engine::serve() with fusion.
// Phase A keeps 32 requests outstanding from one thread and measures
// capacity; phase B sends one request every 2 ms (about a quarter of
// phase A's capacity on a 4-core host) and times each from when it was
// due. Evenly spaced arrivals rather than Poisson ones: in interleaved
// runs on the reference host, Poisson arrivals widened the run-to-run
// spread of the phase-B median from 9% to 16%, and of the p90 from 8% to
// 21%.
// ---------------------------------------------------------------------------
class ServeProbe final : public Workload {
 public:
  static constexpr size_t kCorpusRows = 20000;
  static constexpr size_t kProbesPerQuery = 8;
  static constexpr size_t kK = 4;
  static constexpr size_t kOutstanding = 32;
  static constexpr double kOpenLoopRate = 500.0;  // Requests per second.
  static constexpr double kClosedShare = 0.4;     // Of a phase, for phase A.

  explicit ServeProbe(const Environment& env) : env_(env) {
    corpus_words_ = MixedWords(*env.corpus, kCorpusRows, 0,
                               env.corpus->num_families(), 0.05,
                               SubSeed(env.seed, 40, 0));
    std::vector<storage::Column> columns;
    columns.push_back(storage::Column::Int64(Iota(kCorpusRows)));
    columns.push_back(storage::Column::String(corpus_words_));
    corpus_ = MakeRelation({{"cid", DataType::kInt64, 0},
                            {"word", DataType::kString, 0}},
                           std::move(columns));
    std::vector<storage::Column> shape_columns;
    shape_columns.push_back(storage::Column::String(ProbeWords(0)));
    probe_shape_ = MakeRelation({{"word", DataType::kString, 0}},
                                std::move(shape_columns));
  }

  std::vector<std::pair<std::string, double>> Sizes() const override {
    return {{"corpus_rows", kCorpusRows},
            {"probes_per_query", kProbesPerQuery},
            {"k", kK},
            {"closed_loop_outstanding", kOutstanding},
            {"open_loop_rate_qps", kOpenLoopRate}};
  }

  Status Setup() override {
    engine_.reset();
    engine_ = std::make_unique<Engine>(EngineOptions());
    CEJ_RETURN_IF_ERROR(engine_->RegisterModel("subword", env_.model));
    CEJ_RETURN_IF_ERROR(engine_->RegisterTable("corpus", corpus_));
    // An 8-row table of the same shape as a request, so traced runs can
    // time OptimizedPlan() for the logical plan the server executes.
    CEJ_RETURN_IF_ERROR(engine_->RegisterTable("probe_shape", probe_shape_));
    Result<serve::Ticket> ticket =
        engine_->serve()->Submit(MakeQuery(next_query_++));
    if (!ticket.ok()) return ticket.status();
    return ticket->Get().status;
  }

  PhaseResult Run(double seconds, PhaseKind kind) override {
    PhaseResult result;
    Tracer* tracer = kind == PhaseKind::kTraced ? env_.tracer : nullptr;
    RunClosed(seconds * kClosedShare, kind, tracer, &result);
    RunOpen(seconds * (1.0 - kClosedShare), kind, tracer, &result);
    return result;
  }

  size_t Check(const Oracle& oracle) override {
    size_t mismatches = 0;
    checked_ = 0;
    if (samples_.empty()) return 0;
    const Oracle::Embedded corpus = oracle.Embed(corpus_words_);
    for (const Sample& sample : samples_) {
      const Oracle::Embedded probes = oracle.Embed(ProbeWords(sample.query));
      std::vector<std::vector<ScoredId>> by_probe(kProbesPerQuery);
      for (const join::JoinPair& pair : sample.pairs) {
        if (pair.left >= kProbesPerQuery) {
          ReportMismatch("serve_probe", "left id out of range", &mismatches);
          continue;
        }
        by_probe[pair.left].push_back({pair.right, pair.similarity});
      }
      for (size_t p = 0; p < kProbesPerQuery; ++p) {
        ++checked_;
        const std::string why = Oracle::CheckTopK(
            Oracle::Scores(probes.row(p), corpus), kK, by_probe[p]);
        if (!why.empty()) {
          ReportMismatch("serve_probe",
                         "request " + std::to_string(sample.query) + " probe " +
                             std::to_string(p) + ": " + why,
                         &mismatches);
        }
      }
    }
    return mismatches;
  }

  size_t checked() const override { return checked_; }
  Engine* engine() override { return engine_.get(); }

 private:
  struct Sample {
    uint64_t query;
    std::vector<join::JoinPair> pairs;
  };

  std::vector<std::string> ProbeWords(uint64_t query) const {
    return MixedWords(*env_.corpus, kProbesPerQuery, 0,
                      env_.corpus->num_families(), 0.5,
                      SubSeed(env_.seed, 41, query));
  }

  serve::ServeQuery MakeQuery(uint64_t query) const {
    serve::ServeQuery q;
    q.table = "corpus";
    q.column = "word";
    q.condition = JoinCondition::TopK(kK);
    q.probe_strings = ProbeWords(query);
    return q;
  }

  // Folds one resolved request in; true when it completed.
  bool Account(uint64_t query, const serve::QueryResponse& response,
               PhaseKind kind, PhaseResult* result) {
    if (!response.status.ok()) {
      ++result->failed;
      if (response.status.code() == StatusCode::kDeadlineExceeded) {
        ++result->expired;
      } else if (response.status.code() == StatusCode::kResourceExhausted) {
        ++result->shed;
      } else {
        ReportFailure("serve_probe", response.status, &failures_reported_);
      }
      return false;
    }
    if (kind == PhaseKind::kTraced) {
      const double share =
          1.0 / static_cast<double>(
                    std::max<size_t>(response.batch_queries, 1));
      result->layers.AddExec(response.exec, env_.model->dim(), share);
      result->layers.sink_pairs += static_cast<double>(response.pairs.size());
      result->layers.queries += 1.0;
    }
    if (kind != PhaseKind::kWarmup && query % kSampleStride == 0 &&
        samples_.size() < kMaxSamples) {
      samples_.push_back({query, response.pairs});
    }
    return true;
  }

  Result<serve::Ticket> Submit(uint64_t query, Tracer* tracer) {
    ScopedSpan span(tracer, "serve.Submit", static_cast<int64_t>(query));
    return engine_->serve()->Submit(MakeQuery(query));
  }

  static const serve::QueryResponse& Await(const serve::Ticket& ticket,
                                           uint64_t query, Tracer* tracer) {
    ScopedSpan span(tracer, "serve.Get", static_cast<int64_t>(query));
    return ticket.Get();
  }

  void RunClosed(double seconds, PhaseKind kind, Tracer* tracer,
                 PhaseResult* result) {
    std::deque<std::pair<uint64_t, serve::Ticket>> outstanding;
    const int64_t start = NowNs();
    const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
    uint64_t completed = 0;
    uint64_t fused = 0;
    double batch_queries = 0.0;
    while (true) {
      while (outstanding.size() < kOutstanding && NowNs() < deadline) {
        const uint64_t query = next_query_++;
        ++result->attempted;
        Result<serve::Ticket> ticket = Submit(query, tracer);
        if (!ticket.ok()) {
          ++result->failed;
          ++result->shed;
          continue;
        }
        outstanding.emplace_back(query, *ticket);
      }
      if (outstanding.empty()) break;
      const auto& [query, ticket] = outstanding.front();
      const serve::QueryResponse& response = Await(ticket, query, tracer);
      if (Account(query, response, kind, result)) {
        ++completed;
        fused += response.fused ? 1 : 0;
        batch_queries += static_cast<double>(response.batch_queries);
      }
      outstanding.pop_front();
    }
    const double elapsed = static_cast<double>(NowNs() - start) / 1e9;
    if (completed > 0) {
      result->throughput_qps = static_cast<double>(completed) / elapsed;
      const double n = static_cast<double>(completed);
      result->fusion_ratio = static_cast<double>(fused) / n;
      result->batch_queries_mean = batch_queries / n;
    }
  }

  void RunOpen(double seconds, PhaseKind kind, Tracer* tracer,
               PhaseResult* result) {
    struct InFlight {
      uint64_t query;
      int64_t due_ns;
      int64_t submit_ns;
      Result<serve::Ticket> ticket;
    };
    std::mutex mu;
    std::condition_variable cv;
    std::deque<InFlight> in_flight;
    bool done = false;

    // The collector resolves requests in submission order; latency comes
    // from the server's own submit-to-resolution time plus how late the
    // generator submitted, so collection order does not distort it.
    std::thread collector([&] {
      while (true) {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return done || !in_flight.empty(); });
        if (in_flight.empty()) return;
        InFlight request = std::move(in_flight.front());
        in_flight.pop_front();
        lock.unlock();
        if (!request.ticket.ok()) {
          ++result->failed;
          ++result->shed;
          continue;
        }
        const serve::QueryResponse& response =
            Await(*request.ticket, request.query, tracer);
        if (!Account(request.query, response, kind, result)) continue;
        const double lag_ms =
            static_cast<double>(request.submit_ns - request.due_ns) / 1e6;
        result->latency_ms.push_back(lag_ms + response.latency_seconds * 1e3);
        result->queue_wait_ms.push_back(response.queue_wait_seconds * 1e3);
        result->exec_ms.push_back(
            (response.latency_seconds - response.queue_wait_seconds) * 1e3);
        // The server plans internally; time OptimizedPlan() for the same
        // logical shape through the "probe_shape" table.
        if (tracer != nullptr) {
          TimeOptimize(engine_->Query("probe_shape")
                           .EJoin("corpus", "word", JoinCondition::TopK(kK)),
                       static_cast<int64_t>(request.query), tracer,
                       &result->layers);
        }
      }
    });

    // The default 50 us timer slack would make every wake-up that late. A
    // spinning generator is no better: it competes with the 4 compute
    // threads and loses whole scheduler slices (p99 lateness of 1-7 ms).
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    const int64_t start = NowNs();
    const auto requests = static_cast<int64_t>(seconds * kOpenLoopRate);
    for (int64_t n = 0; n < requests; ++n) {
      const auto offset_ns =
          static_cast<int64_t>(static_cast<double>(n) * 1e9 / kOpenLoopRate);
      const int64_t due = start + offset_ns;
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(due)));
      const uint64_t query = next_query_++;
      const int64_t submit_ns = NowNs();
      Result<serve::Ticket> ticket = Submit(query, tracer);
      result->generator_lag_ms.push_back(
          static_cast<double>(submit_ns - due) / 1e6);
      ++result->attempted;
      {
        std::lock_guard<std::mutex> lock(mu);
        in_flight.push_back({query, due, submit_ns, std::move(ticket)});
      }
      cv.notify_one();
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      done = true;
    }
    cv.notify_one();
    collector.join();
  }

  Environment env_;
  std::vector<std::string> corpus_words_;
  std::shared_ptr<const storage::Relation> corpus_;
  std::shared_ptr<const storage::Relation> probe_shape_;
  std::unique_ptr<Engine> engine_;
  uint64_t next_query_ = 0;
  uint64_t failures_reported_ = 0;
  std::vector<Sample> samples_;
  size_t checked_ = 0;
};

}  // namespace

void LayerCounters::AddExec(const plan::ExecStats& stats, size_t dim,
                            double share) {
  operator_queries[stats.join_operator] += 1.0;
  if (stats.estimated_cost_ns > 0.0 && stats.measured_cost_ns > 0.0) {
    cost_log_error_sum += stats.cost_abs_log_error * share;
    cost_log_error_n += share;
  }
  const size_t edges =
      std::min(stats.edge_card_est.size(), stats.edge_card_obs.size());
  for (size_t e = 0; e < edges; ++e) {
    const double est = stats.edge_card_est[e] + 1.0;
    const double obs = static_cast<double>(stats.edge_card_obs[e]) + 1.0;
    edge_log_error_sum += std::fabs(std::log(est / obs)) * share;
    edge_log_error_n += share;
  }
  const join::JoinStats& js = stats.join_stats;
  join_seconds += js.join_seconds * share;
  hidden_embed_seconds += js.embed_overlapped_seconds * share;
  const double sims = static_cast<double>(js.similarity_computations) * share;
  similarities += sims;
  flops += 2.0 * static_cast<double>(dim) * sims;
  shards += static_cast<double>(js.shards_used) * share;
  peak_buffer_bytes = std::max(peak_buffer_bytes, js.peak_buffer_bytes);
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "scan_topk", "ingest_stream", "graph_pipeline", "serve_probe"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const Environment& env) {
  if (name == "scan_topk") return std::make_unique<ScanTopK>(env);
  if (name == "ingest_stream") return std::make_unique<IngestStream>(env);
  if (name == "graph_pipeline") return std::make_unique<GraphPipeline>(env);
  if (name == "serve_probe") return std::make_unique<ServeProbe>(env);
  return nullptr;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

}  // namespace cej::suite
