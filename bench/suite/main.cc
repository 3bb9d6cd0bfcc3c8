// Main program of the CEJ benchmark suite: runs one workload in this
// process and prints its metrics. See bench/suite/README.md.
//
//   cej_suite --workload scan_topk --seed 1 --seconds 20 --trace 0
//             [--commit <sha>]
//
// Run records and traces go to build-bench/out/ under the working
// directory, which must exist.
//
// Untraced runs (--trace 0) report the end-to-end metrics. Traced runs
// (--trace 1) run half of the measured time untraced and half with spans
// on, and report the per-layer metrics (latency, throughput and peak
// memory from the untraced half, the rest from the traced half), the
// traced/untraced p50 ratio, a per-layer span table, and a Chrome
// trace-event file. Every run checks
// a sample of its outputs against the brute-force oracle. The last line
// of stdout is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. The exit code is 0 only when every checked output is right.

#include <malloc.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "cej/common/cpu_info.h"
#include "cej/la/gemm.h"
#include "cej/workload/generators.h"
#include "suite.h"

namespace cej::suite {
namespace {

constexpr char kOutDir[] = "build-bench/out";
constexpr double kWarmupSeconds = 2.0;
// A set-up takes 20-90 ms, so one scheduler hiccup shifts a sample by a
// tenth or more; setup_s is the median of this many.
constexpr int kSetupRuns = 9;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string commit = "unknown";
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) {
        *error = "bad --seed " + value;
        return false;
      }
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0.0) || args->seconds > 600.0) {
        *error = "bad --seconds " + value;
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        *error = "--trace takes 0 or 1";
        return false;
      }
      args->trace = value == "1";
    } else if (flag == "--commit") {
      args->commit = value;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
  }
  for (const std::string& name : WorkloadNames()) {
    if (name == args->workload) return true;
  }
  *error = "unknown workload '" + args->workload + "'";
  return false;
}

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string Number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

struct rusage Usage() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return usage;
}

double PeakRssMb() {
  return static_cast<double>(Usage().ru_maxrss) / 1024.0;  // KiB on Linux.
}

double Ms(const timeval& t) {
  return static_cast<double>(t.tv_sec) * 1e3 +
         static_cast<double>(t.tv_usec) / 1e3;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Best of three GemmABt runs of the sweep's shape class on the engine
// pool: the GFLOP/s this host can reach, the ceiling for the join sweep.
double GemmCeilingGflops(ThreadPool* pool) {
  constexpr size_t kM = 2048, kN = 16384, kDim = 100;
  const la::Matrix a = workload::RandomUnitVectors(kM, kDim, 7);
  const la::Matrix b = workload::RandomUnitVectors(kN, kDim, 8);
  la::Matrix d(kM, kN);
  la::GemmOptions options;
  options.pool = pool;
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const int64_t start = NowNs();
    la::GemmABt(a, b, &d, options);
    const double seconds = static_cast<double>(NowNs() - start) / 1e9;
    best = std::max(best, 2.0 * kM * kN * kDim / seconds / 1e9);
  }
  return best;
}

std::string ProvenanceJson(const Args& args, const Workload& workload) {
  std::string sizes;
  for (const auto& [name, value] : workload.Sizes()) {
    if (!sizes.empty()) sizes += ",";
    sizes += "\"" + Escape(name) + "\":" + Number(value);
  }
  return std::string("{") + "\"commit\":\"" + Escape(args.commit) + "\"," +
         "\"cpu\":\"" + Escape(CpuInfo::Describe()) + "\"," +
         "\"nproc\":" + std::to_string(CpuInfo::HardwareThreads()) + "," +
         "\"build_type\":\"" CEJ_SUITE_BUILD_TYPE "\"," +
         "\"engine_pool_workers\":" + std::to_string(kEngineThreads) + "," +
         "\"compute_threads\":" + std::to_string(kEngineThreads + 1) + "," +
         "\"workload\":\"" + Escape(args.workload) + "\"," +
         "\"seed\":" + std::to_string(args.seed) + "," +
         "\"seconds\":" + Number(args.seconds) + "," +
         "\"warmup_seconds\":" + Number(kWarmupSeconds) + "," +
         "\"setup_runs\":" + std::to_string(args.trace ? 1 : kSetupRuns) + "," +
         "\"sizes\":{" + sizes + "}," +
         "\"note\":\"model.busy_ms_per_query is timed by the TimedModel "
         "decorator because JoinStats::embed_seconds stays 0 on the "
         "executor's Embed nodes\"}";
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + metrics[i].name + "\":{\"value\":" +
           Number(metrics[i].value) + ",\"unit\":\"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

std::string LayerTableJson(const std::vector<LayerRow>& rows) {
  std::string out = "[";
  for (size_t i = 0; i < rows.size(); ++i) {
    const LayerRow& r = rows[i];
    if (i > 0) out += ",";
    out += "{\"name\":\"" + Escape(r.name) + "\",\"spans\":" +
           std::to_string(r.spans) + ",\"calls\":" + std::to_string(r.calls) +
           ",\"threads\":" + std::to_string(r.threads) + ",\"total_ms\":" +
           Number(r.total_ms) + ",\"self_ms\":" + Number(r.self_ms) + "}";
  }
  return out + "]";
}

void PrintLayerTable(const std::vector<LayerRow>& rows, double queries) {
  std::printf("# per-layer spans over the traced phase (%.0f queries)\n",
              queries);
  std::printf("# %-20s %8s %10s %7s %12s %12s %12s\n", "span", "spans", "calls",
              "threads", "busy_ms", "self_ms", "busy_ms/q");
  for (const LayerRow& r : rows) {
    std::printf("# %-20s %8llu %10llu %7zu %12.3f %12.3f %12.4f\n",
                r.name.c_str(), static_cast<unsigned long long>(r.spans),
                static_cast<unsigned long long>(r.calls), r.threads, r.total_ms,
                r.self_ms, Ratio(r.total_ms, queries));
  }
}

int Main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "cej_suite: %s\n", error.c_str());
    return 2;
  }
#ifdef __GLIBC__
  // glibc raises its mmap threshold the first time a large block is freed,
  // after which whether graph_pipeline's multi-megabyte result columns sit
  // on the heap depends on which threads allocated them: its median query
  // time then flips between about 30 and 70 ms from run to run, and its
  // peak RSS varies by 15-21%. Pinned at the documented 128 KiB default,
  // every larger block is mapped fresh and faulted in, the same way in
  // every run (os.minor_faults_per_query and os.sys_cpu_share show the
  // cost). See "Allocator settings" in bench/suite/README.md.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif

  // The tracer outlives every engine (and so every thread) that records.
  Tracer tracer;
  workload::CorpusOptions corpus_options;
  corpus_options.seed = args.seed;
  const workload::Corpus corpus(corpus_options);
  const model::ConceptLexicon lexicon = corpus.MakeLexicon();
  const model::SubwordHashOptions model_options;
  const model::SubwordHashModel base_model(model_options, &lexicon);
  const TimedModel timed_model(&base_model, &tracer);

  Environment env;
  env.seed = args.seed;
  env.corpus = &corpus;
  env.model = args.trace
                  ? static_cast<const model::EmbeddingModel*>(&timed_model)
                  : &base_model;
  env.tracer = args.trace ? &tracer : nullptr;
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, env);

  std::vector<double> setup_seconds;
  auto setup = [&] {
    const int64_t start = NowNs();
    const Status status = workload->Setup();
    setup_seconds.push_back(static_cast<double>(NowNs() - start) / 1e9);
    if (!status.ok()) {
      std::fprintf(stderr, "cej_suite: setup failed: %s\n",
                   status.ToString().c_str());
    }
    return status.ok();
  };
  if (!setup()) return 1;
  workload->Run(kWarmupSeconds, PhaseKind::kWarmup);

  std::vector<Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<LayerRow> layer_table;
  if (!args.trace) {
    const PhaseResult phase = workload->Run(args.seconds, PhaseKind::kMeasure);
    attempted = phase.attempted;
    failed = phase.failed;
    const double peak_rss_mb = PeakRssMb();
    while (setup_seconds.size() < static_cast<size_t>(kSetupRuns)) {
      if (!setup()) return 1;
    }
    metrics = {{"setup_s", Quantile(setup_seconds, 0.5), "s"}};
    // Latency, throughput and memory are per-layer metrics: their
    // run-to-run spread on the reference host exceeds their bounds (see
    // bench/suite/README.md). A traced run reports them from its untraced
    // half; they are printed here for reading only.
    std::printf(
        "# %zu timed queries: p50 %.3f ms, p90 %.3f ms, %.1f ops/s, "
        "peak RSS %.1f MB\n",
        phase.latency_ms.size(), Quantile(phase.latency_ms, 0.5),
        Quantile(phase.latency_ms, 0.9), phase.throughput_qps, peak_rss_mb);
  } else {
    const double half = args.seconds / 2;
    const PhaseResult plain = workload->Run(half, PhaseKind::kMeasure);
    // Before the tracer's spans and the GEMM ceiling below add their own
    // memory.
    const double peak_rss_mb = PeakRssMb();
    EmbeddingCache* cache = workload->engine()->embedding_cache();
    const EmbeddingCache::Stats cache_before = cache->stats();
    const uint64_t calls_before = base_model.embed_calls();
    const int64_t busy_before = timed_model.busy_ns();
    const struct rusage usage_before = Usage();
    tracer.set_enabled(true);
    const PhaseResult traced = workload->Run(half, PhaseKind::kTraced);
    tracer.set_enabled(false);
    const struct rusage usage_after = Usage();
    tracer.FlushRuns();
    const EmbeddingCache::Stats cache_after = cache->stats();
    const double calls =
        static_cast<double>(base_model.embed_calls() - calls_before);
    const double busy_ms =
        static_cast<double>(timed_model.busy_ns() - busy_before) / 1e6;
    attempted = plain.attempted + traced.attempted;
    failed = plain.failed + traced.failed;

    const LayerCounters& l = traced.layers;
    const double q = l.queries;
    const auto delta = [](uint64_t after, uint64_t before) {
      return static_cast<double>(after - before);
    };
    const auto mb = [](double bytes) { return bytes / (1 << 20); };
    const double hits = delta(cache_after.hits, cache_before.hits);
    const double misses = delta(cache_after.misses, cache_before.misses);
    const double sweep_gflops = Ratio(l.flops, l.join_seconds) / 1e9;
    auto op_share = [&](const char* name) {
      auto it = l.operator_queries.find(name);
      return it == l.operator_queries.end() ? 0.0 : Ratio(it->second, q);
    };
    const double user_ms = Ms(usage_after.ru_utime) - Ms(usage_before.ru_utime);
    const double sys_ms = Ms(usage_after.ru_stime) - Ms(usage_before.ru_stime);
    // After both halves, so that neither runs against caches it flushed.
    const double gemm_gflops = GemmCeilingGflops(workload->engine()->pool());
    metrics = {
        {"query_p50_ms", Quantile(plain.latency_ms, 0.5), "ms"},
        {"query_p90_ms", Quantile(plain.latency_ms, 0.9), "ms"},
        {"throughput_qps", plain.throughput_qps, "1/s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"model.calls_per_query", Ratio(calls, q), "count"},
        {"model.busy_ms_per_query", Ratio(busy_ms, q), "ms"},
        {"model.us_per_call", Ratio(busy_ms * 1e3, calls), "us"},
        {"api.cache_hit_rate", Ratio(hits, hits + misses), "ratio"},
        {"api.cache_evictions",
         delta(cache_after.evictions, cache_before.evictions), "count"},
        {"api.cache_mb", mb(static_cast<double>(cache_after.bytes)), "MB"},
        {"api.replace_table_ms", Quantile(l.replace_table_ms, 0.5), "ms"},
        {"plan.optimize_ms", Quantile(l.optimize_ms, 0.5), "ms"},
        {"plan.cost_log_error",
         Ratio(l.cost_log_error_sum, l.cost_log_error_n), "ln"},
        {"plan.edge_card_log_error",
         Ratio(l.edge_log_error_sum, l.edge_log_error_n), "ln"},
        {"plan.op.tensor", op_share("tensor"), "share"},
        {"plan.op.sharded_tensor", op_share("sharded_tensor"), "share"},
        {"plan.op.pipelined_tensor", op_share("pipelined_tensor"), "share"},
        {"join.sweep_ms", Ratio(l.join_seconds * 1e3, q), "ms"},
        {"join.hidden_embed_ms", Ratio(l.hidden_embed_seconds * 1e3, q), "ms"},
        {"join.sims_per_query", Ratio(l.similarities, q), "count"},
        {"join.sweep_gflops", sweep_gflops, "GFLOP/s"},
        {"join.shards_used", Ratio(l.shards, q), "count"},
        {"join.peak_buffer_mb",
         mb(static_cast<double>(l.peak_buffer_bytes)), "MB"},
        {"la.gemm_gflops", gemm_gflops, "GFLOP/s"},
        {"join.sweep_peak_fraction", Ratio(sweep_gflops, gemm_gflops), "ratio"},
        {"sink.consume_ms", Ratio(l.sink_consume_ms, q), "ms"},
        {"sink.pairs_per_query", Ratio(l.sink_pairs, q), "count"},
        {"storage.rows_out_per_query", Ratio(l.rows_out, q), "count"},
        {"storage.bytes_out_per_query", Ratio(l.bytes_out, q), "bytes"},
        {"os.minor_faults_per_query",
         Ratio(delta(usage_after.ru_minflt, usage_before.ru_minflt), q),
         "count"},
        {"os.sys_cpu_share", Ratio(sys_ms, user_ms + sys_ms), "ratio"},
        {"serve.queue_wait_p50_ms", Quantile(traced.queue_wait_ms, 0.5), "ms"},
        {"serve.queue_wait_p99_ms", Quantile(traced.queue_wait_ms, 0.99), "ms"},
        {"serve.exec_ms_p50", Quantile(traced.exec_ms, 0.5), "ms"},
        // Only serve_probe times enough requests to put ten beyond a p99.
        {"serve.latency_p99_ms",
         traced.queue_wait_ms.empty() ? 0.0
                                      : Quantile(traced.latency_ms, 0.99),
         "ms"},
        {"serve.fusion_ratio", traced.fusion_ratio, "ratio"},
        {"serve.batch_queries_mean", traced.batch_queries_mean, "count"},
        {"serve.shed", static_cast<double>(traced.shed), "count"},
        {"serve.expired", static_cast<double>(traced.expired), "count"},
        {"gen.lag_p99_ms", Quantile(traced.generator_lag_ms, 0.99), "ms"},
        {"trace.overhead_ratio",
         Ratio(Quantile(traced.latency_ms, 0.5),
               Quantile(plain.latency_ms, 0.5)),
         "ratio"},
    };
    layer_table = Tracer::Summarize(tracer.Collect());
    PrintLayerTable(layer_table, q);
    if (tracer.dropped() > 0) {
      std::printf("# %llu spans dropped past the in-memory cap\n",
                  static_cast<unsigned long long>(tracer.dropped()));
    }
  }

  const Oracle oracle(model_options, &lexicon);
  const size_t mismatches = workload->Check(oracle);
  const bool correct = mismatches == 0 && failed == 0;
  failed += mismatches;
  std::printf("# oracle: %zu of %zu sampled outputs wrong\n", mismatches,
              workload->checked());
  for (const Metric& m : metrics) {
    std::printf("%-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  const std::string provenance = ProvenanceJson(args, *workload);
  const std::string base = std::string(kOutDir) + "/" + args.workload +
                           "-seed" + std::to_string(args.seed);
  const std::string stem = base + (args.trace ? "-trace" : "");
  if (args.trace && !Tracer::WriteChromeTrace(base + ".trace.json",
                                              tracer.Collect(), provenance)) {
    std::fprintf(stderr, "cej_suite: cannot write %s.trace.json\n",
                 base.c_str());
  }
  const std::string result =
      "{\"correct\":" + std::string(correct ? "true" : "false") +
      ",\"attempted\":" + std::to_string(attempted) +
      ",\"failed\":" + std::to_string(failed) +
      ",\"metrics\":" + MetricsJson(metrics) + "}";
  if (std::FILE* file = std::fopen((stem + ".json").c_str(), "w")) {
    std::fprintf(file,
                 "{\"provenance\":%s,\"workload\":\"%s\",\"seed\":%llu,"
                 "\"trace\":%d,\"checked\":%zu,\"result\":%s,"
                 "\"layer_table\":%s}\n",
                 provenance.c_str(), args.workload.c_str(),
                 static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
                 workload->checked(), result.c_str(),
                 LayerTableJson(layer_table).c_str());
    std::fclose(file);
  } else {
    std::fprintf(stderr, "cej_suite: cannot write %s.json\n", stem.c_str());
  }
  std::printf("%s\n", result.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace cej::suite

int main(int argc, char** argv) { return cej::suite::Main(argc, argv); }
