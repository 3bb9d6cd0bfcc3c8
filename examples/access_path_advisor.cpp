// Access-path advisor (paper Section VI.E): for a hybrid vector-relational
// join, should the engine SCAN (pre-filtered tensor join) or PROBE (HNSW
// index)? This example calibrates an Engine's cost model on the local
// machine, shows a real query's registry-based operator selection with
// the winner's quote and the rejected runner-up's, then prices the
// registry's tensor and index operators over selectivity for the three
// condition shapes the paper evaluates — the programmatic form of
// Figures 15-17's crossovers.

#include <cstdio>

#include "cej/cej.h"
#include "cej/workload/generators.h"

using namespace cej;

namespace {

// The two canonical access paths, as registered physical operators.
struct ScanAndProbe {
  const join::JoinOperator* scan;
  const join::JoinOperator* probe;
};

ScanAndProbe FindScanAndProbe() {
  auto& registry = join::JoinOperatorRegistry::Global();
  auto scan = registry.Find("tensor");
  auto probe = registry.Find("index");
  CEJ_CHECK(scan.ok() && probe.ok());
  return {*scan, *probe};
}

void PrintDecisionRow(const char* label, const ScanAndProbe& paths,
                      join::JoinWorkload workload,
                      const join::CostParams& params) {
  std::printf("%-22s |", label);
  for (int sel = 0; sel <= 100; sel += 10) {
    workload.right_selectivity = sel / 100.0;
    const bool probe = paths.probe->EstimateCost(workload, params) <
                       paths.scan->EstimateCost(workload, params);
    std::printf(" %s", probe ? "P" : "S");
  }
  std::printf("\n");
}

std::shared_ptr<const storage::Relation> VectorTable(la::Matrix embeddings,
                                                     uint64_t date_seed) {
  const size_t n = embeddings.rows();
  auto schema = storage::Schema::Create(
      {{"emb", storage::DataType::kVector, embeddings.cols()},
       {"when", storage::DataType::kDate, 0}});
  std::vector<storage::Column> columns;
  columns.push_back(storage::Column::Vector(std::move(embeddings)));
  columns.push_back(
      storage::Column::Date(workload::UniformDates(n, 0, 99, date_seed)));
  auto rel = storage::Relation::Create(std::move(schema).value(),
                                       std::move(columns));
  return std::make_shared<const storage::Relation>(std::move(rel).value());
}

}  // namespace

int main() {
  model::SubwordHashModel model;

  // Calibrate the engine's cost parameters on this machine.
  Engine engine;
  engine.CalibrateCosts(model);
  const join::CostParams& params = engine.cost_params();
  std::printf("calibrated on this machine: A=%.1f ns, M=%.1f ns, "
              "C=%.1f ns per unit\n\n",
              params.access, params.model, params.compute);

  // A real (small) instance first: the engine selects the operator from
  // the registry and reports its quote and the runner-up's in the stats.
  const size_t dim = 64;
  CEJ_CHECK(engine
                .RegisterTable("queries", VectorTable(
                    workload::RandomUnitVectors(50, dim, 1), 2))
                .ok());
  CEJ_CHECK(engine
                .RegisterTable("corpus", VectorTable(
                    workload::RandomUnitVectors(5000, dim, 3), 4))
                .ok());
  auto hnsw = index::HnswIndex::Build(
      workload::RandomUnitVectors(5000, dim, 3),
      index::HnswBuildOptions::Lo());
  CEJ_CHECK(hnsw.ok());
  CEJ_CHECK(engine.RegisterIndex("corpus", "emb", hnsw->get()).ok());

  auto result = engine.Query("queries")
                    .Select(expr::Cmp("when", expr::CmpOp::kLt, int64_t{60}))
                    .EJoin("corpus", "emb", join::JoinCondition::TopK(1))
                    .Execute();
  CEJ_CHECK(result.ok());
  std::printf("real 50 x 5000 top-1 join: engine chose '%s' "
              "(est %.2f ms; runner-up '%s' est %.2f ms)\n\n",
              result->stats.join_operator.c_str(),
              result->stats.estimated_cost_ns / 1e6,
              result->stats.runner_up_operator.c_str(),
              result->stats.runner_up_cost_ns / 1e6);

  // The decision surface at paper scale, priced without running: the same
  // per-operator EstimateCost the registry scan uses at execution time.
  const ScanAndProbe paths = FindScanAndProbe();
  join::JoinWorkload workload;
  workload.left_rows = 10000;
  workload.right_rows = 1000000;
  workload.index_available = true;

  std::printf("decision per selectivity (S = scan/tensor, P = probe/HNSW)\n");
  std::printf("%-22s | 0%% 10 20 30 40 50 60 70 80 90 100\n", "condition");

  workload.condition = join::JoinCondition::TopK(1);
  PrintDecisionRow("top-k = 1  (Fig 15)", paths, workload, params);
  workload.condition = join::JoinCondition::TopK(32);
  PrintDecisionRow("top-k = 32 (Fig 16)", paths, workload, params);
  workload.condition = join::JoinCondition::Threshold(0.9f);
  PrintDecisionRow("range sim>0.9 (Fig 17)", paths, workload, params);

  // Show the raw quotes at one interesting point.
  workload.condition = join::JoinCondition::TopK(1);
  workload.right_selectivity = 0.25;
  const double scan_cost = paths.scan->EstimateCost(workload, params);
  const double probe_cost = paths.probe->EstimateCost(workload, params);
  std::printf("\nat 25%% selectivity, top-1: scan=%.1f ms, probe=%.1f ms "
              "-> %s\n",
              scan_cost / 1e6, probe_cost / 1e6,
              probe_cost < scan_cost ? "probe" : "scan");
  std::printf("expected shape: the probe region grows with top-1, shrinks "
              "with top-32, and nearly vanishes for range conditions.\n");
  return 0;
}
