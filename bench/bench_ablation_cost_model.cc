// Ablation: cost-model validation — calibrates A/M/C on this host, prints
// each operator's registry quote (the planner's own prediction) on a
// common workload, then measures actual execution time and checks that
// the predicted ORDERING (naive >> prefetch NLJ > tensor) matches reality.
// This is the property the optimizer's access-path and strategy decisions
// rest on.
//
// Section [2] exercises the adaptive calibrator (cej::stats): the same
// measurements become observations, the least-squares fit refits the
// coefficients, and an operator-choice accuracy table compares the
// SEED-priced argmin against the CALIBRATED argmin across workload shapes
// — the planner's decisions before and after it has learned this host.

#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.h"
#include "cej/join/join_operator.h"
#include "cej/join/nlj_naive.h"
#include "cej/join/nlj_prefetch.h"
#include "cej/join/tensor_join.h"
#include "cej/model/subword_hash_model.h"
#include "cej/plan/cost_model.h"
#include "cej/stats/cost_calibrator.h"
#include "cej/workload/generators.h"

namespace {

cej::join::JoinWorkload ShapeWorkload(size_t m, size_t n) {
  cej::join::JoinWorkload w;
  w.left_rows = m;
  w.right_rows = n;
  w.dim = 100;
  w.condition = cej::join::JoinCondition::Threshold(0.95f);
  return w;
}

// The planner's quote for `op`: the registry operator's EstimateCost.
double Quote(const std::string& op, const cej::join::JoinWorkload& w,
             const cej::join::CostParams& p) {
  auto found = cej::join::JoinOperatorRegistry::Global().Find(op);
  CEJ_CHECK(found.ok());
  return (*found)->EstimateCost(w, p);
}

const char* ArgminPredicted(const std::vector<std::string>& ops,
                            const cej::join::JoinWorkload& w,
                            const cej::join::CostParams& p) {
  const char* best = "";
  double best_cost = std::numeric_limits<double>::infinity();
  for (const auto& op : ops) {
    const double cost = Quote(op, w, p);
    if (cost < best_cost) {
      best_cost = cost;
      best = op.c_str();
    }
  }
  return best;
}

}  // namespace

int main() {
  using namespace cej;
  bench::PrintHeader("bench_ablation_cost_model",
                     "Section IV.A cost model (predicted vs measured)");

  model::SubwordHashModel model;
  join::CostParams params = plan::Calibrate(model);
  std::printf("# calibrated: A=%.1f ns  M=%.1f ns  C=%.1f ns\n",
              params.access, params.model, params.compute);

  const size_t m = bench::SmokeScale() ? 80 : bench::Scaled(600, 3000);
  const size_t n = bench::SmokeScale() ? 80 : bench::Scaled(600, 3000);
  auto left = workload::RandomStrings(m, 5, 10, 1);
  auto right = workload::RandomStrings(n, 5, 10, 2);
  const float threshold = 0.95f;
  const join::JoinWorkload shape = ShapeWorkload(m, n);

  struct Row {
    const char* name;
    double predicted_ns;
    double measured_ms;
  };
  Row rows[3];

  rows[0].name = "naive E-NLJ";
  rows[0].predicted_ns = Quote("naive_nlj", shape, params);
  rows[0].measured_ms = bench::TimeMs([&] {
    join::JoinOptions options;
    options.pool = &bench::Pool();
    auto r = join::NaiveNljJoin(left, right, model, threshold, options);
    CEJ_CHECK(r.ok());
  });

  // The vector operators' quotes carry the right side's model term but not
  // the left's: a plan embeds its left key before the join is priced. So
  // the left side is embedded before the timer and the right inside it.
  const la::Matrix left_emb = model.EmbedBatch(left, &bench::Pool());

  rows[1].name = "prefetch E-NLJ";
  rows[1].predicted_ns = Quote("prefetch_nlj", shape, params);
  rows[1].measured_ms = bench::TimeMs([&] {
    join::NljOptions options;
    options.pool = &bench::Pool();
    auto r = join::NljJoinMatrices(
        left_emb, model.EmbedBatch(right, options.pool),
        join::JoinCondition::Threshold(threshold), options);
    CEJ_CHECK(r.ok());
  });

  rows[2].name = "tensor join";
  rows[2].predicted_ns = Quote("tensor", shape, params);
  rows[2].measured_ms = bench::TimeMs([&] {
    join::TensorJoinOptions options;
    options.pool = &bench::Pool();
    options.shard_count = 1;  // Left tiles, as the serial quote prices.
    auto r = join::TensorJoinMatrices(
        left_emb, model.EmbedBatch(right, options.pool),
        join::JoinCondition::Threshold(threshold), options);
    CEJ_CHECK(r.ok());
  });

  std::printf("\n[1] predicted vs measured (one shape)\n");
  std::printf("%-16s %18s %14s\n", "operator", "predicted[ms]",
              "measured[ms]");
  for (const auto& row : rows) {
    std::printf("%-16s %18.1f %14.1f\n", row.name, row.predicted_ns / 1e6,
                row.measured_ms);
  }
  const bool order_ok = rows[0].measured_ms > rows[1].measured_ms &&
                        rows[1].measured_ms >= rows[2].measured_ms * 0.5;
  std::printf("# ordering check (naive >> prefetch >= tensor): %s\n",
              order_ok ? "PASS" : "FAIL");

  // -------------------------------------------------------------------------
  // [2] Adaptive calibration: operator-choice accuracy, seed vs calibrated.
  // The seed prices with the DEFAULT CostParams guesses; the calibrated
  // column prices with a cej::stats::CostCalibrator refit from the very
  // measurements in this table — the engine's adaptive_stats loop, run by
  // hand. Accuracy = how often the priced argmin names the operator that
  // actually measured fastest.
  // -------------------------------------------------------------------------
  const std::vector<std::string> scan_ops = {"naive_nlj", "prefetch_nlj",
                                             "tensor"};
  const size_t base = bench::SmokeScale() ? 40 : bench::Scaled(250, 1200);
  const std::vector<std::pair<size_t, size_t>> shapes = {
      {base / 4, base * 4}, {base, base}, {base * 4, base / 4},
      {base / 8, base / 8}};

  const join::CostParams seed;  // The static guesses every engine starts on.
  stats::CostCalibrator::Options calibrator_options;
  calibrator_options.seed = seed;
  calibrator_options.refit_interval = 0;
  calibrator_options.decay = 1.0;
  stats::CostCalibrator calibrator(calibrator_options);

  struct Measured {
    std::pair<size_t, size_t> shape;
    std::vector<double> measured_ms;  // Parallel to scan_ops.
  };
  std::vector<Measured> table;
  for (const auto& shape : shapes) {
    auto shape_left = workload::RandomStrings(shape.first, 5, 10, 11);
    auto shape_right = workload::RandomStrings(shape.second, 5, 10, 12);
    const la::Matrix shape_left_emb = model.EmbedBatch(shape_left);
    const join::JoinWorkload w = ShapeWorkload(shape.first, shape.second);
    Measured row{shape, {}};
    for (const auto& op : scan_ops) {
      const double ms = bench::TimeMs([&] {
        join::JoinOptions options;
        if (op == "naive_nlj") {
          auto r = join::NaiveNljJoin(shape_left, shape_right, model,
                                      threshold, options);
          CEJ_CHECK(r.ok());
        } else if (op == "prefetch_nlj") {
          auto r = join::NljJoinMatrices(
              shape_left_emb, model.EmbedBatch(shape_right),
              join::JoinCondition::Threshold(threshold));
          CEJ_CHECK(r.ok());
        } else {
          auto r = join::TensorJoinMatrices(
              shape_left_emb, model.EmbedBatch(shape_right),
              join::JoinCondition::Threshold(threshold));
          CEJ_CHECK(r.ok());
        }
      });
      row.measured_ms.push_back(ms);
      // Feed the calibrator exactly what the executor would record.
      const auto current = calibrator.Current();
      stats::Observation obs;
      obs.op = op;
      obs.features = join::FeaturesForOperator(op, w, *current);
      obs.estimated_ns = join::PriceFeatures(obs.features, *current);
      obs.measured_ns = ms * 1e6;
      calibrator.Record(std::move(obs));
    }
    table.push_back(std::move(row));
  }
  calibrator.Refit();
  const join::CostParams calibrated = *calibrator.Current();

  std::printf("\n[2] operator-choice accuracy: seed vs calibrated pricing\n");
  std::printf("%-14s %-14s %-14s %-14s\n", "shape (m x n)", "fastest",
              "seed pick", "calibrated");
  size_t seed_correct = 0, calibrated_correct = 0;
  for (const auto& row : table) {
    size_t fastest = 0;
    for (size_t i = 1; i < row.measured_ms.size(); ++i) {
      if (row.measured_ms[i] < row.measured_ms[fastest]) fastest = i;
    }
    const join::JoinWorkload w =
        ShapeWorkload(row.shape.first, row.shape.second);
    const std::string truth = scan_ops[fastest];
    const std::string seed_pick = ArgminPredicted(scan_ops, w, seed);
    const std::string calibrated_pick =
        ArgminPredicted(scan_ops, w, calibrated);
    if (seed_pick == truth) ++seed_correct;
    if (calibrated_pick == truth) ++calibrated_correct;
    char shape_text[32];
    std::snprintf(shape_text, sizeof(shape_text), "%zux%zu",
                  row.shape.first, row.shape.second);
    std::printf("%-14s %-14s %-14s %-14s\n", shape_text, truth.c_str(),
                seed_pick.c_str(), calibrated_pick.c_str());
  }
  std::printf("# accuracy: seed %zu/%zu, calibrated %zu/%zu\n", seed_correct,
              table.size(), calibrated_correct, table.size());
  std::printf("# calibrated: M=%.0f ns  A+C=%.1f ns  eff=%.3f\n",
              calibrated.model, calibrated.access + calibrated.compute,
              calibrated.tensor_efficiency);

  return order_ok ? 0 : 1;
}
