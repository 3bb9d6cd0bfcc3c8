// Host calibration of the paper's abstract cost model (Section IV.A).
//
// The parameters and per-operator cost features live with the operators
// in cej/join/join_cost.h — each physical JoinOperator prices itself via
// EstimateCost(). This header adds the piece only the planner can do:
// calibrating A, M and C against the host machine and a concrete
// embedding model.

#ifndef CEJ_PLAN_COST_MODEL_H_
#define CEJ_PLAN_COST_MODEL_H_

#include <cstddef>

#include "cej/join/join_cost.h"
#include "cej/model/embedding_model.h"

namespace cej::plan {

/// Micro-benchmarks the host to fill in A, M and C for a concrete model and
/// dimensionality. Cheap (a few milliseconds).
join::CostParams Calibrate(const model::EmbeddingModel& model,
                           size_t sample = 256);

}  // namespace cej::plan

#endif  // CEJ_PLAN_COST_MODEL_H_
