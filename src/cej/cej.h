// Umbrella header for the CEJ public API.
//
// Most programs only need this: it pulls in the cej::Engine facade (the
// catalog + fluent QueryBuilder surface), the join operator registry and
// streaming sinks, the logical-plan/optimizer layer underneath it, and
// the storage, predicate, model, and index types those interfaces expose.
//
//   #include "cej/cej.h"
//
//   cej::Engine engine;
//   engine.RegisterTable("photos", ...);
//   engine.RegisterModel("fasttext", &model);
//   auto result = engine.Query("photos")
//                     .EJoin("catalog", "word",
//                            cej::join::JoinCondition::TopK(3))
//                     .Execute();
//
// Layer headers (cej/join/..., cej/plan/...) remain includable directly
// for operator-level work.

#ifndef CEJ_CEJ_H_
#define CEJ_CEJ_H_

#include "cej/api/engine.h"
#include "cej/common/status.h"
#include "cej/common/thread_pool.h"
#include "cej/expr/predicate.h"
#include "cej/index/flat_index.h"
#include "cej/index/hnsw_index.h"
#include "cej/index/index_manager.h"
#include "cej/index/ivf_index.h"
#include "cej/join/join_common.h"
#include "cej/join/join_cost.h"
#include "cej/join/join_operator.h"
#include "cej/join/join_sink.h"
#include "cej/join/tensor_join.h"
#include "cej/model/embedding_model.h"
#include "cej/model/subword_hash_model.h"
#include "cej/plan/executor.h"
#include "cej/plan/logical_plan.h"
#include "cej/plan/rewrite.h"
#include "cej/serve/server.h"
#include "cej/stats/cost_calibrator.h"
#include "cej/stats/workload_stats.h"
#include "cej/storage/relation.h"

#endif  // CEJ_CEJ_H_
