// The naive E-join extension of nested-loop join (paper Eq. "E-NL Join
// Cost"): the model is invoked *inside* the pair loop, once per operand per
// comparison, giving |R|·|S| model accesses. This operator exists to
// reproduce the suboptimal baseline of Figure 8 and to validate the cost
// model — production plans embed once through the optimizer's Embed rewrite.

#ifndef CEJ_JOIN_NLJ_NAIVE_H_
#define CEJ_JOIN_NLJ_NAIVE_H_

#include <string>
#include <vector>

#include "cej/common/status.h"
#include "cej/join/join_common.h"
#include "cej/join/join_sink.h"
#include "cej/model/embedding_model.h"

namespace cej::join {

/// Threshold E-join with per-pair embedding. Supports only the threshold
/// condition (the baseline experiment's shape). Parallel over the outer
/// relation when options.pool is set.
Result<JoinResult> NaiveNljJoin(const std::vector<std::string>& left,
                                const std::vector<std::string>& right,
                                const model::EmbeddingModel& model,
                                float threshold,
                                const JoinOptions& options = {});

/// Streaming form: emits pair chunks into `sink` (unordered; honours early
/// termination) and returns counters for the work actually performed.
Result<JoinStats> NaiveNljJoinToSink(const std::vector<std::string>& left,
                                     const std::vector<std::string>& right,
                                     const model::EmbeddingModel& model,
                                     float threshold,
                                     const JoinOptions& options,
                                     JoinSink* sink);

}  // namespace cej::join

#endif  // CEJ_JOIN_NLJ_NAIVE_H_
