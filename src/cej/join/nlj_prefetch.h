// Prefetch-optimized E-NLJ (paper Eq. "E-NLJ Prefetch Optimization"):
// every tuple is embedded exactly once (|R| + |S| model calls, paid by the
// plan's Embed nodes) before a pairwise nested-loop join over the embedded
// vectors. This is the logically optimized formulation Figures 8-10
// evaluate, with the classic smaller-relation-inner heuristic exposed as a
// knob (Figure 10 quantifies its ~35% effect at 1e10 operations).

#ifndef CEJ_JOIN_NLJ_PREFETCH_H_
#define CEJ_JOIN_NLJ_PREFETCH_H_

#include "cej/common/status.h"
#include "cej/join/join_common.h"
#include "cej/join/join_sink.h"
#include "cej/la/matrix.h"

namespace cej::join {

/// Loop-order policy for the NLJ.
enum class LoopOrder {
  kAsGiven,        ///< left outer, right inner (no reordering)
  kSmallerInner,   ///< put the smaller relation in the inner loop
};

/// Options for the prefetch NLJ.
struct NljOptions : JoinOptions {
  LoopOrder loop_order = LoopOrder::kAsGiven;
};

/// Vector-domain core: joins two already-embedded batches (one unit vector
/// per row). Supports threshold and top-k conditions.
Result<JoinResult> NljJoinMatrices(const la::Matrix& left,
                                   const la::Matrix& right,
                                   const JoinCondition& condition,
                                   const NljOptions& options = {});

/// Streaming form of NljJoinMatrices: emits pair chunks into `sink`
/// (unordered; honours early termination) instead of materializing, and
/// returns the counters for the work actually performed.
Result<JoinStats> NljJoinMatricesToSink(const la::Matrix& left,
                                        const la::Matrix& right,
                                        const JoinCondition& condition,
                                        const NljOptions& options,
                                        JoinSink* sink);

}  // namespace cej::join

#endif  // CEJ_JOIN_NLJ_PREFETCH_H_
