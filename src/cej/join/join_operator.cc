#include "cej/join/join_operator.h"

#include <limits>

#include "cej/common/timer.h"
#include "cej/join/index_join.h"
#include "cej/join/nlj_naive.h"
#include "cej/join/nlj_prefetch.h"
#include "cej/join/tensor_join.h"

namespace cej::join {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

bool HasStrings(const JoinInputs& in) {
  return in.left_strings != nullptr && in.right_strings != nullptr &&
         in.model != nullptr && in.model->dim() > 0;
}

bool HasModel(const JoinInputs& in) {
  return in.model != nullptr && in.model->dim() > 0;
}

bool HasLeftSide(const JoinInputs& in) {
  return in.left_vectors != nullptr ||
         (in.left_strings != nullptr && HasModel(in));
}

bool HasRightSide(const JoinInputs& in) {
  return in.right_vectors != nullptr ||
         (in.right_strings != nullptr && HasModel(in));
}

// One side of the join in the vector domain: `vectors` when supplied,
// else `strings` embedded under the inputs' model into `storage` (the
// prefetch primitive), parallel over `pool` when one is supplied. Per
// side, so a caller with one side already embedded (e.g. a cached left
// batch plus a fresh right feed) never has its supplied vectors ignored or
// recomputed. The model time, calls and buffer bytes are added to `stats`.
Result<const la::Matrix*> SideVectors(const la::Matrix* vectors,
                                      const std::vector<std::string>* strings,
                                      const JoinInputs& in, ThreadPool* pool,
                                      la::Matrix* storage, JoinStats* stats) {
  if (vectors != nullptr) return vectors;
  if (strings == nullptr || !HasModel(in)) {
    return Status::InvalidArgument(
        "E-join: operator needs embedded vectors (or strings plus a "
        "model) on each side");
  }
  const uint64_t calls_before = in.model->embed_calls();
  WallTimer timer;
  *storage = in.model->EmbedBatch(*strings, pool);
  stats->embed_seconds += timer.ElapsedSeconds();
  stats->model_calls += in.model->embed_calls() - calls_before;
  stats->peak_buffer_bytes += storage->MemoryBytes();
  return storage;
}

// ---------------------------------------------------------------------------
// naive_nlj — the Figure 8 baseline: model invoked inside the pair loop.
// ---------------------------------------------------------------------------
class NaiveNljOperator : public JoinOperator {
 public:
  std::string_view Name() const override { return "naive_nlj"; }

  JoinOperatorTraits Traits() const override {
    JoinOperatorTraits t;
    t.needs_strings = true;
    t.supports_topk = false;
    return t;
  }

  Result<JoinStats> Run(const JoinInputs& inputs,
                        const JoinCondition& condition,
                        const JoinOptions& options,
                        JoinSink* sink) const override {
    CEJ_RETURN_IF_ERROR(ValidateInputs(inputs, condition));
    return NaiveNljJoinToSink(*inputs.left_strings, *inputs.right_strings,
                              *inputs.model, condition.threshold, options,
                              sink);
  }
};

// ---------------------------------------------------------------------------
// prefetch_nlj — embed once, pairwise NLJ over cached vectors.
// ---------------------------------------------------------------------------
class PrefetchNljOperator : public JoinOperator {
 public:
  std::string_view Name() const override { return "prefetch_nlj"; }

  JoinOperatorTraits Traits() const override {
    JoinOperatorTraits t;
    t.needs_vectors = true;
    return t;
  }

  Result<JoinStats> Run(const JoinInputs& inputs,
                        const JoinCondition& condition,
                        const JoinOptions& options,
                        JoinSink* sink) const override {
    CEJ_RETURN_IF_ERROR(ValidateInputs(inputs, condition));
    JoinStats total;
    la::Matrix left_storage, right_storage;
    CEJ_ASSIGN_OR_RETURN(
        const la::Matrix* left,
        SideVectors(inputs.left_vectors, inputs.left_strings, inputs,
                    options.pool, &left_storage, &total));
    CEJ_ASSIGN_OR_RETURN(
        const la::Matrix* right,
        SideVectors(inputs.right_vectors, inputs.right_strings, inputs,
                    options.pool, &right_storage, &total));
    NljOptions nlj_options;
    static_cast<JoinOptions&>(nlj_options) = options;
    CEJ_ASSIGN_OR_RETURN(
        JoinStats join_stats,
        NljJoinMatricesToSink(*left, *right, condition, nlj_options, sink));
    total += join_stats;
    return total;
  }
};

// ---------------------------------------------------------------------------
// tensor, sharded_tensor — the blocked-GEMM similarity sweep (Figures 6/7)
// under one of its two layouts (TensorSweepToSink).
// Each name is a separate candidate in the registry cost scan, which is
// the one place a layout is chosen.
// ---------------------------------------------------------------------------
class TensorSweepOperator : public JoinOperator {
 public:
  explicit TensorSweepOperator(SweepLayout layout) : layout_(layout) {}

  std::string_view Name() const override {
    return layout_ == SweepLayout::kRightShards ? "sharded_tensor"
                                                : "tensor";
  }

  JoinOperatorTraits Traits() const override {
    JoinOperatorTraits t;
    // Every layout accepts vectors, or strings plus a model, per side.
    t.needs_vectors = true;
    return t;
  }

  Result<JoinStats> Run(const JoinInputs& inputs,
                        const JoinCondition& condition,
                        const JoinOptions& options,
                        JoinSink* sink) const override {
    CEJ_RETURN_IF_ERROR(ValidateInputs(inputs, condition));
    JoinStats total;
    la::Matrix left_storage, right_storage;
    CEJ_ASSIGN_OR_RETURN(
        const la::Matrix* left,
        SideVectors(inputs.left_vectors, inputs.left_strings, inputs,
                    options.pool, &left_storage, &total));
    CEJ_ASSIGN_OR_RETURN(
        const la::Matrix* right,
        SideVectors(inputs.right_vectors, inputs.right_strings, inputs,
                    options.pool, &right_storage, &total));
    TensorJoinOptions tensor_options;
    static_cast<JoinOptions&>(tensor_options) = options;
    CEJ_ASSIGN_OR_RETURN(JoinStats join_stats,
                         TensorSweepToSink(*left, *right, condition, layout_,
                                           tensor_options, sink));
    total += join_stats;
    return total;
  }

 private:
  const SweepLayout layout_;
};

// ---------------------------------------------------------------------------
// index — per-tuple probes into a prebuilt vector index (Section IV.B).
// ---------------------------------------------------------------------------
class IndexJoinOperator : public JoinOperator {
 public:
  std::string_view Name() const override { return "index"; }

  JoinOperatorTraits Traits() const override {
    JoinOperatorTraits t;
    t.needs_index = true;
    t.exact = false;
    return t;
  }

  Result<JoinStats> Run(const JoinInputs& inputs,
                        const JoinCondition& condition,
                        const JoinOptions& options,
                        JoinSink* sink) const override {
    CEJ_RETURN_IF_ERROR(ValidateInputs(inputs, condition));
    JoinStats total;
    la::Matrix left_storage;
    CEJ_ASSIGN_OR_RETURN(
        const la::Matrix* left,
        SideVectors(inputs.left_vectors, inputs.left_strings, inputs,
                    options.pool, &left_storage, &total));
    IndexJoinOptions index_options;
    static_cast<JoinOptions&>(index_options) = options;
    index_options.filter = inputs.right_filter;
    CEJ_ASSIGN_OR_RETURN(
        JoinStats join_stats,
        IndexJoinToSink(*left, *inputs.right_index, condition, index_options,
                        sink));
    total += join_stats;
    return total;
  }
};

}  // namespace

double JoinOperator::EstimateCost(const JoinWorkload& workload,
                                  const CostParams& params) const {
  const CostFeatures f = FeaturesForOperator(Name(), workload, params);
  return f.eligible ? PriceFeatures(f, params) : kInf;
}

Status JoinOperator::ValidateInputs(const JoinInputs& inputs,
                                    const JoinCondition& condition) const {
  CEJ_RETURN_IF_ERROR(ValidateJoinCondition(condition));
  const JoinOperatorTraits traits = Traits();
  const std::string name(Name());
  if (condition.kind == JoinCondition::Kind::kTopK && !traits.supports_topk) {
    return Status::Unimplemented(
        name + ": top-k conditions unsupported; run plan::Optimize (or use "
               "a prefetched operator) to enable top-k");
  }
  if (condition.kind == JoinCondition::Kind::kThreshold &&
      !traits.supports_threshold) {
    return Status::Unimplemented(name +
                                 ": threshold conditions unsupported");
  }
  if (traits.needs_strings && !HasStrings(inputs)) {
    return Status::InvalidArgument(
        name + ": requires string inputs and an embedding model");
  }
  if (traits.needs_vectors &&
      (!HasLeftSide(inputs) || !HasRightSide(inputs))) {
    return Status::InvalidArgument(
        name + ": requires embedded vectors (or strings plus a model) on "
               "both sides");
  }
  if (traits.needs_index) {
    if (inputs.right_index == nullptr) {
      return Status::InvalidArgument(name +
                                     ": requires a right-side vector index");
    }
    if (!HasLeftSide(inputs)) {
      return Status::InvalidArgument(
          name + ": requires left vectors (or strings plus a model)");
    }
  }
  return Status::OK();
}

JoinOperatorRegistry& JoinOperatorRegistry::Global() {
  static JoinOperatorRegistry* registry = [] {
    auto* r = new JoinOperatorRegistry();
    CEJ_CHECK(r->Register(MakeNaiveNljOperator()).ok());
    CEJ_CHECK(r->Register(MakePrefetchNljOperator()).ok());
    CEJ_CHECK(r->Register(
                   MakeTensorSweepOperator(SweepLayout::kLeftTiles))
                  .ok());
    CEJ_CHECK(r->Register(MakeIndexJoinOperator()).ok());
    CEJ_CHECK(r->Register(
                   MakeTensorSweepOperator(SweepLayout::kRightShards))
                  .ok());
    return r;
  }();
  return *registry;
}

Status JoinOperatorRegistry::Register(
    std::unique_ptr<const JoinOperator> op) {
  CEJ_CHECK(op != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& existing : ops_) {
    if (existing->Name() == op->Name()) {
      return Status::AlreadyExists("join operator '" +
                                   std::string(op->Name()) +
                                   "' already registered");
    }
  }
  ops_.push_back(std::move(op));
  return Status::OK();
}

Result<const JoinOperator*> JoinOperatorRegistry::Find(
    std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& op : ops_) {
    if (op->Name() == name) return op.get();
  }
  std::string known;
  for (const auto& op : ops_) {
    if (!known.empty()) known += ", ";
    known += std::string(op->Name());
  }
  return Status::NotFound("no join operator named '" + std::string(name) +
                          "' (registered: " + known + ")");
}

std::vector<const JoinOperator*> JoinOperatorRegistry::operators() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const JoinOperator*> out;
  out.reserve(ops_.size());
  for (const auto& op : ops_) out.push_back(op.get());
  return out;
}

std::vector<OperatorQuote> JoinOperatorRegistry::EligibleQuotes(
    const JoinWorkload& workload, const CostParams& params, JoinDomain domain,
    bool require_exact) const {
  std::vector<OperatorQuote> quotes;
  for (const JoinOperator* op : operators()) {
    const JoinOperatorTraits traits = op->Traits();
    if (domain == JoinDomain::kStrings) {
      // String domain: every non-index operator competes — the naive NLJ
      // natively, the prefetched family by embedding on demand.
      if (traits.needs_index) continue;
    } else {
      if (traits.needs_strings) continue;
      if (traits.needs_index && !workload.index_available) continue;
    }
    // Exactness-aware probe traits: the index operator's static trait is
    // conservatively approximate, but a served FLAT entry is exact —
    // RequireExact() admits it.
    const bool exact =
        traits.exact || (traits.needs_index && workload.index_exact);
    if (require_exact && !exact) continue;
    if (workload.condition.kind == JoinCondition::Kind::kTopK &&
        !traits.supports_topk) {
      continue;
    }
    if (workload.condition.kind == JoinCondition::Kind::kThreshold &&
        !traits.supports_threshold) {
      continue;
    }
    const double cost = op->EstimateCost(workload, params);
    if (cost < kInf) quotes.push_back({op, cost, exact});
  }
  return quotes;
}

std::unique_ptr<const JoinOperator> MakeNaiveNljOperator() {
  return std::make_unique<NaiveNljOperator>();
}
std::unique_ptr<const JoinOperator> MakePrefetchNljOperator() {
  return std::make_unique<PrefetchNljOperator>();
}
std::unique_ptr<const JoinOperator> MakeTensorSweepOperator(
    SweepLayout layout) {
  return std::make_unique<TensorSweepOperator>(layout);
}
std::unique_ptr<const JoinOperator> MakeIndexJoinOperator() {
  return std::make_unique<IndexJoinOperator>();
}

}  // namespace cej::join
