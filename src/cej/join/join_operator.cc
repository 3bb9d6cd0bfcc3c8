#include "cej/join/join_operator.h"

#include <limits>

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
    NljOptions nlj_options;
    static_cast<JoinOptions&>(nlj_options) = options;
    return NljJoinMatricesToSink(*inputs.left_vectors, *inputs.right_vectors,
                                 condition, nlj_options, sink);
  }
};

// ---------------------------------------------------------------------------
// tensor — the blocked-GEMM similarity sweep (Figures 6/7,
// TensorSweepToSink), over left tiles or right shards as the resolved
// shard count decides.
// ---------------------------------------------------------------------------
class TensorOperator : public JoinOperator {
 public:
  std::string_view Name() const override { return "tensor"; }

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
    TensorJoinOptions tensor_options;
    static_cast<JoinOptions&>(tensor_options) = options;
    return TensorSweepToSink(*inputs.left_vectors, *inputs.right_vectors,
                             condition, tensor_options, sink);
  }
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
    IndexJoinOptions index_options;
    static_cast<JoinOptions&>(index_options) = options;
    index_options.filter = inputs.right_filter;
    return IndexJoinToSink(*inputs.left_vectors, *inputs.right_index,
                           condition, index_options, sink);
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
  if (traits.needs_strings && !HasStrings(inputs)) {
    return Status::InvalidArgument(
        name + ": requires string inputs and an embedding model");
  }
  // String keys become vectors only through the plan's Embed nodes, which
  // the optimizer's rewrite places below the join.
  const std::string embed_hint =
      " (string keys need the optimizer's Embed rewrite, plan::Optimize)";
  if (traits.needs_vectors &&
      (inputs.left_vectors == nullptr || inputs.right_vectors == nullptr)) {
    return Status::InvalidArgument(
        name + ": requires embedded vectors on both sides" + embed_hint);
  }
  if (traits.needs_index) {
    if (inputs.right_index == nullptr) {
      return Status::InvalidArgument(name +
                                     ": requires a right-side vector index");
    }
    if (inputs.left_vectors == nullptr) {
      return Status::InvalidArgument(
          name + ": requires embedded left vectors" + embed_hint);
    }
  }
  return Status::OK();
}

JoinOperatorRegistry& JoinOperatorRegistry::Global() {
  static JoinOperatorRegistry* registry = [] {
    auto* r = new JoinOperatorRegistry();
    CEJ_CHECK(r->Register(MakeNaiveNljOperator()).ok());
    CEJ_CHECK(r->Register(MakePrefetchNljOperator()).ok());
    CEJ_CHECK(r->Register(MakeTensorOperator()).ok());
    CEJ_CHECK(r->Register(MakeIndexJoinOperator()).ok());
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
    const JoinWorkload& workload, const CostParams& params,
    bool require_exact) const {
  std::vector<OperatorQuote> quotes;
  for (const JoinOperator* op : operators()) {
    const JoinOperatorTraits traits = op->Traits();
    if (traits.needs_strings) continue;
    if (traits.needs_index && !workload.index_available) continue;
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
std::unique_ptr<const JoinOperator> MakeTensorOperator() {
  return std::make_unique<TensorOperator>();
}
std::unique_ptr<const JoinOperator> MakeIndexJoinOperator() {
  return std::make_unique<IndexJoinOperator>();
}

}  // namespace cej::join
