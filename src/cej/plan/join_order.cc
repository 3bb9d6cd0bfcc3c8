#include "cej/plan/join_order.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>
#include <unordered_set>
#include <utility>

#include "cej/common/macros.h"
#include "cej/join/join_operator.h"

namespace cej::plan {
namespace {

using storage::DataType;
using storage::Schema;

// DP ceiling: subset splitting is O(3^n * edges); past this width the
// enumerator falls back to submission order instead of stalling planning.
constexpr size_t kMaxDpInputs = 12;

size_t PopCount(uint64_t mask) {
  size_t count = 0;
  for (; mask != 0; mask &= mask - 1) ++count;
  return count;
}

// Everything about the graph the DP and the lowering both consult.
struct GraphContext {
  const LogicalNode* graph = nullptr;
  std::vector<Schema> schemas;  // Per input.
  std::vector<std::vector<JoinGraphHoistKey>> hoist;  // Per input.
  std::vector<double> leaf_rows;                      // Per input.
  std::vector<size_t> edge_dim;                       // Per edge.
  std::vector<bool> edge_string;                      // Per edge.
};

// Leaf cardinality: the base relation's rows. Pushed-down Selects keep
// the child estimate (no predicate selectivity model yet — the recorded
// per-edge estimated-vs-observed feed is where better estimates start).
double EstimateLeafRows(const NodePtr& node) {
  switch (node->kind) {
    case NodeKind::kScan:
      return static_cast<double>(node->relation->num_rows());
    case NodeKind::kSelect:
    case NodeKind::kEmbed:
      return EstimateLeafRows(node->child);
    default:
      return 1000.0;
  }
}

double EstimateJoinRows(double left_rows, double right_rows,
                        const join::JoinCondition& condition) {
  if (condition.kind == join::JoinCondition::Kind::kTopK) {
    const double k =
        static_cast<double>(std::max<size_t>(condition.k, 1));
    return std::max(1.0, left_rows * std::min(k, right_rows));
  }
  return std::max(1.0, left_rows * right_rows * kThresholdSelectivity);
}

Result<GraphContext> MakeContext(const NodePtr& graph) {
  GraphContext ctx;
  ctx.graph = graph.get();
  ctx.schemas.reserve(graph->inputs.size());
  for (const NodePtr& input : graph->inputs) {
    CEJ_ASSIGN_OR_RETURN(Schema schema, OutputSchema(input));
    ctx.schemas.push_back(std::move(schema));
    ctx.leaf_rows.push_back(EstimateLeafRows(input));
  }
  CEJ_ASSIGN_OR_RETURN(ctx.hoist, HoistKeysPerInput(*graph));
  ctx.edge_dim.reserve(graph->edges.size());
  ctx.edge_string.reserve(graph->edges.size());
  for (const JoinGraphEdge& e : graph->edges) {
    CEJ_ASSIGN_OR_RETURN(size_t li,
                         ctx.schemas[e.left_input].FieldIndex(e.left_key));
    const storage::Field& lf = ctx.schemas[e.left_input].field(li);
    const bool string_edge = lf.type == DataType::kString;
    ctx.edge_string.push_back(string_edge);
    ctx.edge_dim.push_back(string_edge ? e.model->dim() : lf.vector_dim);
  }
  return ctx;
}

struct JoinQuote {
  double cost = std::numeric_limits<double>::infinity();
  std::string op;
};

// Prices the join connecting `left` and `right` through `edge`. Leaf
// embeddings are paid once, before any join, whatever the order — an
// order-invariant constant excluded from the comparison — so hoisted
// joins price with both sides' model terms dropped and take the cheapest
// quote of the registry cost scan; un-hoisted string graphs execute the
// naive NLJ per edge, priced by that operator's own quote.
JoinQuote PriceJoin(const GraphContext& ctx, const JoinOrderOptions& options,
                    const DPJoinEntry& left, const DPJoinEntry& right,
                    size_t edge) {
  const join::JoinOperatorRegistry& registry =
      join::JoinOperatorRegistry::Global();
  join::JoinWorkload workload;
  workload.left_rows = static_cast<size_t>(
      std::max(1.0, std::round(left.estimated_rows)));
  workload.right_rows = static_cast<size_t>(
      std::max(1.0, std::round(right.estimated_rows)));
  workload.dim = ctx.edge_dim[edge];
  workload.condition = ctx.graph->edges[edge].condition;
  workload.right_embed_cached = true;
  workload.left_intermediate = !left.IsLeaf();
  workload.right_intermediate = !right.IsLeaf();
  workload.pool_threads = options.pool_threads;
  if (ctx.edge_string[edge] && !ctx.graph->hoist_embeddings) {
    auto naive = registry.Find("naive_nlj");
    CEJ_CHECK(naive.ok());
    return {(*naive)->EstimateCost(workload, options.cost_params),
            "naive_nlj"};
  }
  JoinQuote best;
  for (const join::OperatorQuote& quote : registry.EligibleQuotes(
           workload, options.cost_params, /*require_exact=*/false)) {
    if (quote.cost < best.cost) {
      best.cost = quote.cost;
      best.op = std::string(quote.op->Name());
    }
  }
  return best;
}

std::shared_ptr<const DPJoinEntry> MakeLeafEntry(const GraphContext& ctx,
                                                 size_t input) {
  auto leaf = std::make_shared<DPJoinEntry>();
  leaf->relations = uint64_t{1} << input;
  leaf->estimated_rows = ctx.leaf_rows[input];
  leaf->relation_id = static_cast<int>(input);
  return leaf;
}

std::shared_ptr<const DPJoinEntry> MakeJoinEntry(
    const GraphContext& ctx, const JoinOrderOptions& options,
    std::shared_ptr<const DPJoinEntry> left,
    std::shared_ptr<const DPJoinEntry> right, size_t edge, bool swapped) {
  auto entry = std::make_shared<DPJoinEntry>();
  entry->relations = left->relations | right->relations;
  const JoinQuote quote = PriceJoin(ctx, options, *left, *right, edge);
  entry->cost = left->cost + right->cost + quote.cost;
  entry->estimated_rows = EstimateJoinRows(
      left->estimated_rows, right->estimated_rows,
      ctx.graph->edges[edge].condition);
  entry->op = quote.op;
  entry->edge = static_cast<int>(edge);
  entry->swapped = swapped;
  entry->left = std::move(left);
  entry->right = std::move(right);
  return entry;
}

// DP over connected subsets: every (subset, complement-within-mask) split
// whose parts are both buildable and joined by a graph edge is a
// candidate; the cheapest wins the mask. Orientation follows the split —
// when the left part holds the edge's right endpoint the edge applies
// swapped (threshold symmetry; top-k graphs never reach the DP).
Result<std::shared_ptr<const DPJoinEntry>> RunDp(
    const GraphContext& ctx, const JoinOrderOptions& options,
    std::vector<std::shared_ptr<const DPJoinEntry>>* memo_out) {
  const size_t n = ctx.graph->inputs.size();
  const uint64_t full = (uint64_t{1} << n) - 1;
  std::vector<std::shared_ptr<const DPJoinEntry>> memo(full + 1);
  for (size_t i = 0; i < n; ++i) {
    memo[uint64_t{1} << i] = MakeLeafEntry(ctx, i);
  }
  for (uint64_t mask = 3; mask <= full; ++mask) {
    if (PopCount(mask) < 2) continue;
    std::shared_ptr<const DPJoinEntry> best;
    for (uint64_t sub = (mask - 1) & mask; sub != 0;
         sub = (sub - 1) & mask) {
      const uint64_t rest = mask ^ sub;
      const std::shared_ptr<const DPJoinEntry>& left = memo[sub];
      const std::shared_ptr<const DPJoinEntry>& right = memo[rest];
      if (left == nullptr || right == nullptr) continue;
      for (size_t j = 0; j < ctx.graph->edges.size(); ++j) {
        const JoinGraphEdge& e = ctx.graph->edges[j];
        const uint64_t left_bit = uint64_t{1} << e.left_input;
        const uint64_t right_bit = uint64_t{1} << e.right_input;
        bool swapped;
        if ((sub & left_bit) != 0 && (rest & right_bit) != 0) {
          swapped = false;
        } else if ((sub & right_bit) != 0 && (rest & left_bit) != 0) {
          swapped = true;
        } else {
          continue;
        }
        auto candidate = MakeJoinEntry(ctx, options, left, right, j, swapped);
        if (best == nullptr || candidate->cost < best->cost) {
          best = std::move(candidate);
        }
      }
    }
    memo[mask] = std::move(best);
  }
  if (memo[full] == nullptr) {
    return Status::Internal(
        "join-order DP found no plan for a connected graph");
  }
  if (memo_out != nullptr) {
    memo_out->clear();
    std::vector<uint64_t> masks;
    for (uint64_t mask = 1; mask <= full; ++mask) {
      if (memo[mask] != nullptr) masks.push_back(mask);
    }
    std::stable_sort(masks.begin(), masks.end(),
                     [](uint64_t a, uint64_t b) {
                       const size_t pa = PopCount(a), pb = PopCount(b);
                       return pa != pb ? pa < pb : a < b;
                     });
    for (uint64_t mask : masks) memo_out->push_back(memo[mask]);
  }
  return memo[full];
}

// Applies the edges in exactly `order`, left child = the component
// holding the edge's left endpoint. Also serves submission-order pinning.
Result<std::shared_ptr<const DPJoinEntry>> RunForced(
    const GraphContext& ctx, const JoinOrderOptions& options,
    const std::vector<size_t>& order) {
  const size_t num_edges = ctx.graph->edges.size();
  if (order.size() != num_edges) {
    return Status::InvalidArgument(
        "force_join_order must list every edge exactly once (" +
        std::to_string(num_edges) + " edges, " +
        std::to_string(order.size()) + " given)");
  }
  std::vector<bool> seen(num_edges, false);
  for (size_t j : order) {
    if (j >= num_edges || seen[j]) {
      return Status::InvalidArgument(
          "force_join_order: invalid or repeated edge index " +
          std::to_string(j));
    }
    seen[j] = true;
  }
  std::vector<std::shared_ptr<const DPJoinEntry>> component(
      ctx.graph->inputs.size());
  for (size_t i = 0; i < component.size(); ++i) {
    component[i] = MakeLeafEntry(ctx, i);
  }
  std::shared_ptr<const DPJoinEntry> last;
  for (size_t j : order) {
    const JoinGraphEdge& e = ctx.graph->edges[j];
    std::shared_ptr<const DPJoinEntry> left = component[e.left_input];
    std::shared_ptr<const DPJoinEntry> right = component[e.right_input];
    if (left == right) {
      return Status::Internal("forced join order revisits a component");
    }
    auto joined = MakeJoinEntry(ctx, options, std::move(left),
                                std::move(right), j, /*swapped=*/false);
    for (size_t i = 0; i < component.size(); ++i) {
      if ((joined->relations >> i) & 1) component[i] = joined;
    }
    last = std::move(joined);
  }
  return last;
}

// --- Lowering --------------------------------------------------------------

// Column provenance through the lowered tree: exactly one of
// (input, field) / (input, hoist) / (edge) identifies a column.
struct Origin {
  int input = -1;
  int field = -1;
  int hoist = -1;
  int edge = -1;

  bool operator==(const Origin& o) const {
    return input == o.input && field == o.field && hoist == o.hoist &&
           edge == o.edge;
  }
};

struct LoweredPart {
  NodePtr node;
  std::vector<Origin> cols;
};

// The provenance of the column edge `edge` joins on within input `input`:
// the hoisted embedding column for string edges under hoisting, the key
// field itself otherwise.
Result<Origin> KeyOrigin(const GraphContext& ctx, size_t input,
                         const std::string& key, size_t edge) {
  Origin origin;
  origin.input = static_cast<int>(input);
  if (ctx.edge_string[edge] && ctx.graph->hoist_embeddings) {
    const model::EmbeddingModel* model = ctx.graph->edges[edge].model;
    for (size_t h = 0; h < ctx.hoist[input].size(); ++h) {
      if (ctx.hoist[input][h].key == key &&
          ctx.hoist[input][h].model == model) {
        origin.hoist = static_cast<int>(h);
        return origin;
      }
    }
    return Status::Internal("lowering: hoisted key '" + key +
                            "' not found for input " +
                            std::to_string(input));
  }
  CEJ_ASSIGN_OR_RETURN(size_t field, ctx.schemas[input].FieldIndex(key));
  origin.field = static_cast<int>(field);
  return origin;
}

size_t FindColumn(const std::vector<Origin>& cols, const Origin& origin) {
  for (size_t i = 0; i < cols.size(); ++i) {
    if (cols[i] == origin) return i;
  }
  CEJ_CHECK(false && "lowering lost a column's provenance");
  return 0;
}

Result<LoweredPart> Lower(const GraphContext& ctx,
                          const DPJoinEntry& entry) {
  if (entry.IsLeaf()) {
    const size_t i = static_cast<size_t>(entry.relation_id);
    LoweredPart part;
    part.node = ctx.graph->inputs[i];
    std::unordered_set<std::string> names;
    for (size_t f = 0; f < ctx.schemas[i].num_fields(); ++f) {
      names.insert(ctx.schemas[i].field(f).name);
      part.cols.push_back(
          Origin{static_cast<int>(i), static_cast<int>(f), -1, -1});
    }
    if (ctx.graph->hoist_embeddings) {
      for (size_t h = 0; h < ctx.hoist[i].size(); ++h) {
        const JoinGraphHoistKey& hk = ctx.hoist[i][h];
        const std::string emb = UniqueSuffixName(names, hk.key + "_emb");
        names.insert(emb);
        part.node = Embed(part.node, hk.key, hk.model, emb);
        part.cols.push_back(
            Origin{static_cast<int>(i), -1, static_cast<int>(h), -1});
      }
    }
    return part;
  }
  CEJ_ASSIGN_OR_RETURN(LoweredPart left, Lower(ctx, *entry.left));
  CEJ_ASSIGN_OR_RETURN(LoweredPart right, Lower(ctx, *entry.right));
  const size_t edge = static_cast<size_t>(entry.edge);
  const JoinGraphEdge& e = ctx.graph->edges[edge];
  const size_t left_input = entry.swapped ? e.right_input : e.left_input;
  const size_t right_input = entry.swapped ? e.left_input : e.right_input;
  const std::string& left_key = entry.swapped ? e.right_key : e.left_key;
  const std::string& right_key = entry.swapped ? e.left_key : e.right_key;
  CEJ_ASSIGN_OR_RETURN(Origin left_origin,
                       KeyOrigin(ctx, left_input, left_key, edge));
  CEJ_ASSIGN_OR_RETURN(Origin right_origin,
                       KeyOrigin(ctx, right_input, right_key, edge));
  CEJ_ASSIGN_OR_RETURN(Schema left_schema, OutputSchema(left.node));
  CEJ_ASSIGN_OR_RETURN(Schema right_schema, OutputSchema(right.node));
  const std::string left_name =
      left_schema.field(FindColumn(left.cols, left_origin)).name;
  const std::string right_name =
      right_schema.field(FindColumn(right.cols, right_origin)).name;
  const model::EmbeddingModel* model =
      ctx.edge_string[edge] && !ctx.graph->hoist_embeddings ? e.model
                                                            : nullptr;
  LoweredPart part;
  part.node = GraphEJoin(std::move(left.node), std::move(right.node),
                         left_name, right_name, model, e.condition,
                         entry.edge, entry.estimated_rows);
  part.cols = std::move(left.cols);
  part.cols.insert(part.cols.end(), right.cols.begin(), right.cols.end());
  part.cols.push_back(Origin{-1, -1, -1, entry.edge});
  return part;
}

// canonical_projection[i]: where the canonical schema's column i sits in
// the lowered tree's output. Mirrors the canonical field order
// OutputSchema(kJoinGraph) emits — inputs in submission order, each
// followed by its hoisted embedding columns, then per-edge similarities.
std::vector<size_t> BuildProjection(const GraphContext& ctx,
                                    const std::vector<Origin>& cols) {
  std::vector<size_t> projection;
  projection.reserve(cols.size());
  for (size_t i = 0; i < ctx.graph->inputs.size(); ++i) {
    for (size_t f = 0; f < ctx.schemas[i].num_fields(); ++f) {
      projection.push_back(FindColumn(
          cols,
          Origin{static_cast<int>(i), static_cast<int>(f), -1, -1}));
    }
    if (ctx.graph->hoist_embeddings) {
      for (size_t h = 0; h < ctx.hoist[i].size(); ++h) {
        projection.push_back(FindColumn(
            cols,
            Origin{static_cast<int>(i), -1, static_cast<int>(h), -1}));
      }
    }
  }
  for (size_t j = 0; j < ctx.graph->edges.size(); ++j) {
    projection.push_back(
        FindColumn(cols, Origin{-1, -1, -1, static_cast<int>(j)}));
  }
  return projection;
}

// Bottom-up linearization of the executed edges plus per-edge estimates.
void CollectEdges(const std::shared_ptr<const DPJoinEntry>& entry,
                  std::vector<size_t>* order,
                  std::vector<double>* est_rows) {
  if (entry == nullptr || entry->IsLeaf()) return;
  CollectEdges(entry->left, order, est_rows);
  CollectEdges(entry->right, order, est_rows);
  order->push_back(static_cast<size_t>(entry->edge));
  (*est_rows)[static_cast<size_t>(entry->edge)] = entry->estimated_rows;
}

std::string InputDisplayName(const NodePtr& input, size_t index) {
  const LogicalNode* node = input.get();
  while (node != nullptr) {
    if (node->kind == NodeKind::kScan) return node->table_name;
    node = node->child.get();
  }
  return "#" + std::to_string(index);
}

}  // namespace

Result<JoinOrderPlan> EnumerateJoinOrder(const NodePtr& graph,
                                         const JoinOrderOptions& options) {
  CEJ_CHECK(graph != nullptr);
  if (graph->kind != NodeKind::kJoinGraph) {
    return Status::InvalidArgument(
        "EnumerateJoinOrder: plan node is not a JoinGraph");
  }
  // Full structural validation (shape, connectivity, key typing) lives in
  // the schema check — ill-formed graphs fail here, before any pricing.
  CEJ_RETURN_IF_ERROR(OutputSchema(graph).status());
  CEJ_ASSIGN_OR_RETURN(GraphContext ctx, MakeContext(graph));

  bool has_topk = false;
  for (const JoinGraphEdge& e : graph->edges) {
    has_topk |= e.condition.kind == join::JoinCondition::Kind::kTopK;
  }

  JoinOrderPlan plan;
  if (!options.force_edge_order.empty()) {
    CEJ_ASSIGN_OR_RETURN(plan.best,
                         RunForced(ctx, options, options.force_edge_order));
    plan.source = JoinOrderSource::kForced;
  } else if (has_topk || graph->inputs.size() > kMaxDpInputs) {
    // Top-k matches depend on which rows sit on the probe side, so
    // reordering would change results — the graph executes in edge
    // submission order (also the fallback past the DP width ceiling).
    std::vector<size_t> submission(graph->edges.size());
    std::iota(submission.begin(), submission.end(), size_t{0});
    CEJ_ASSIGN_OR_RETURN(plan.best, RunForced(ctx, options, submission));
    plan.source = JoinOrderSource::kSubmission;
  } else {
    CEJ_ASSIGN_OR_RETURN(plan.best, RunDp(ctx, options, &plan.memo));
    plan.source = JoinOrderSource::kDp;
  }

  CEJ_ASSIGN_OR_RETURN(LoweredPart lowered, Lower(ctx, *plan.best));
  plan.root = std::move(lowered.node);
  plan.canonical_projection = BuildProjection(ctx, lowered.cols);
  plan.edge_est_rows.assign(graph->edges.size(), 0.0);
  CollectEdges(plan.best, &plan.edge_order, &plan.edge_est_rows);
  return plan;
}

std::string MemoToString(const NodePtr& graph, const JoinOrderPlan& plan) {
  if (graph == nullptr || graph->kind != NodeKind::kJoinGraph ||
      plan.best == nullptr) {
    return "";
  }
  std::vector<std::string> names;
  names.reserve(graph->inputs.size());
  for (size_t i = 0; i < graph->inputs.size(); ++i) {
    names.push_back(InputDisplayName(graph->inputs[i], i));
  }
  const auto subset = [&](uint64_t mask) {
    std::string out = "{";
    for (size_t i = 0; i < names.size(); ++i) {
      if (((mask >> i) & 1) == 0) continue;
      if (out.size() > 1) out += ",";
      out += names[i];
    }
    return out + "}";
  };
  const char* source = plan.source == JoinOrderSource::kDp ? "dp"
                       : plan.source == JoinOrderSource::kForced
                           ? "forced"
                           : "submission order";
  std::string out = "— join order (";
  out += source;
  out += ") —\n";
  // The DP memo when it ran; the executed chain otherwise.
  std::vector<std::shared_ptr<const DPJoinEntry>> entries = plan.memo;
  if (entries.empty()) {
    std::vector<std::shared_ptr<const DPJoinEntry>> stack = {plan.best};
    while (!stack.empty()) {
      auto entry = stack.back();
      stack.pop_back();
      if (entry == nullptr) continue;
      entries.push_back(entry);
      stack.push_back(entry->left);
      stack.push_back(entry->right);
    }
    std::stable_sort(entries.begin(), entries.end(),
                     [](const auto& a, const auto& b) {
                       const size_t pa = PopCount(a->relations);
                       const size_t pb = PopCount(b->relations);
                       return pa != pb ? pa < pb
                                       : a->relations < b->relations;
                     });
  }
  char line[192];
  for (const auto& entry : entries) {
    if (entry->IsLeaf()) {
      std::snprintf(line, sizeof(line), "  %-32s %12.0f rows\n",
                    subset(entry->relations).c_str(),
                    entry->estimated_rows);
    } else {
      std::snprintf(line, sizeof(line),
                    "  %-32s est %8.0f rows  cost %11.4g  via %s (e%d)\n",
                    subset(entry->relations).c_str(), entry->estimated_rows,
                    entry->cost, entry->op.c_str(), entry->edge);
    }
    out += line;
  }
  out += "  order:";
  for (size_t j : plan.edge_order) {
    out += " e" + std::to_string(j);
    const JoinGraphEdge& e = graph->edges[j];
    out += "(" + names[e.left_input] + "~" + names[e.right_input] + ")";
  }
  std::snprintf(line, sizeof(line), "   total cost %.4g\n",
                plan.best->cost);
  out += line;
  return out;
}

}  // namespace cej::plan
