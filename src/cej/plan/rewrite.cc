#include "cej/plan/rewrite.h"

#include "cej/common/macros.h"

namespace cej::plan {
namespace {

std::shared_ptr<LogicalNode> ShallowCopy(const LogicalNode& node) {
  return std::make_shared<LogicalNode>(node);
}

// True when `predicate` is well-typed against the *child* of this Embed —
// i.e., it does not touch the embedding output column (or anything else
// Embed introduces) and can legally run first.
bool PredicateFitsBelowEmbed(const expr::PredicatePtr& predicate,
                             const NodePtr& embed_child) {
  auto schema = OutputSchema(embed_child);
  if (!schema.ok()) return false;
  return predicate->Validate(*schema).ok();
}

// A predicate may move below a JoinGraph into input 0 when it is
// well-typed against that input alone (input 0's fields keep their names
// in the canonical graph schema, so validation identifies ownership) and
// input 0 never sits on the probe side of a top-k edge — pre-filtering
// the probe side would change which k rows win.
bool PredicateFitsGraphInputZero(const expr::PredicatePtr& predicate,
                                 const NodePtr& graph) {
  if (graph->inputs.empty()) return false;
  for (const JoinGraphEdge& e : graph->edges) {
    if (e.condition.kind == join::JoinCondition::Kind::kTopK &&
        e.right_input == 0) {
      return false;
    }
  }
  auto schema = OutputSchema(graph->inputs[0]);
  if (!schema.ok()) return false;
  return predicate->Validate(*schema).ok();
}

}  // namespace

NodePtr ApplySelectionPushdown(const NodePtr& node) {
  CEJ_CHECK(node != nullptr);
  switch (node->kind) {
    case NodeKind::kScan:
      return node;
    case NodeKind::kSelect: {
      NodePtr child = ApplySelectionPushdown(node->child);
      if (child->kind == NodeKind::kEmbed &&
          PredicateFitsBelowEmbed(node->predicate, child->child)) {
        // Select(Embed(x)) => Embed(Select(x)); recurse in case the child
        // of Embed is itself an Embed.
        auto new_embed = ShallowCopy(*child);
        new_embed->child = ApplySelectionPushdown(
            Select(child->child, node->predicate));
        return new_embed;
      }
      if (child->kind == NodeKind::kJoinGraph &&
          PredicateFitsGraphInputZero(node->predicate, child)) {
        // Select(JoinGraph(in0, ...)) => JoinGraph(Select(in0), ...): the
        // filtered input pays less join work AND fewer hoisted embeddings.
        auto new_graph = ShallowCopy(*child);
        new_graph->inputs[0] = ApplySelectionPushdown(
            Select(child->inputs[0], node->predicate));
        return new_graph;
      }
      if (child == node->child) return node;
      auto copy = ShallowCopy(*node);
      copy->child = std::move(child);
      return copy;
    }
    case NodeKind::kEmbed: {
      NodePtr child = ApplySelectionPushdown(node->child);
      if (child == node->child) return node;
      auto copy = ShallowCopy(*node);
      copy->child = std::move(child);
      return copy;
    }
    case NodeKind::kEJoin: {
      NodePtr left = ApplySelectionPushdown(node->left);
      NodePtr right = ApplySelectionPushdown(node->right);
      if (left == node->left && right == node->right) return node;
      auto copy = ShallowCopy(*node);
      copy->left = std::move(left);
      copy->right = std::move(right);
      return copy;
    }
    case NodeKind::kJoinGraph: {
      bool changed = false;
      std::vector<NodePtr> inputs;
      inputs.reserve(node->inputs.size());
      for (const NodePtr& input : node->inputs) {
        inputs.push_back(ApplySelectionPushdown(input));
        changed |= inputs.back() != input;
      }
      if (!changed) return node;
      auto copy = ShallowCopy(*node);
      copy->inputs = std::move(inputs);
      return copy;
    }
  }
  return node;
}

NodePtr ApplyPrefetchEmbeddings(const NodePtr& node) {
  CEJ_CHECK(node != nullptr);
  switch (node->kind) {
    case NodeKind::kScan:
      return node;
    case NodeKind::kSelect:
    case NodeKind::kEmbed: {
      NodePtr child = ApplyPrefetchEmbeddings(node->child);
      if (child == node->child) return node;
      auto copy = ShallowCopy(*node);
      copy->child = std::move(child);
      return copy;
    }
    case NodeKind::kEJoin: {
      NodePtr left = ApplyPrefetchEmbeddings(node->left);
      NodePtr right = ApplyPrefetchEmbeddings(node->right);
      // Only string-key joins (model inside the operator) are rewritten.
      bool is_string_join = false;
      if (node->model != nullptr) {
        auto lschema = OutputSchema(left);
        if (lschema.ok()) {
          auto idx = lschema->FieldIndex(node->left_key);
          is_string_join = idx.ok() && lschema->field(*idx).type ==
                                           storage::DataType::kString;
        }
      }
      if (!is_string_join) {
        if (left == node->left && right == node->right) return node;
        auto copy = ShallowCopy(*node);
        copy->left = std::move(left);
        copy->right = std::move(right);
        return copy;
      }
      // E-theta-Join equivalence: hoist embedding out of the operator.
      const std::string left_vec = node->left_key + "_emb";
      const std::string right_vec = node->right_key + "_emb";
      auto copy = ShallowCopy(*node);
      copy->left = Embed(std::move(left), node->left_key, node->model,
                         left_vec);
      copy->right = Embed(std::move(right), node->right_key, node->model,
                          right_vec);
      copy->left_key = left_vec;
      copy->right_key = right_vec;
      copy->model = nullptr;  // The operator no longer embeds.
      return copy;
    }
    case NodeKind::kJoinGraph: {
      // The graph-level E-theta-Join equivalence: mark the graph for
      // embedding hoisting — the join-order enumerator's lowering embeds
      // every string edge key ONCE at its leaf (HoistKeysPerInput) and
      // intermediate results carry the embedding columns zero-copy, so no
      // edge re-embeds what an earlier join produced. The rewrite cannot
      // place the Embeds itself because their position depends on the
      // join order chosen at execution time.
      auto copy = ShallowCopy(*node);
      copy->hoist_embeddings = true;
      bool changed = !node->hoist_embeddings;
      copy->inputs.clear();
      copy->inputs.reserve(node->inputs.size());
      for (const NodePtr& input : node->inputs) {
        copy->inputs.push_back(ApplyPrefetchEmbeddings(input));
        changed |= copy->inputs.back() != input;
      }
      if (!changed) return node;
      return copy;
    }
  }
  return node;
}

NodePtr Optimize(const NodePtr& node) {
  return ApplySelectionPushdown(ApplyPrefetchEmbeddings(node));
}

}  // namespace cej::plan
