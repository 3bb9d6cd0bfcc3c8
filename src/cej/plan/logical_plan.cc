#include "cej/plan/logical_plan.h"

#include <numeric>
#include <unordered_set>

#include "cej/common/macros.h"

namespace cej::plan {
namespace {

using storage::DataType;
using storage::Field;
using storage::Schema;

std::shared_ptr<LogicalNode> NewNode(NodeKind kind) {
  auto node = std::make_shared<LogicalNode>();
  node->kind = kind;
  return node;
}

const char* ConditionName(const join::JoinCondition& condition) {
  return condition.kind == join::JoinCondition::Kind::kThreshold
             ? "threshold"
             : "top-k";
}

// Deterministic collision renaming for join outputs: the first clash keeps
// the historical "right_<name>"; later clashes count up ("right2_<name>",
// "right3_<name>", ...) instead of stacking prefixes, so a chained join's
// third copy of `word` is right2_word under ANY join order — never
// right_right_word under one order and right_word under another.
std::string DisambiguateRight(const std::unordered_set<std::string>& names,
                              const std::string& name) {
  std::string candidate = "right_" + name;
  for (int n = 2; names.count(candidate) > 0; ++n) {
    candidate = "right" + std::to_string(n) + "_" + name;
  }
  return candidate;
}

// Similarity columns number "similarity", "similarity2", ... skipping any
// name the user's own columns already took.
std::string NextSimilarityName(const std::unordered_set<std::string>& names,
                               int* ordinal) {
  for (;; ++*ordinal) {
    std::string candidate = *ordinal == 1
                                ? "similarity"
                                : "similarity" + std::to_string(*ordinal);
    if (names.count(candidate) == 0) {
      ++*ordinal;
      return candidate;
    }
  }
}

Status ValidateGraphEdge(const LogicalNode& graph, size_t edge_index,
                         const std::vector<Schema>& schemas) {
  const JoinGraphEdge& e = graph.edges[edge_index];
  const std::string label = "JoinGraph edge " + std::to_string(edge_index);
  if (e.left_input >= graph.inputs.size() ||
      e.right_input >= graph.inputs.size()) {
    return Status::InvalidArgument(label + ": input index out of range");
  }
  if (e.left_input == e.right_input) {
    return Status::InvalidArgument(label + ": joins an input with itself");
  }
  CEJ_ASSIGN_OR_RETURN(size_t li,
                       schemas[e.left_input].FieldIndex(e.left_key));
  CEJ_ASSIGN_OR_RETURN(size_t ri,
                       schemas[e.right_input].FieldIndex(e.right_key));
  const Field& lf = schemas[e.left_input].field(li);
  const Field& rf = schemas[e.right_input].field(ri);
  if (lf.type == DataType::kString && rf.type == DataType::kString) {
    if (e.model == nullptr) {
      return Status::InvalidArgument(
          label + ": string keys require an embedding model");
    }
  } else if (lf.type == DataType::kVector && rf.type == DataType::kVector) {
    if (lf.vector_dim != rf.vector_dim) {
      return Status::InvalidArgument(
          label + ": key vector dimensionality mismatch");
    }
  } else {
    return Status::InvalidArgument(
        label + ": keys must both be strings or both be vectors");
  }
  return Status::OK();
}

// Connected and acyclic — a join *tree* over the relations. A closing
// edge would make some pair of relations joined by TWO conditions at
// once, which needs a multi-condition (worst-case-optimal) join the
// executor does not implement; a disconnected graph would need a cross
// product.
Status ValidateGraphShape(const LogicalNode& graph) {
  std::vector<size_t> parent(graph.inputs.size());
  std::iota(parent.begin(), parent.end(), size_t{0});
  const auto find = [&parent](size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (size_t j = 0; j < graph.edges.size(); ++j) {
    const size_t a = find(graph.edges[j].left_input);
    const size_t b = find(graph.edges[j].right_input);
    if (a == b) {
      return Status::InvalidArgument(
          "JoinGraph is cyclic: edge " + std::to_string(j) +
          " closes a cycle — cyclic patterns need multi-condition "
          "(worst-case-optimal) joins, which are not supported; drop the "
          "closing edge or filter on its similarity after the join");
    }
    parent[a] = b;
  }
  for (size_t i = 1; i < graph.inputs.size(); ++i) {
    if (find(i) != find(0)) {
      return Status::InvalidArgument(
          "JoinGraph is disconnected: input " + std::to_string(i) +
          " is not reachable from input 0 (cross products are not "
          "supported — add a connecting edge)");
    }
  }
  return Status::OK();
}

void AppendIndented(const NodePtr& node, size_t depth, std::string* out) {
  out->append(2 * depth, ' ');
  switch (node->kind) {
    case NodeKind::kScan:
      out->append("Scan(" + node->table_name + ")\n");
      return;
    case NodeKind::kSelect:
      out->append("Select\n");
      AppendIndented(node->child, depth + 1, out);
      return;
    case NodeKind::kEmbed:
      out->append("Embed(" + node->input_column + " -> " +
                  node->output_column + ")\n");
      AppendIndented(node->child, depth + 1, out);
      return;
    case NodeKind::kEJoin: {
      out->append("EJoin(" + node->left_key + " ~ " + node->right_key +
                  ", " + ConditionName(node->condition) +
                  (node->model != nullptr ? ", model-in-operator" : "") +
                  (node->graph_edge >= 0
                       ? ", edge " + std::to_string(node->graph_edge)
                       : "") +
                  ")\n");
      AppendIndented(node->left, depth + 1, out);
      AppendIndented(node->right, depth + 1, out);
      return;
    }
    case NodeKind::kJoinGraph: {
      out->append("JoinGraph(" + std::to_string(node->inputs.size()) +
                  " inputs, " + std::to_string(node->edges.size()) +
                  " edges" +
                  (node->hoist_embeddings ? ", hoisted embeddings" : "") +
                  ")\n");
      for (size_t i = 0; i < node->inputs.size(); ++i) {
        out->append(2 * (depth + 1), ' ');
        out->append("input " + std::to_string(i) + ":\n");
        AppendIndented(node->inputs[i], depth + 2, out);
      }
      for (size_t j = 0; j < node->edges.size(); ++j) {
        const JoinGraphEdge& e = node->edges[j];
        out->append(2 * (depth + 1), ' ');
        out->append("edge " + std::to_string(j) + ": #" +
                    std::to_string(e.left_input) + "." + e.left_key +
                    " ~ #" + std::to_string(e.right_input) + "." +
                    e.right_key + ", " + ConditionName(e.condition) +
                    (e.model != nullptr ? ", model attached" : "") + "\n");
      }
      return;
    }
  }
}

}  // namespace

std::string UniqueSuffixName(const std::unordered_set<std::string>& names,
                             const std::string& base) {
  if (names.count(base) == 0) return base;
  for (int n = 2;; ++n) {
    std::string candidate = base + std::to_string(n);
    if (names.count(candidate) == 0) return candidate;
  }
}

NodePtr Scan(std::string table_name,
             std::shared_ptr<const storage::Relation> relation) {
  CEJ_CHECK(relation != nullptr);
  auto node = NewNode(NodeKind::kScan);
  node->table_name = std::move(table_name);
  node->relation = std::move(relation);
  return node;
}

NodePtr Select(NodePtr child, expr::PredicatePtr predicate) {
  CEJ_CHECK(child != nullptr && predicate != nullptr);
  auto node = NewNode(NodeKind::kSelect);
  node->child = std::move(child);
  node->predicate = std::move(predicate);
  return node;
}

NodePtr Embed(NodePtr child, std::string input_column,
              const model::EmbeddingModel* model,
              std::string output_column) {
  CEJ_CHECK(child != nullptr && model != nullptr);
  auto node = NewNode(NodeKind::kEmbed);
  node->child = std::move(child);
  node->input_column = std::move(input_column);
  node->model = model;
  node->output_column = std::move(output_column);
  return node;
}

NodePtr EJoin(NodePtr left, NodePtr right, std::string left_key,
              std::string right_key, const model::EmbeddingModel* model,
              join::JoinCondition condition) {
  CEJ_CHECK(left != nullptr && right != nullptr);
  auto node = NewNode(NodeKind::kEJoin);
  node->left = std::move(left);
  node->right = std::move(right);
  node->left_key = std::move(left_key);
  node->right_key = std::move(right_key);
  node->model = model;
  node->condition = condition;
  return node;
}

NodePtr GraphEJoin(NodePtr left, NodePtr right, std::string left_key,
                   std::string right_key, const model::EmbeddingModel* model,
                   join::JoinCondition condition, int graph_edge,
                   double estimated_rows) {
  NodePtr node = EJoin(std::move(left), std::move(right), std::move(left_key),
                       std::move(right_key), model, condition);
  auto* mutable_node = const_cast<LogicalNode*>(node.get());
  mutable_node->graph_edge = graph_edge;
  mutable_node->estimated_rows = estimated_rows;
  return node;
}

NodePtr JoinGraph(std::vector<NodePtr> inputs,
                  std::vector<JoinGraphEdge> edges) {
  for (const NodePtr& input : inputs) CEJ_CHECK(input != nullptr);
  auto node = NewNode(NodeKind::kJoinGraph);
  node->inputs = std::move(inputs);
  node->edges = std::move(edges);
  return node;
}

Result<std::vector<std::vector<JoinGraphHoistKey>>> HoistKeysPerInput(
    const LogicalNode& graph) {
  if (graph.kind != NodeKind::kJoinGraph) {
    return Status::InvalidArgument("HoistKeysPerInput: not a JoinGraph");
  }
  std::vector<Schema> schemas;
  schemas.reserve(graph.inputs.size());
  for (const NodePtr& input : graph.inputs) {
    CEJ_ASSIGN_OR_RETURN(Schema schema, OutputSchema(input));
    schemas.push_back(std::move(schema));
  }
  std::vector<std::vector<JoinGraphHoistKey>> keys(graph.inputs.size());
  const auto add = [&](size_t input, const std::string& key,
                       const model::EmbeddingModel* model) -> Status {
    CEJ_ASSIGN_OR_RETURN(size_t idx, schemas[input].FieldIndex(key));
    if (schemas[input].field(idx).type != DataType::kString) {
      return Status::OK();  // Vector keys join directly — nothing to hoist.
    }
    for (const JoinGraphHoistKey& existing : keys[input]) {
      if (existing.key == key && existing.model == model) return Status::OK();
    }
    keys[input].push_back(JoinGraphHoistKey{key, model});
    return Status::OK();
  };
  for (const JoinGraphEdge& e : graph.edges) {
    if (e.left_input >= graph.inputs.size() ||
        e.right_input >= graph.inputs.size()) {
      return Status::InvalidArgument(
          "HoistKeysPerInput: edge input index out of range");
    }
    CEJ_RETURN_IF_ERROR(add(e.left_input, e.left_key, e.model));
    CEJ_RETURN_IF_ERROR(add(e.right_input, e.right_key, e.model));
  }
  return keys;
}

Result<Schema> OutputSchema(const NodePtr& node) {
  CEJ_CHECK(node != nullptr);
  switch (node->kind) {
    case NodeKind::kScan:
      return node->relation->schema();
    case NodeKind::kSelect: {
      CEJ_ASSIGN_OR_RETURN(Schema schema, OutputSchema(node->child));
      CEJ_RETURN_IF_ERROR(node->predicate->Validate(schema));
      return schema;
    }
    case NodeKind::kEmbed: {
      CEJ_ASSIGN_OR_RETURN(Schema schema, OutputSchema(node->child));
      CEJ_ASSIGN_OR_RETURN(size_t idx,
                           schema.FieldIndex(node->input_column));
      if (schema.field(idx).type != DataType::kString) {
        return Status::InvalidArgument(
            "Embed: input column '" + node->input_column +
            "' must be a string column");
      }
      std::vector<Field> fields = schema.fields();
      fields.push_back(Field{node->output_column, DataType::kVector,
                             node->model->dim()});
      return Schema::Create(std::move(fields));
    }
    case NodeKind::kEJoin: {
      CEJ_ASSIGN_OR_RETURN(Schema left, OutputSchema(node->left));
      CEJ_ASSIGN_OR_RETURN(Schema right, OutputSchema(node->right));
      // Key validation: both string (model attached) or both vector with
      // equal dim.
      CEJ_ASSIGN_OR_RETURN(size_t li, left.FieldIndex(node->left_key));
      CEJ_ASSIGN_OR_RETURN(size_t ri, right.FieldIndex(node->right_key));
      const Field& lf = left.field(li);
      const Field& rf = right.field(ri);
      if (lf.type == DataType::kString && rf.type == DataType::kString) {
        if (node->model == nullptr) {
          return Status::InvalidArgument(
              "EJoin over string keys requires an embedding model");
        }
      } else if (lf.type == DataType::kVector &&
                 rf.type == DataType::kVector) {
        if (lf.vector_dim != rf.vector_dim) {
          return Status::InvalidArgument(
              "EJoin: key vector dimensionality mismatch");
        }
      } else {
        return Status::InvalidArgument(
            "EJoin keys must both be strings or both be vectors");
      }
      std::vector<Field> fields = left.fields();
      std::unordered_set<std::string> names;
      for (const auto& f : fields) names.insert(f.name);
      for (const auto& f : right.fields()) {
        Field out = f;
        if (names.count(out.name) > 0) {
          out.name = DisambiguateRight(names, out.name);
        }
        names.insert(out.name);
        fields.push_back(std::move(out));
      }
      int sim_ordinal = 1;
      fields.push_back(Field{NextSimilarityName(names, &sim_ordinal),
                             DataType::kDouble, 0});
      return Schema::Create(std::move(fields));
    }
    case NodeKind::kJoinGraph: {
      if (node->inputs.size() < 2) {
        return Status::InvalidArgument(
            "JoinGraph needs at least two inputs");
      }
      if (node->edges.empty()) {
        return Status::InvalidArgument("JoinGraph needs at least one edge");
      }
      std::vector<Schema> schemas;
      schemas.reserve(node->inputs.size());
      for (const NodePtr& input : node->inputs) {
        CEJ_ASSIGN_OR_RETURN(Schema schema, OutputSchema(input));
        schemas.push_back(std::move(schema));
      }
      for (size_t j = 0; j < node->edges.size(); ++j) {
        CEJ_RETURN_IF_ERROR(ValidateGraphEdge(*node, j, schemas));
      }
      CEJ_RETURN_IF_ERROR(ValidateGraphShape(*node));
      std::vector<std::vector<JoinGraphHoistKey>> hoist;
      if (node->hoist_embeddings) {
        CEJ_ASSIGN_OR_RETURN(hoist, HoistKeysPerInput(*node));
      }
      // Canonical column order — input-submission order regardless of the
      // join order the enumerator will pick: input i's fields (later
      // inputs disambiguated like EJoin right sides), its hoisted
      // embedding columns, then one similarity per edge.
      std::vector<Field> fields;
      std::unordered_set<std::string> names;
      for (size_t i = 0; i < node->inputs.size(); ++i) {
        for (const Field& f : schemas[i].fields()) {
          Field out = f;
          if (names.count(out.name) > 0) {
            out.name = DisambiguateRight(names, out.name);
          }
          names.insert(out.name);
          fields.push_back(std::move(out));
        }
        if (node->hoist_embeddings) {
          for (const JoinGraphHoistKey& hk : hoist[i]) {
            Field emb{UniqueSuffixName(names, hk.key + "_emb"),
                      DataType::kVector, hk.model->dim()};
            names.insert(emb.name);
            fields.push_back(std::move(emb));
          }
        }
      }
      int sim_ordinal = 1;
      for (size_t j = 0; j < node->edges.size(); ++j) {
        Field sim{NextSimilarityName(names, &sim_ordinal),
                  DataType::kDouble, 0};
        names.insert(sim.name);
        fields.push_back(std::move(sim));
      }
      return Schema::Create(std::move(fields));
    }
  }
  return Status::Internal("unreachable");
}

std::string PlanToString(const NodePtr& node) {
  std::string out;
  AppendIndented(node, 0, &out);
  return out;
}

}  // namespace cej::plan
