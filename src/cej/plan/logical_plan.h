// Logical algebra for hybrid vector-relational plans (paper Section III.C).
//
// The extension over classical relational algebra is exactly two things:
//   Embed  — E_mu(R): maps a string column into a vector column using a
//            model mu (a domain-changing projection).
//   EJoin  — R ⋈_{E,mu,theta} S: theta-join whose condition is a similarity
//            expression over embedded keys.
//
// A join may be expressed directly over *string* keys with a model attached
// (the declarative form a user writes); the PrefetchEmbeddings rewrite then
// applies the E-theta-Join equivalence
//   R ⋈_{E,mu,theta} S  <=>  E_mu(R) ⋈_theta E_mu(S)
// to hoist the embedding out of the operator, and SelectionPushdown moves
// relational predicates below the (expensive) Embed.
//
// Multi-relation pipelines are a first-class JoinGraph node: n input
// subtrees connected by similarity edges, with NO join order in the
// logical plan — the executor's join-order enumerator (EnumerateJoinOrder
// in plan/join_order.h) picks the order at execution time by dynamic programming over connected
// relation subsets, priced with the calibrated cost parameters.

#ifndef CEJ_PLAN_LOGICAL_PLAN_H_
#define CEJ_PLAN_LOGICAL_PLAN_H_

#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "cej/common/status.h"
#include "cej/expr/predicate.h"
#include "cej/join/join_common.h"
#include "cej/model/embedding_model.h"
#include "cej/storage/relation.h"

namespace cej::plan {

/// Logical operator kinds.
enum class NodeKind { kScan, kSelect, kEmbed, kEJoin, kJoinGraph };

struct LogicalNode;
using NodePtr = std::shared_ptr<const LogicalNode>;

/// One similarity edge of a JoinGraph: a condition between a key column of
/// `inputs[left_input]` and a key column of `inputs[right_input]`. String
/// key pairs carry the embedding model; vector key pairs leave it null.
struct JoinGraphEdge {
  size_t left_input = 0;
  size_t right_input = 0;
  std::string left_key;
  std::string right_key;
  join::JoinCondition condition;
  const model::EmbeddingModel* model = nullptr;  // Not owned.
};

/// One logical operator. Immutable; rewrites build new trees.
struct LogicalNode {
  NodeKind kind;

  // kScan
  std::string table_name;
  std::shared_ptr<const storage::Relation> relation;

  // kSelect
  expr::PredicatePtr predicate;

  // kEmbed: input_column (string) -> output_column (vector of model->dim()).
  std::string input_column;
  std::string output_column;
  const model::EmbeddingModel* model = nullptr;  // Not owned.

  // kEJoin: key columns may be string (model required: embedding happens
  // inside the operator — the naive form) or vector (embedding already
  // hoisted by the prefetch rewrite).
  std::string left_key;
  std::string right_key;
  join::JoinCondition condition;

  // kEJoin nodes lowered from a JoinGraph edge: the edge's submission
  // index (for per-edge ExecStats / Observation attribution) and the
  // enumerator's cardinality estimate for this join's output. -1 / 0 on
  // hand-built binary joins.
  int graph_edge = -1;
  double estimated_rows = 0.0;

  // kJoinGraph: n-ary join — `inputs` are the relation subtrees, `edges`
  // the similarity conditions connecting them. The graph must be
  // connected and acyclic (a join *tree* over relations; closing edges
  // would need multi-condition / worst-case-optimal joins). The rewrite
  // pipeline sets `hoist_embeddings`, the graph-level E-theta-Join
  // equivalence: string edge keys are embedded once per *leaf* at
  // lowering time, and intermediate results carry the embedding columns
  // zero-copy, so no edge re-embeds what an earlier join produced.
  std::vector<NodePtr> inputs;
  std::vector<JoinGraphEdge> edges;
  bool hoist_embeddings = false;

  // Children.
  NodePtr child;  // kSelect, kEmbed
  NodePtr left;   // kEJoin
  NodePtr right;  // kEJoin
};

/// Leaf: scan of a named base table.
NodePtr Scan(std::string table_name,
             std::shared_ptr<const storage::Relation> relation);

/// sigma_theta(child).
NodePtr Select(NodePtr child, expr::PredicatePtr predicate);

/// E_mu(child): appends `output_column` = mu(input_column).
NodePtr Embed(NodePtr child, std::string input_column,
              const model::EmbeddingModel* model, std::string output_column);

/// left ⋈_{E,mu,theta} right over the named key columns. `model` is
/// required when the keys are string columns and ignored for vector keys.
NodePtr EJoin(NodePtr left, NodePtr right, std::string left_key,
              std::string right_key, const model::EmbeddingModel* model,
              join::JoinCondition condition);

/// EJoin lowered from a JoinGraph edge: tags the node with the edge's
/// submission index and the enumerator's output-cardinality estimate so
/// the executor can record per-edge estimated-vs-observed rows.
NodePtr GraphEJoin(NodePtr left, NodePtr right, std::string left_key,
                   std::string right_key, const model::EmbeddingModel* model,
                   join::JoinCondition condition, int graph_edge,
                   double estimated_rows);

/// n-ary join graph over `inputs` connected by `edges` (order-free; see
/// LogicalNode::inputs). Structural validation happens in OutputSchema.
NodePtr JoinGraph(std::vector<NodePtr> inputs,
                  std::vector<JoinGraphEdge> edges);

/// The output schema a node produces, or an error for ill-formed plans.
///
/// EJoin output: left fields, right fields, then a double "similarity".
/// A right field colliding with an earlier name is renamed
/// "right_<name>"; further collisions count up deterministically
/// ("right2_<name>", "right3_<name>", ...), never stack prefixes. Extra
/// similarity columns become "similarity2", "similarity3", ....
///
/// JoinGraph output is CANONICAL — i.e. independent of the join order the
/// enumerator picks: input 0's fields, then input 1's (disambiguated as
/// above), ..., with each input's hoisted "<key>_emb" columns appended
/// after its fields when hoist_embeddings is set, and one similarity
/// column per edge (submission order) at the end.
Result<storage::Schema> OutputSchema(const NodePtr& node);

/// One hoisted embedding a JoinGraph leaf pays: the string key column and
/// the model embedding it.
struct JoinGraphHoistKey {
  std::string key;
  const model::EmbeddingModel* model = nullptr;
};

/// The string join keys the hoisting lowering embeds per input — one entry
/// per input, deduplicated, in (edge-submission, left-endpoint-first)
/// order. The canonical schema and the enumerator's lowering both derive
/// their embedding-column layout from this ONE function, so the executor's
/// positional projection back to the canonical schema cannot drift.
/// `graph` must be a kJoinGraph node with valid inputs/edges.
Result<std::vector<std::vector<JoinGraphHoistKey>>> HoistKeysPerInput(
    const LogicalNode& graph);

/// "base", "base2", "base3", ... — the first candidate not in `names`.
/// The canonical schema and the enumerator's lowering both name hoisted
/// embedding columns with it, so the two cannot drift apart.
std::string UniqueSuffixName(const std::unordered_set<std::string>& names,
                             const std::string& base);

/// Multi-line plan rendering for EXPLAIN-style debugging.
std::string PlanToString(const NodePtr& node);

}  // namespace cej::plan

#endif  // CEJ_PLAN_LOGICAL_PLAN_H_
