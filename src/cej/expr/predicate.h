// Relational predicates over columns.
//
// These drive the relational selectivity that the access-path experiments
// (Figures 15-17) sweep: pre-filtering a relation before (or while) probing
// a vector index versus scanning. Predicates evaluate to selection vectors
// (sorted row-id lists).

#ifndef CEJ_EXPR_PREDICATE_H_
#define CEJ_EXPR_PREDICATE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "cej/common/status.h"
#include "cej/storage/relation.h"

namespace cej::expr {

/// Comparison operators for Cmp predicates.
enum class CmpOp { kLt, kLe, kGt, kGe, kEq, kNe };

/// A literal comparable against int64 / double / date / string columns.
using Literal = std::variant<int64_t, double, std::string>;

/// Abstract boolean predicate over one relation's rows.
class Predicate {
 public:
  virtual ~Predicate() = default;

  /// Checks the predicate is well-typed against `schema`.
  virtual Status Validate(const storage::Schema& schema) const = 0;

  /// Evaluates over all rows, appending each satisfying row id to `out`
  /// in ascending order. `rel` must satisfy Validate.
  virtual void Eval(const storage::Relation& rel,
                    std::vector<uint32_t>* out) const = 0;
};

using PredicatePtr = std::shared_ptr<const Predicate>;

/// column <op> literal.
PredicatePtr Cmp(std::string column, CmpOp op, Literal value);
/// Conjunction.
PredicatePtr And(PredicatePtr lhs, PredicatePtr rhs);
/// Disjunction.
PredicatePtr Or(PredicatePtr lhs, PredicatePtr rhs);
/// Negation.
PredicatePtr Not(PredicatePtr inner);
/// Matches every row (selectivity 100%).
PredicatePtr True();

/// Evaluates `pred` over `rel` after validation; returns the sorted list of
/// matching row ids.
Result<std::vector<uint32_t>> Filter(const storage::Relation& rel,
                                     const PredicatePtr& pred);

}  // namespace cej::expr

#endif  // CEJ_EXPR_PREDICATE_H_
