#include "cej/expr/predicate.h"

#include <algorithm>
#include <iterator>

namespace cej::expr {
namespace {

using storage::Column;
using storage::DataType;
using storage::Relation;
using storage::Schema;

template <typename T>
bool Compare(const T& lhs, CmpOp op, const T& rhs) {
  switch (op) {
    case CmpOp::kLt:
      return lhs < rhs;
    case CmpOp::kLe:
      return lhs <= rhs;
    case CmpOp::kGt:
      return lhs > rhs;
    case CmpOp::kGe:
      return lhs >= rhs;
    case CmpOp::kEq:
      return lhs == rhs;
    case CmpOp::kNe:
      return lhs != rhs;
  }
  return false;
}

class CmpPredicate final : public Predicate {
 public:
  CmpPredicate(std::string column, CmpOp op, Literal value)
      : column_(std::move(column)), op_(op), value_(std::move(value)) {}

  Status Validate(const Schema& schema) const override {
    CEJ_ASSIGN_OR_RETURN(size_t idx, schema.FieldIndex(column_));
    const storage::Field& f = schema.field(idx);
    switch (f.type) {
      case DataType::kInt64:
      case DataType::kDate:
        if (!std::holds_alternative<int64_t>(value_)) {
          return Status::InvalidArgument("predicate on '" + column_ +
                                         "': expected integer literal");
        }
        return Status::OK();
      case DataType::kDouble:
        if (!std::holds_alternative<double>(value_) &&
            !std::holds_alternative<int64_t>(value_)) {
          return Status::InvalidArgument("predicate on '" + column_ +
                                         "': expected numeric literal");
        }
        return Status::OK();
      case DataType::kString:
        if (!std::holds_alternative<std::string>(value_)) {
          return Status::InvalidArgument("predicate on '" + column_ +
                                         "': expected string literal");
        }
        return Status::OK();
      case DataType::kVector:
        return Status::InvalidArgument(
            "predicate on '" + column_ +
            "': relational predicates do not apply to vector columns; use "
            "an E-join / E-selection condition");
    }
    return Status::Internal("unreachable");
  }

  void Eval(const Relation& rel, std::vector<uint32_t>* out) const override {
    // Resolve the column once and run a typed tight loop: this is the
    // measured pre-filter path of the selectivity experiments.
    const Column* col = rel.ColumnByName(column_).value();
    const uint32_t n = static_cast<uint32_t>(rel.num_rows());
    switch (col->type()) {
      case DataType::kInt64: {
        const auto& v = col->int64_values();
        const int64_t rhs = std::get<int64_t>(value_);
        for (uint32_t r = 0; r < n; ++r) {
          if (Compare(v[r], op_, rhs)) out->push_back(r);
        }
        return;
      }
      case DataType::kDate: {
        const auto& v = col->date_values();
        const int64_t rhs = std::get<int64_t>(value_);
        for (uint32_t r = 0; r < n; ++r) {
          if (Compare(static_cast<int64_t>(v[r]), op_, rhs)) {
            out->push_back(r);
          }
        }
        return;
      }
      case DataType::kDouble: {
        const auto& v = col->double_values();
        const double rhs = std::holds_alternative<double>(value_)
                               ? std::get<double>(value_)
                               : static_cast<double>(
                                     std::get<int64_t>(value_));
        for (uint32_t r = 0; r < n; ++r) {
          if (Compare(v[r], op_, rhs)) out->push_back(r);
        }
        return;
      }
      case DataType::kString: {
        const auto& v = col->string_values();
        const std::string& rhs = std::get<std::string>(value_);
        for (uint32_t r = 0; r < n; ++r) {
          if (Compare(v[r], op_, rhs)) out->push_back(r);
        }
        return;
      }
      case DataType::kVector:
        break;
    }
    CEJ_CHECK(false);
  }

 private:
  std::string column_;
  CmpOp op_;
  Literal value_;
};

// The sorted rows `predicate` selects in `rel`.
std::vector<uint32_t> RowsOf(const Predicate& predicate, const Relation& rel) {
  std::vector<uint32_t> rows;
  predicate.Eval(rel, &rows);
  return rows;
}

// Compound predicates combine their children's sorted row lists, so each
// leaf runs its typed loop once instead of one column lookup per row.
class AndPredicate final : public Predicate {
 public:
  AndPredicate(PredicatePtr lhs, PredicatePtr rhs)
      : lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

  Status Validate(const Schema& schema) const override {
    CEJ_RETURN_IF_ERROR(lhs_->Validate(schema));
    return rhs_->Validate(schema);
  }

  void Eval(const Relation& rel, std::vector<uint32_t>* out) const override {
    const std::vector<uint32_t> lhs = RowsOf(*lhs_, rel);
    const std::vector<uint32_t> rhs = RowsOf(*rhs_, rel);
    std::set_intersection(lhs.begin(), lhs.end(), rhs.begin(), rhs.end(),
                          std::back_inserter(*out));
  }

 private:
  PredicatePtr lhs_, rhs_;
};

class OrPredicate final : public Predicate {
 public:
  OrPredicate(PredicatePtr lhs, PredicatePtr rhs)
      : lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

  Status Validate(const Schema& schema) const override {
    CEJ_RETURN_IF_ERROR(lhs_->Validate(schema));
    return rhs_->Validate(schema);
  }

  void Eval(const Relation& rel, std::vector<uint32_t>* out) const override {
    const std::vector<uint32_t> lhs = RowsOf(*lhs_, rel);
    const std::vector<uint32_t> rhs = RowsOf(*rhs_, rel);
    std::set_union(lhs.begin(), lhs.end(), rhs.begin(), rhs.end(),
                   std::back_inserter(*out));
  }

 private:
  PredicatePtr lhs_, rhs_;
};

class NotPredicate final : public Predicate {
 public:
  explicit NotPredicate(PredicatePtr inner) : inner_(std::move(inner)) {}

  Status Validate(const Schema& schema) const override {
    return inner_->Validate(schema);
  }

  // The complement over [0, n): rows the child rejects, NaN rows of a
  // comparison included.
  void Eval(const Relation& rel, std::vector<uint32_t>* out) const override {
    const std::vector<uint32_t> inner = RowsOf(*inner_, rel);
    auto next = inner.begin();
    for (uint32_t r = 0; r < rel.num_rows(); ++r) {
      if (next != inner.end() && *next == r) {
        ++next;
      } else {
        out->push_back(r);
      }
    }
  }

 private:
  PredicatePtr inner_;
};

class TruePredicate final : public Predicate {
 public:
  Status Validate(const Schema&) const override { return Status::OK(); }

  void Eval(const Relation& rel, std::vector<uint32_t>* out) const override {
    out->reserve(out->size() + rel.num_rows());
    for (uint32_t r = 0; r < rel.num_rows(); ++r) out->push_back(r);
  }
};

}  // namespace

PredicatePtr Cmp(std::string column, CmpOp op, Literal value) {
  return std::make_shared<CmpPredicate>(std::move(column), op,
                                        std::move(value));
}

PredicatePtr And(PredicatePtr lhs, PredicatePtr rhs) {
  return std::make_shared<AndPredicate>(std::move(lhs), std::move(rhs));
}

PredicatePtr Or(PredicatePtr lhs, PredicatePtr rhs) {
  return std::make_shared<OrPredicate>(std::move(lhs), std::move(rhs));
}

PredicatePtr Not(PredicatePtr inner) {
  return std::make_shared<NotPredicate>(std::move(inner));
}

PredicatePtr True() { return std::make_shared<TruePredicate>(); }

Result<std::vector<uint32_t>> Filter(const storage::Relation& rel,
                                     const PredicatePtr& pred) {
  CEJ_RETURN_IF_ERROR(pred->Validate(rel.schema()));
  std::vector<uint32_t> out;
  pred->Eval(rel, &out);
  return out;
}

}  // namespace cej::expr
