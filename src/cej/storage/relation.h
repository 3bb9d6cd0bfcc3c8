// Columnar relation: a schema plus equal-length columns.

#ifndef CEJ_STORAGE_RELATION_H_
#define CEJ_STORAGE_RELATION_H_

#include <memory>
#include <string>
#include <vector>

#include "cej/common/status.h"
#include "cej/storage/column.h"
#include "cej/storage/schema.h"

namespace cej::storage {

/// An immutable table. Copies are cheap (columns are shared).
class Relation {
 public:
  Relation() = default;

  /// Validates that columns match the schema's types/dims and all have the
  /// same length.
  static Result<Relation> Create(Schema schema, std::vector<Column> columns);

  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }
  const Schema& schema() const { return schema_; }

  const Column& column(size_t i) const { return *columns_.at(i); }

  /// Column lookup by field name.
  Result<const Column*> ColumnByName(const std::string& name) const;

  /// The subset of rows given by `rows` (in order, possibly with repeats)
  /// across all columns. Every column comes out as a view of this
  /// relation's values sharing one row-id list (see Column::GatherAll); no
  /// value is copied.
  Relation Take(const std::vector<uint32_t>& rows) const;

  /// Returns a new relation sharing this one's columns plus `column`
  /// appended under `field`. Fails on name clash, length or type mismatch.
  Result<Relation> WithColumn(Field field, Column column) const;

  /// Re-shapes this relation onto `schema`: output column i SHARES (zero
  /// copy) this relation's column `columns[i]`, renamed to schema's field
  /// i. Fails when a selected column's type/dim does not match its target
  /// field. Used by the executor to map an executed join tree's output
  /// back onto a join graph's canonical schema.
  Result<Relation> Project(Schema schema,
                           const std::vector<size_t>& columns) const;

 private:
  Schema schema_;
  std::vector<std::shared_ptr<const Column>> columns_;
  size_t num_rows_ = 0;
};

}  // namespace cej::storage

#endif  // CEJ_STORAGE_RELATION_H_
