// Typed columnar storage.

#ifndef CEJ_STORAGE_COLUMN_H_
#define CEJ_STORAGE_COLUMN_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cej/common/macros.h"
#include "cej/la/matrix.h"
#include "cej/storage/schema.h"

namespace cej::storage {

/// A single column of values, type-tagged. Columns are immutable once
/// built; Relation shares them via shared_ptr.
///
/// A column is either dense (it owns one value per tuple) or a view: a
/// shared source plus a shared row-id vector, as produced by Gather. Views
/// keep their source alive and copy no value; a gather of a view composes
/// the ids against the same source. A view densifies on the first typed
/// accessor call (thread-safe) and returns that same copy afterwards.
class Column {
 public:
  static Column Int64(std::vector<int64_t> values);
  static Column Double(std::vector<double> values);
  static Column String(std::vector<std::string> values);
  /// Dates are days since the Unix epoch.
  static Column Date(std::vector<int32_t> values);
  /// Takes ownership of a rows x dim embedding matrix (one row per tuple).
  static Column Vector(la::Matrix values);
  /// Shares an already-owned embedding matrix (no copy) — the embedding
  /// cache hands its matrices straight into result columns this way.
  static Column Vector(std::shared_ptr<const la::Matrix> values);

  Column(Column&&) noexcept = default;
  Column& operator=(Column&&) noexcept = default;
  Column(const Column&) = delete;
  Column& operator=(const Column&) = delete;

  DataType type() const { return type_; }
  size_t size() const;
  /// Embedding dimensionality; 0 for non-vector columns.
  size_t vector_dim() const;

  // Typed accessors: calling the wrong one is a programming error. A view
  // returns its dense copy (see above).
  const std::vector<int64_t>& int64_values() const {
    CEJ_CHECK(type_ == DataType::kInt64);
    return *Dense().int64_;
  }
  const std::vector<double>& double_values() const {
    CEJ_CHECK(type_ == DataType::kDouble);
    return *Dense().double_;
  }
  const std::vector<std::string>& string_values() const {
    CEJ_CHECK(type_ == DataType::kString);
    return *Dense().string_;
  }
  const std::vector<int32_t>& date_values() const {
    CEJ_CHECK(type_ == DataType::kDate);
    return *Dense().date_;
  }
  /// The column as one dense matrix (row i = tuple i), densified once for
  /// a view as the accessors above.
  const la::Matrix& vector_values() const {
    return *shared_vector_values();
  }
  /// The shared dense matrix behind a vector column (densified once for
  /// views, as vector_values()) — readers that outlive the column (e.g. a
  /// flat index built over it) share instead of cloning.
  const std::shared_ptr<const la::Matrix>& shared_vector_values() const {
    CEJ_CHECK(type_ == DataType::kVector);
    return Dense().matrix_;
  }

  /// Pointer to row `r` of a vector column. For a view this points into
  /// the source matrix, never into a densified copy.
  const float* VectorAt(size_t r) const {
    CEJ_CHECK(type_ == DataType::kVector);
    if (view_ == nullptr) return matrix_->Row(r);
    CEJ_DCHECK(r < view_->rows->size());
    return matrix_->Row((*view_->rows)[r]);
  }

  /// A new column containing rows[i] for each i (gather): a view that
  /// shares this column's source and copies no value.
  Column Gather(const std::vector<uint32_t>& rows) const;

  /// Gathers `rows` from each of `columns` (as Gather). Columns over the
  /// same row ids — every dense column, and the views one earlier gather
  /// made — share one id list in the output, so the cost is O(rows) per
  /// distinct id list plus O(1) per column.
  static std::vector<Column> GatherAll(
      const std::vector<const Column*>& columns, std::vector<uint32_t> rows);

 private:
  using RowIds = std::vector<uint32_t>;

  // A view's source row per tuple (shared with the other columns of the
  // same gather), and its dense copy, built once on first request. Held by
  // shared_ptr so Column stays movable (std::once_flag is not).
  struct View {
    std::shared_ptr<const RowIds> rows;
    std::once_flag densify_once;
    std::unique_ptr<const Column> dense;
  };

  explicit Column(DataType type) : type_(type) {}

  // This column if dense; a view's dense copy, built on the first call.
  const Column& Dense() const;
  // A view of this column's source whose tuple i is source row rows[i].
  Column ViewOf(std::shared_ptr<const RowIds> rows) const;

  DataType type_;
  // The source values: exactly the one pointer matching type_ is non-null.
  // Shared, so views (and, for vectors, cached embeddings) use the values
  // without a copy.
  std::shared_ptr<const std::vector<int64_t>> int64_;
  std::shared_ptr<const std::vector<double>> double_;
  std::shared_ptr<const std::vector<std::string>> string_;
  std::shared_ptr<const std::vector<int32_t>> date_;
  std::shared_ptr<const la::Matrix> matrix_;
  // Non-null iff this column is a view of the source above.
  std::shared_ptr<View> view_;
};

}  // namespace cej::storage

#endif  // CEJ_STORAGE_COLUMN_H_
