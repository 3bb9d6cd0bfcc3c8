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
/// A vector column is either dense (one matrix row per tuple) or a view:
/// a shared source matrix plus a shared row-id vector, as produced by
/// Gather. Views keep their source matrix alive and copy no embedding
/// rows; a gather of a view composes the ids against the same source.
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

  // Typed accessors: calling the wrong one is a programming error.
  const std::vector<int64_t>& int64_values() const {
    CEJ_CHECK(type_ == DataType::kInt64);
    return int64_;
  }
  const std::vector<double>& double_values() const {
    CEJ_CHECK(type_ == DataType::kDouble);
    return double_;
  }
  const std::vector<std::string>& string_values() const {
    CEJ_CHECK(type_ == DataType::kString);
    return string_;
  }
  const std::vector<int32_t>& date_values() const {
    CEJ_CHECK(type_ == DataType::kDate);
    return date_;
  }
  /// The column as one dense matrix (row i = tuple i). A dense column
  /// returns its own matrix; a view builds a dense copy of its rows on the
  /// first call (thread-safe) and returns that same copy afterwards.
  const la::Matrix& vector_values() const {
    return *shared_vector_values();
  }
  /// The shared dense matrix behind a vector column (densified once for
  /// views, as vector_values()) — readers that outlive the column (e.g. a
  /// flat index built over it) share instead of cloning.
  const std::shared_ptr<const la::Matrix>& shared_vector_values() const;

  /// Pointer to row `r` of a vector column. For a view this points into
  /// the source matrix, never into a densified copy.
  const float* VectorAt(size_t r) const {
    CEJ_CHECK(type_ == DataType::kVector);
    if (view_ == nullptr) return matrix_->Row(r);
    CEJ_DCHECK(r < view_->rows.size());
    return matrix_->Row(view_->rows[r]);
  }

  /// A new column containing rows[i] for each i (gather). Scalar and
  /// string columns copy their values; a vector column returns a view that
  /// shares this column's source matrix and copies no embedding rows.
  Column Gather(const std::vector<uint32_t>& rows) const;

 private:
  // A vector view's source row per tuple, and its dense copy, built once
  // on first request. Held by shared_ptr so Column stays movable
  // (std::once_flag is not).
  struct View {
    std::vector<uint32_t> rows;
    std::once_flag densify_once;
    std::shared_ptr<const la::Matrix> dense;
  };

  explicit Column(DataType type) : type_(type) {}

  DataType type_;
  std::vector<int64_t> int64_;
  std::vector<double> double_;
  std::vector<std::string> string_;
  std::vector<int32_t> date_;
  // Non-null iff type_ == kVector; shared so cached embeddings flow into
  // result columns without a copy. For a view this is the source matrix.
  std::shared_ptr<const la::Matrix> matrix_;
  // Non-null iff this is a vector view.
  std::shared_ptr<View> view_;
};

}  // namespace cej::storage

#endif  // CEJ_STORAGE_COLUMN_H_
