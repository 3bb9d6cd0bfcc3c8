#include "cej/storage/column.h"

#include <algorithm>
#include <cstring>
#include <utility>

namespace cej::storage {
namespace {

template <typename T>
std::shared_ptr<const std::vector<T>> Share(std::vector<T> values) {
  return std::make_shared<const std::vector<T>>(std::move(values));
}

// source[rows[i]] for each i: a view's dense copy.
template <typename T>
std::vector<T> GatherValues(const std::vector<T>& source,
                            const std::vector<uint32_t>& rows) {
  std::vector<T> out;
  out.reserve(rows.size());
  for (uint32_t r : rows) out.push_back(source[r]);
  return out;
}

}  // namespace

Column Column::Int64(std::vector<int64_t> values) {
  Column c(DataType::kInt64);
  c.int64_ = Share(std::move(values));
  return c;
}

Column Column::Double(std::vector<double> values) {
  Column c(DataType::kDouble);
  c.double_ = Share(std::move(values));
  return c;
}

Column Column::String(std::vector<std::string> values) {
  Column c(DataType::kString);
  c.string_ = Share(std::move(values));
  return c;
}

Column Column::Date(std::vector<int32_t> values) {
  Column c(DataType::kDate);
  c.date_ = Share(std::move(values));
  return c;
}

Column Column::Vector(la::Matrix values) {
  return Vector(std::make_shared<const la::Matrix>(std::move(values)));
}

Column Column::Vector(std::shared_ptr<const la::Matrix> values) {
  CEJ_CHECK(values != nullptr);
  Column c(DataType::kVector);
  c.matrix_ = std::move(values);
  return c;
}

size_t Column::size() const {
  if (view_ != nullptr) return view_->rows->size();
  switch (type_) {
    case DataType::kInt64:
      return int64_->size();
    case DataType::kDouble:
      return double_->size();
    case DataType::kString:
      return string_->size();
    case DataType::kDate:
      return date_->size();
    case DataType::kVector:
      return matrix_->rows();
  }
  return 0;
}

size_t Column::vector_dim() const {
  return type_ == DataType::kVector ? matrix_->cols() : 0;
}

const Column& Column::Dense() const {
  if (view_ == nullptr) return *this;
  std::call_once(view_->densify_once, [this] {
    const RowIds& rows = *view_->rows;
    Column dense(type_);
    switch (type_) {
      case DataType::kInt64:
        dense.int64_ = Share(GatherValues(*int64_, rows));
        break;
      case DataType::kDouble:
        dense.double_ = Share(GatherValues(*double_, rows));
        break;
      case DataType::kString:
        dense.string_ = Share(GatherValues(*string_, rows));
        break;
      case DataType::kDate:
        dense.date_ = Share(GatherValues(*date_, rows));
        break;
      case DataType::kVector: {
        const size_t dim = matrix_->cols();
        la::Matrix m(rows.size(), dim);
        for (size_t i = 0; i < rows.size(); ++i) {
          std::memcpy(m.Row(i), matrix_->Row(rows[i]), dim * sizeof(float));
        }
        dense.matrix_ = std::make_shared<const la::Matrix>(std::move(m));
        break;
      }
    }
    view_->dense = std::make_unique<const Column>(std::move(dense));
  });
  return *view_->dense;
}

Column Column::ViewOf(std::shared_ptr<const RowIds> rows) const {
  Column c(type_);
  c.int64_ = int64_;
  c.double_ = double_;
  c.string_ = string_;
  c.date_ = date_;
  c.matrix_ = matrix_;
  c.view_ = std::make_shared<View>();
  c.view_->rows = std::move(rows);
  return c;
}

Column Column::Gather(const std::vector<uint32_t>& rows) const {
  return std::move(GatherAll({this}, rows).front());
}

std::vector<Column> Column::GatherAll(
    const std::vector<const Column*>& columns, std::vector<uint32_t> rows) {
  // One bound for every column: each tuple must exist in each column.
  const size_t needed =
      rows.empty() ? 0
                   : size_t{*std::max_element(rows.begin(), rows.end())} + 1;
  const auto ids = std::make_shared<const RowIds>(std::move(rows));
  // A view's ids composed with `ids`, once per distinct id list.
  std::vector<std::pair<const RowIds*, std::shared_ptr<const RowIds>>>
      composed;
  std::vector<Column> out;
  out.reserve(columns.size());
  for (const Column* column : columns) {
    CEJ_CHECK(needed <= column->size());
    if (column->view_ == nullptr) {
      out.push_back(column->ViewOf(ids));
      continue;
    }
    const RowIds* source = column->view_->rows.get();
    auto it = std::find_if(composed.begin(), composed.end(),
                           [&](const auto& e) { return e.first == source; });
    if (it == composed.end()) {
      RowIds base(ids->size());
      for (size_t i = 0; i < base.size(); ++i) base[i] = (*source)[(*ids)[i]];
      composed.emplace_back(source,
                            std::make_shared<const RowIds>(std::move(base)));
      it = composed.end() - 1;
    }
    out.push_back(column->ViewOf(it->second));
  }
  return out;
}

}  // namespace cej::storage
