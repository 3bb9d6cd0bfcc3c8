#include "cej/storage/column.h"

#include <cstring>

namespace cej::storage {

Column Column::Int64(std::vector<int64_t> values) {
  Column c(DataType::kInt64);
  c.int64_ = std::move(values);
  return c;
}

Column Column::Double(std::vector<double> values) {
  Column c(DataType::kDouble);
  c.double_ = std::move(values);
  return c;
}

Column Column::String(std::vector<std::string> values) {
  Column c(DataType::kString);
  c.string_ = std::move(values);
  return c;
}

Column Column::Date(std::vector<int32_t> values) {
  Column c(DataType::kDate);
  c.date_ = std::move(values);
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
  switch (type_) {
    case DataType::kInt64:
      return int64_.size();
    case DataType::kDouble:
      return double_.size();
    case DataType::kString:
      return string_.size();
    case DataType::kDate:
      return date_.size();
    case DataType::kVector:
      return view_ != nullptr ? view_->rows.size() : matrix_->rows();
  }
  return 0;
}

size_t Column::vector_dim() const {
  return type_ == DataType::kVector ? matrix_->cols() : 0;
}

const std::shared_ptr<const la::Matrix>& Column::shared_vector_values()
    const {
  CEJ_CHECK(type_ == DataType::kVector);
  if (view_ == nullptr) return matrix_;
  std::call_once(view_->densify_once, [this] {
    const size_t dim = matrix_->cols();
    la::Matrix dense(view_->rows.size(), dim);
    for (size_t i = 0; i < view_->rows.size(); ++i) {
      std::memcpy(dense.Row(i), matrix_->Row(view_->rows[i]),
                  dim * sizeof(float));
    }
    view_->dense = std::make_shared<const la::Matrix>(std::move(dense));
  });
  return view_->dense;
}

Column Column::Gather(const std::vector<uint32_t>& rows) const {
  switch (type_) {
    case DataType::kInt64: {
      std::vector<int64_t> out;
      out.reserve(rows.size());
      for (uint32_t r : rows) out.push_back(int64_.at(r));
      return Int64(std::move(out));
    }
    case DataType::kDouble: {
      std::vector<double> out;
      out.reserve(rows.size());
      for (uint32_t r : rows) out.push_back(double_.at(r));
      return Double(std::move(out));
    }
    case DataType::kString: {
      std::vector<std::string> out;
      out.reserve(rows.size());
      for (uint32_t r : rows) out.push_back(string_.at(r));
      return String(std::move(out));
    }
    case DataType::kDate: {
      std::vector<int32_t> out;
      out.reserve(rows.size());
      for (uint32_t r : rows) out.push_back(date_.at(r));
      return Date(std::move(out));
    }
    case DataType::kVector: {
      const size_t n = size();
      auto view = std::make_shared<View>();
      view->rows.resize(rows.size());
      for (size_t i = 0; i < rows.size(); ++i) {
        CEJ_CHECK(rows[i] < n);
        view->rows[i] = view_ != nullptr ? view_->rows[rows[i]] : rows[i];
      }
      Column c(DataType::kVector);
      c.matrix_ = matrix_;
      c.view_ = std::move(view);
      return c;
    }
  }
  CEJ_CHECK(false);
  return Int64({});
}

}  // namespace cej::storage
