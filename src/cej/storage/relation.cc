#include "cej/storage/relation.h"

namespace cej::storage {

Result<Relation> Relation::Create(Schema schema,
                                  std::vector<Column> columns) {
  if (schema.num_fields() != columns.size()) {
    return Status::InvalidArgument("relation: schema has " +
                                   std::to_string(schema.num_fields()) +
                                   " fields but " +
                                   std::to_string(columns.size()) +
                                   " columns given");
  }
  size_t rows = columns.empty() ? 0 : columns[0].size();
  for (size_t i = 0; i < columns.size(); ++i) {
    const Field& f = schema.field(i);
    if (columns[i].type() != f.type) {
      return Status::InvalidArgument(
          "relation: column '" + f.name + "' type mismatch: schema says " +
          DataTypeName(f.type) + ", column is " +
          DataTypeName(columns[i].type()));
    }
    if (f.type == DataType::kVector &&
        columns[i].vector_dim() != f.vector_dim) {
      return Status::InvalidArgument(
          "relation: vector column '" + f.name + "' dim mismatch");
    }
    if (columns[i].size() != rows) {
      return Status::InvalidArgument("relation: column '" + f.name +
                                     "' length mismatch");
    }
  }
  Relation rel;
  rel.schema_ = std::move(schema);
  rel.num_rows_ = rows;
  rel.columns_.reserve(columns.size());
  for (auto& c : columns) {
    rel.columns_.push_back(std::make_shared<const Column>(std::move(c)));
  }
  return rel;
}

Result<const Column*> Relation::ColumnByName(const std::string& name) const {
  CEJ_ASSIGN_OR_RETURN(size_t idx, schema_.FieldIndex(name));
  return columns_[idx].get();
}

Result<Relation> Relation::WithColumn(Field field, Column column) const {
  if (schema_.FieldIndex(field.name).ok()) {
    return Status::AlreadyExists("relation: field '" + field.name +
                                 "' already exists");
  }
  if (column.size() != num_rows_) {
    return Status::InvalidArgument("relation: appended column '" +
                                   field.name + "' length mismatch");
  }
  if (column.type() != field.type ||
      (field.type == DataType::kVector &&
       column.vector_dim() != field.vector_dim)) {
    return Status::InvalidArgument("relation: appended column '" +
                                   field.name + "' type mismatch");
  }
  std::vector<Field> fields = schema_.fields();
  fields.push_back(std::move(field));
  CEJ_ASSIGN_OR_RETURN(Schema schema, Schema::Create(std::move(fields)));
  Relation out;
  out.schema_ = std::move(schema);
  out.num_rows_ = num_rows_;
  out.columns_ = columns_;
  out.columns_.push_back(std::make_shared<const Column>(std::move(column)));
  return out;
}

Result<Relation> Relation::Project(Schema schema,
                                   const std::vector<size_t>& columns) const {
  if (schema.num_fields() != columns.size()) {
    return Status::InvalidArgument(
        "relation: projection selects " + std::to_string(columns.size()) +
        " columns but the target schema has " +
        std::to_string(schema.num_fields()) + " fields");
  }
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i] >= columns_.size()) {
      return Status::OutOfRange("relation: projection column index " +
                                std::to_string(columns[i]) +
                                " out of range");
    }
    const Field& f = schema.field(i);
    const Column& c = *columns_[columns[i]];
    if (c.type() != f.type ||
        (f.type == DataType::kVector && c.vector_dim() != f.vector_dim)) {
      return Status::InvalidArgument(
          "relation: projected column " + std::to_string(columns[i]) +
          " does not match target field '" + f.name + "'");
    }
  }
  Relation out;
  out.schema_ = std::move(schema);
  out.num_rows_ = num_rows_;
  out.columns_.reserve(columns.size());
  for (size_t src : columns) out.columns_.push_back(columns_[src]);
  return out;
}

Relation Relation::Take(const std::vector<uint32_t>& rows) const {
  Relation out;
  out.schema_ = schema_;
  out.num_rows_ = rows.size();
  std::vector<const Column*> sources;
  sources.reserve(columns_.size());
  for (const auto& c : columns_) sources.push_back(c.get());
  std::vector<Column> gathered = Column::GatherAll(sources, rows);
  out.columns_.reserve(gathered.size());
  for (Column& c : gathered) {
    out.columns_.push_back(std::make_shared<const Column>(std::move(c)));
  }
  return out;
}

}  // namespace cej::storage
