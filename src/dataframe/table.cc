#include "dataframe/table.h"

#include <unordered_set>

namespace culinary::df {

culinary::Result<Table> Table::Make(Schema schema) {
  if (schema.num_fields() == 0) {
    return culinary::Status::InvalidArgument("schema must have fields");
  }
  std::unordered_set<std::string> names;
  std::vector<ColumnPtr> columns;
  columns.reserve(schema.num_fields());
  for (const Field& f : schema.fields()) {
    if (!names.insert(f.name).second) {
      return culinary::Status::InvalidArgument("duplicate field name: " +
                                               f.name);
    }
    columns.push_back(MakeColumn(f.type));
  }
  return Table(std::move(schema), std::move(columns));
}

culinary::Result<Table> Table::Make(Schema schema,
                                    std::vector<ColumnPtr> columns) {
  if (schema.num_fields() != columns.size()) {
    return culinary::Status::InvalidArgument(
        "schema has " + std::to_string(schema.num_fields()) +
        " fields but " + std::to_string(columns.size()) + " columns given");
  }
  if (columns.empty()) {
    return culinary::Status::InvalidArgument("table must have columns");
  }
  std::unordered_set<std::string> names;
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i] == nullptr) {
      return culinary::Status::InvalidArgument("null column pointer");
    }
    if (columns[i]->type() != schema.field(i).type) {
      return culinary::Status::InvalidArgument(
          "column " + std::to_string(i) + " type mismatch for field '" +
          schema.field(i).name + "'");
    }
    if (columns[i]->size() != columns[0]->size()) {
      return culinary::Status::InvalidArgument("columns have unequal length");
    }
    if (!names.insert(schema.field(i).name).second) {
      return culinary::Status::InvalidArgument("duplicate field name: " +
                                               schema.field(i).name);
    }
  }
  return Table(std::move(schema), std::move(columns));
}

culinary::Status Table::AppendRow(const std::vector<Value>& values) {
  if (values.size() != columns_.size()) {
    return culinary::Status::InvalidArgument(
        "row has " + std::to_string(values.size()) + " values, table has " +
        std::to_string(columns_.size()) + " columns");
  }
  // Validate first so a failed append leaves the table unchanged.
  for (size_t i = 0; i < values.size(); ++i) {
    const Value& v = values[i];
    if (v.is_null()) continue;
    DataType t = schema_.field(i).type;
    bool ok = (t == DataType::kInt64 && v.is_int()) ||
              (t == DataType::kDouble && (v.is_double() || v.is_int())) ||
              (t == DataType::kString && v.is_string());
    if (!ok) {
      return culinary::Status::InvalidArgument(
          "value " + v.ToString() + " does not match field '" +
          schema_.field(i).name + "' of type " +
          std::string(DataTypeToString(t)));
    }
  }
  for (size_t i = 0; i < values.size(); ++i) {
    culinary::Status s = columns_[i]->AppendValue(values[i]);
    if (!s.ok()) return culinary::Status::Internal("append failed after validation: " + s.ToString());
  }
  return culinary::Status::OK();
}

}  // namespace culinary::df
