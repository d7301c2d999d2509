#include "dataframe/column.h"

namespace culinary::df {

Value Int64Column::GetValue(size_t i) const {
  if (IsNull(i)) return Value::Null();
  return Value::Int(data_[i]);
}

culinary::Status Int64Column::AppendValue(const Value& value) {
  if (value.is_null()) {
    AppendNull();
    return culinary::Status::OK();
  }
  if (!value.is_int()) {
    return culinary::Status::InvalidArgument(
        "expected int64 value, got " + value.ToString());
  }
  Append(value.as_int());
  return culinary::Status::OK();
}

Value DoubleColumn::GetValue(size_t i) const {
  if (IsNull(i)) return Value::Null();
  return Value::Real(data_[i]);
}

culinary::Status DoubleColumn::AppendValue(const Value& value) {
  if (value.is_null()) {
    AppendNull();
    return culinary::Status::OK();
  }
  if (value.is_double()) {
    Append(value.as_double());
    return culinary::Status::OK();
  }
  if (value.is_int()) {
    Append(static_cast<double>(value.as_int()));  // implicit widening
    return culinary::Status::OK();
  }
  return culinary::Status::InvalidArgument(
      "expected double value, got " + value.ToString());
}

Value StringColumn::GetValue(size_t i) const {
  if (IsNull(i)) return Value::Null();
  return Value::Str(std::string(at(i)));
}

culinary::Status StringColumn::AppendValue(const Value& value) {
  if (value.is_null()) {
    AppendNull();
    return culinary::Status::OK();
  }
  if (!value.is_string()) {
    return culinary::Status::InvalidArgument(
        "expected string value, got " + value.ToString());
  }
  Append(value.as_string());
  return culinary::Status::OK();
}

void StringColumn::Append(std::string_view v) {
  int32_t code;
  auto it = index_.find(v);  // heterogeneous: no temporary std::string
  if (it != index_.end()) {
    code = it->second;
  } else {
    code = static_cast<int32_t>(dict_.size());
    dict_.emplace_back(v);
    index_.emplace(dict_.back(), code);
  }
  codes_.push_back(code);
  MarkValid();
}

ColumnPtr MakeColumn(DataType type) {
  switch (type) {
    case DataType::kInt64:
      return std::make_shared<Int64Column>();
    case DataType::kDouble:
      return std::make_shared<DoubleColumn>();
    case DataType::kString:
      return std::make_shared<StringColumn>();
  }
  return nullptr;
}

}  // namespace culinary::df
