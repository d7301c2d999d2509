#ifndef CULINARYLAB_DATAFRAME_TYPES_H_
#define CULINARYLAB_DATAFRAME_TYPES_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace culinary::df {

/// Physical type of a column.
enum class DataType : int {
  kInt64 = 0,
  kDouble = 1,
  kString = 2,
};

/// Stable lowercase name for `type` ("int64", "double", "string").
std::string_view DataTypeToString(DataType type);

/// A named, typed column slot in a schema.
struct Field {
  std::string name;
  DataType type;

  friend bool operator==(const Field& a, const Field& b) {
    return a.name == b.name && a.type == b.type;
  }
};

/// An ordered collection of fields. Field names must be unique; `Schema`
/// does not enforce this at construction (the `Table` factory does) but
/// lookup always returns the first match.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Field> fields) : fields_(std::move(fields)) {}

  size_t num_fields() const { return fields_.size(); }
  const Field& field(size_t i) const { return fields_[i]; }
  const std::vector<Field>& fields() const { return fields_; }

  /// Index of the first field named `name`, or nullopt.
  std::optional<size_t> FieldIndex(std::string_view name) const;

  /// "name:type, name:type, ..." for diagnostics.
  std::string ToString() const;

  friend bool operator==(const Schema& a, const Schema& b) {
    return a.fields_ == b.fields_;
  }

 private:
  std::vector<Field> fields_;
};

/// A dynamically typed cell: null, int64, double, or string.
///
/// Used at API boundaries (row append, scalar lookup, predicates); bulk
/// operations go through the typed column storage instead.
class Value {
 public:
  /// Constructs a null value.
  Value() : repr_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Int(int64_t v) { return Value(Repr(v)); }
  static Value Real(double v) { return Value(Repr(v)); }
  static Value Str(std::string v) { return Value(Repr(std::move(v))); }

  bool is_null() const { return std::holds_alternative<std::monostate>(repr_); }
  bool is_int() const { return std::holds_alternative<int64_t>(repr_); }
  bool is_double() const { return std::holds_alternative<double>(repr_); }
  bool is_string() const { return std::holds_alternative<std::string>(repr_); }

  /// Typed accessors; behaviour is undefined unless the matching `is_*`
  /// predicate holds.
  int64_t as_int() const { return std::get<int64_t>(repr_); }
  double as_double() const { return std::get<double>(repr_); }
  const std::string& as_string() const { return std::get<std::string>(repr_); }

  /// Numeric view: ints widen to double; null/string yield nullopt.
  std::optional<double> AsNumeric() const;

  /// Human-readable rendering ("null", "42", "3.5", "abc").
  std::string ToString() const;

  /// Equality compares representation exactly (Int(1) != Real(1.0)).
  friend bool operator==(const Value& a, const Value& b) {
    return a.repr_ == b.repr_;
  }
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }

 private:
  using Repr = std::variant<std::monostate, int64_t, double, std::string>;
  explicit Value(Repr repr) : repr_(std::move(repr)) {}

  Repr repr_;
};

}  // namespace culinary::df

#endif  // CULINARYLAB_DATAFRAME_TYPES_H_
