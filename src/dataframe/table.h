#ifndef CULINARYLAB_DATAFRAME_TABLE_H_
#define CULINARYLAB_DATAFRAME_TABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "dataframe/column.h"
#include "dataframe/types.h"

namespace culinary::df {

/// An in-memory columnar table: a schema plus one equal-length column per
/// field. The in-process equivalent of a pandas DataFrame for this project.
///
/// Tables are cheap to copy (columns are shared). Rows are appended through
/// `AppendRow`; aggregate.h reads them column-wise without copying rows.
class Table {
 public:
  /// Creates an empty table (no columns, no rows).
  Table() = default;

  /// Creates an empty table with the given schema. Fails when field names
  /// collide or the schema is empty.
  static culinary::Result<Table> Make(Schema schema);

  /// Creates a table from a schema and pre-built columns. Fails when counts
  /// or row lengths disagree, or a column type mismatches its field.
  static culinary::Result<Table> Make(Schema schema,
                                      std::vector<ColumnPtr> columns);

  const Schema& schema() const { return schema_; }
  size_t num_columns() const { return columns_.size(); }
  size_t num_rows() const {
    return columns_.empty() ? 0 : columns_[0]->size();
  }

  /// Column accessor; bounds-unchecked.
  const ColumnPtr& column(size_t i) const { return columns_[i]; }

  /// Appends one row given as dynamically typed values, one per field.
  culinary::Status AppendRow(const std::vector<Value>& values);

  /// Pre-allocates every column for `rows` total rows.
  void Reserve(size_t rows) {
    for (const ColumnPtr& col : columns_) col->Reserve(rows);
  }

  /// Cell accessor; bounds-unchecked.
  Value GetValue(size_t row, size_t col) const {
    return columns_[col]->GetValue(row);
  }

 private:
  Table(Schema schema, std::vector<ColumnPtr> columns)
      : schema_(std::move(schema)), columns_(std::move(columns)) {}

  Schema schema_;
  std::vector<ColumnPtr> columns_;
};

}  // namespace culinary::df

#endif  // CULINARYLAB_DATAFRAME_TABLE_H_
