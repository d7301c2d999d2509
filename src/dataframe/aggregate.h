#ifndef CULINARYLAB_DATAFRAME_AGGREGATE_H_
#define CULINARYLAB_DATAFRAME_AGGREGATE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "dataframe/table.h"

namespace culinary::df {

/// Aggregation kinds of the fused terminals below.
enum class AggKind {
  kCount,  ///< number of selected rows (column may be empty)
  kSum,    ///< sum of a numeric column (double result)
  kMean,   ///< mean of a numeric column (double result)
  kMin,    ///< minimum of a numeric column (double result)
  kMax,    ///< maximum of a numeric column (double result)
};

/// One aggregate to compute per group.
struct Aggregation {
  AggKind kind;
  std::string column;       ///< source column; ignored for kCount
  std::string output_name;  ///< name of the result column
};

/// Row filter `column == value` over a string column. Null cells never
/// match, and a value absent from the column's dictionary matches nothing.
struct StringEquals {
  std::string column;
  std::string value;
};

/// Sets bit i of `out` exactly when codes[i] == code, for i in
/// [0, num_rows), and zeroes the bits past `num_rows` in the last word.
/// `out` holds Bitmap::WordsFor(num_rows) words. The filter value is
/// resolved to `code` once, so rows compare as int32, never as strings;
/// null rows hold code -1 and never match a dictionary code.
void CompareCodeEq(const int32_t* codes, int32_t code, size_t num_rows,
                   uint64_t* out);

/// One aggregate over `column`, restricted to the rows `where` selects.
/// Numeric cells only, nulls skipped, `Value::Null()` when nothing
/// aggregates; kCount counts the selected rows.
culinary::Result<Value> AggregateWhere(const Table& table, AggKind kind,
                                       const std::string& column,
                                       const StringEquals& where);

/// Fused filter → group-by → aggregate: groups the rows `where` selects by
/// the string column `key` and computes `aggs` per group, without
/// materializing the filtered table. Groups appear in first-seen row order,
/// null keys group together, kCount counts the group's rows, and numeric
/// aggregates skip null cells. The result has the key column first, then
/// one column per aggregation (int64 counts, double otherwise).
culinary::Result<Table> GroupByAggregateWhere(
    const Table& table, const std::string& key,
    const std::vector<Aggregation>& aggs, const StringEquals& where);

}  // namespace culinary::df

#endif  // CULINARYLAB_DATAFRAME_AGGREGATE_H_
