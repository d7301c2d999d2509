#include "dataframe/aggregate.h"

#include <algorithm>
#include <limits>

#include "common/bitmap.h"

namespace culinary::df {

void CompareCodeEq(const int32_t* codes, int32_t code, size_t num_rows,
                   uint64_t* out) {
  // The full-word loop has a fixed trip count of 64 and no cross-iteration
  // dependency but the OR-accumulate, the shape compilers turn into a SIMD
  // compare + movemask.
  size_t w = 0;
  size_t base = 0;
  for (; base + 64 <= num_rows; base += 64, ++w) {
    uint64_t bits = 0;
    for (size_t b = 0; b < 64; ++b) {
      bits |= static_cast<uint64_t>(codes[base + b] == code) << b;
    }
    out[w] = bits;
  }
  if (base < num_rows) {
    uint64_t bits = 0;
    for (size_t b = 0; base + b < num_rows; ++b) {
      bits |= static_cast<uint64_t>(codes[base + b] == code) << b;
    }
    out[w] = bits;  // bits past `num_rows` stay zero
  }
}

namespace {

/// Row-order numeric accumulator. Sum, min and max come from the same pass,
/// so every numeric AggKind reads one state.
struct NumericAggState {
  double sum = 0.0;
  double mn = std::numeric_limits<double>::infinity();
  double mx = -std::numeric_limits<double>::infinity();
  int64_t n = 0;

  void Accumulate(double v) {
    // std::min/std::max, not hand-rolled ternaries: their NaN behavior
    // (keep the first argument) is part of the results' bits.
    sum += v;
    mn = std::min(mn, v);
    mx = std::max(mx, v);
    ++n;
  }
};

/// The numeric column an aggregation reads. `valid` stays null for kCount,
/// which counts rows and reads no values.
struct AggSource {
  const int64_t* i64 = nullptr;
  const double* f64 = nullptr;
  const uint64_t* valid = nullptr;

  /// Adds row `r`'s value to `state` unless the cell is null.
  void Accumulate(size_t r, NumericAggState* state) const {
    if (valid == nullptr || ((valid[r >> 6] >> (r & 63)) & 1) == 0) return;
    state->Accumulate(i64 != nullptr ? static_cast<double>(i64[r]) : f64[r]);
  }
};

culinary::Status NoSuchColumn(const std::string& name) {
  return culinary::Status::NotFound("no column named '" + name + "'");
}

/// Resolves what `agg` reads. kCount reads nothing, but a column it names
/// must still exist; every other kind needs a numeric column.
culinary::Result<AggSource> ResolveSource(const Table& table,
                                          const Aggregation& agg) {
  AggSource src;
  if (agg.kind == AggKind::kCount && agg.column.empty()) return src;
  auto idx = table.schema().FieldIndex(agg.column);
  if (!idx.has_value()) return NoSuchColumn(agg.column);
  if (agg.kind == AggKind::kCount) return src;
  const Column* col = table.column(*idx).get();
  if (col->type() == DataType::kString) {
    return culinary::Status::InvalidArgument(
        "aggregation over string column '" + agg.column + "'");
  }
  if (col->type() == DataType::kInt64) {
    src.i64 = static_cast<const Int64Column*>(col)->data();
  } else {
    src.f64 = static_cast<const DoubleColumn*>(col)->data();
  }
  src.valid = col->validity().words();
  return src;
}

culinary::Result<const StringColumn*> StringColumnNamed(
    const Table& table, const std::string& name) {
  auto idx = table.schema().FieldIndex(name);
  if (!idx.has_value()) return NoSuchColumn(name);
  const Column* col = table.column(*idx).get();
  if (col->type() != DataType::kString) {
    return culinary::Status::InvalidArgument("column '" + name +
                                             "' is not a string column");
  }
  return static_cast<const StringColumn*>(col);
}

/// The rows `where` selects. The value resolves to a dictionary code once;
/// a value absent from the dictionary selects nothing.
culinary::Result<culinary::Bitmap> SelectRows(const Table& table,
                                              const StringEquals& where) {
  CULINARY_ASSIGN_OR_RETURN(const StringColumn* col,
                            StringColumnNamed(table, where.column));
  culinary::Bitmap rows(table.num_rows());
  const int32_t code = col->FindCode(where.value);
  if (code >= 0) {
    CompareCodeEq(col->codes(), code, table.num_rows(), rows.mutable_words());
  }
  return rows;
}

/// The result of `kind` over `rows` selected rows whose values went into
/// `state`: kCount is the row count, the rest are Null when no non-null
/// value aggregated.
Value Finish(AggKind kind, int64_t rows, const NumericAggState& state) {
  if (kind == AggKind::kCount) return Value::Int(rows);
  if (state.n == 0) return Value::Null();
  switch (kind) {
    case AggKind::kSum:
      return Value::Real(state.sum);
    case AggKind::kMean:
      return Value::Real(state.sum / static_cast<double>(state.n));
    case AggKind::kMin:
      return Value::Real(state.mn);
    default:
      return Value::Real(state.mx);
  }
}

}  // namespace

culinary::Result<Value> AggregateWhere(const Table& table, AggKind kind,
                                       const std::string& column,
                                       const StringEquals& where) {
  CULINARY_ASSIGN_OR_RETURN(culinary::Bitmap rows, SelectRows(table, where));
  CULINARY_ASSIGN_OR_RETURN(AggSource src,
                            ResolveSource(table, {kind, column, ""}));
  NumericAggState state;
  rows.ForEachSetBit(0, rows.num_bits(),
                     [&](size_t r) { src.Accumulate(r, &state); });
  return Finish(kind, static_cast<int64_t>(rows.CountSet()), state);
}

culinary::Result<Table> GroupByAggregateWhere(
    const Table& table, const std::string& key,
    const std::vector<Aggregation>& aggs, const StringEquals& where) {
  CULINARY_ASSIGN_OR_RETURN(const StringColumn* key_col,
                            StringColumnNamed(table, key));
  std::vector<AggSource> sources;
  sources.reserve(aggs.size());
  for (const Aggregation& agg : aggs) {
    CULINARY_ASSIGN_OR_RETURN(AggSource src, ResolveSource(table, agg));
    sources.push_back(src);
  }
  CULINARY_ASSIGN_OR_RETURN(culinary::Bitmap rows, SelectRows(table, where));

  // Group ids in first-seen row order. Dictionary codes are dense, so the
  // key lookup is a flat array; null rows hold code -1 and share one group.
  // Accumulators sit group-major in one flat vector, aggs.size() per group.
  const int32_t* codes = key_col->codes();
  std::vector<int64_t> gid_of_code(key_col->dictionary_size(), -1);
  int64_t null_gid = -1;
  std::vector<int32_t> group_code;
  std::vector<int64_t> group_rows;
  std::vector<NumericAggState> state;
  rows.ForEachSetBit(0, rows.num_bits(), [&](size_t r) {
    const int32_t code = codes[r];
    int64_t& gid =
        code < 0 ? null_gid : gid_of_code[static_cast<size_t>(code)];
    if (gid < 0) {
      gid = static_cast<int64_t>(group_rows.size());
      group_code.push_back(code);
      group_rows.push_back(0);
      state.resize(state.size() + aggs.size());
    }
    const size_t g = static_cast<size_t>(gid);
    ++group_rows[g];
    for (size_t a = 0; a < aggs.size(); ++a) {
      sources[a].Accumulate(r, &state[g * aggs.size() + a]);
    }
  });

  std::vector<Field> fields = {{key, DataType::kString}};
  for (const Aggregation& agg : aggs) {
    fields.push_back({agg.output_name, agg.kind == AggKind::kCount
                                           ? DataType::kInt64
                                           : DataType::kDouble});
  }
  CULINARY_ASSIGN_OR_RETURN(Table out, Table::Make(Schema(std::move(fields))));
  out.Reserve(group_rows.size());
  std::vector<Value> row;
  for (size_t g = 0; g < group_rows.size(); ++g) {
    row.clear();
    row.push_back(group_code[g] < 0
                      ? Value::Null()
                      : Value::Str(std::string(key_col->dict_at(group_code[g]))));
    for (size_t a = 0; a < aggs.size(); ++a) {
      row.push_back(
          Finish(aggs[a].kind, group_rows[g], state[g * aggs.size() + a]));
    }
    CULINARY_RETURN_IF_ERROR(out.AppendRow(row));
  }
  return out;
}

}  // namespace culinary::df
