#include "dataframe/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <unordered_map>

#include "common/statistics.h"
#include "dataframe/kernels.h"

namespace culinary::df {

namespace {

/// Resolves column names to indices, or NotFound.
culinary::Result<std::vector<size_t>> ResolveColumns(
    const Table& table, const std::vector<std::string>& names) {
  std::vector<size_t> out;
  out.reserve(names.size());
  for (const std::string& name : names) {
    auto idx = table.schema().FieldIndex(name);
    if (!idx.has_value()) {
      return culinary::Status::NotFound("no column named '" + name + "'");
    }
    out.push_back(*idx);
  }
  return out;
}

/// Serializes the cells of `row` at `cols` into a collision-free byte key.
/// Each cell is tagged with its kind so (int 1) and (string "1") differ.
std::string EncodeRowKey(const Table& table, size_t row,
                         const std::vector<size_t>& cols) {
  std::string key;
  for (size_t c : cols) {
    Value v = table.GetValue(row, c);
    if (v.is_null()) {
      key.push_back('\x00');
    } else if (v.is_int()) {
      key.push_back('\x01');
      int64_t x = v.as_int();
      key.append(reinterpret_cast<const char*>(&x), sizeof(x));
    } else if (v.is_double()) {
      key.push_back('\x02');
      double x = v.as_double();
      key.append(reinterpret_cast<const char*>(&x), sizeof(x));
    } else {
      key.push_back('\x03');
      const std::string& s = v.as_string();
      uint32_t len = static_cast<uint32_t>(s.size());
      key.append(reinterpret_cast<const char*>(&len), sizeof(len));
      key.append(s);
    }
  }
  return key;
}

/// Total order on cell values: null < numeric < string; numerics compare by
/// value (ints and doubles inter-compare).
int CompareValues(const Value& a, const Value& b) {
  auto rank = [](const Value& v) {
    if (v.is_null()) return 0;
    if (v.is_string()) return 2;
    return 1;
  };
  int ra = rank(a), rb = rank(b);
  if (ra != rb) return ra < rb ? -1 : 1;
  if (ra == 0) return 0;
  if (ra == 1) {
    double x = *a.AsNumeric();
    double y = *b.AsNumeric();
    if (x < y) return -1;
    if (x > y) return 1;
    return 0;
  }
  int c = a.as_string().compare(b.as_string());
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
}

}  // namespace

culinary::Result<Table> Select(const Table& table,
                               const std::vector<std::string>& columns) {
  CULINARY_ASSIGN_OR_RETURN(std::vector<size_t> idx,
                            ResolveColumns(table, columns));
  std::vector<Field> fields;
  std::vector<ColumnPtr> cols;
  fields.reserve(idx.size());
  cols.reserve(idx.size());
  for (size_t i : idx) {
    fields.push_back(table.schema().field(i));
    cols.push_back(table.column(i));
  }
  return Table::Make(Schema(std::move(fields)), std::move(cols));
}

culinary::Result<Table> Filter(const Table& table, const RowPredicate& pred) {
  std::vector<size_t> keep;
  keep.reserve(table.num_rows());
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (pred(table, r)) keep.push_back(r);
  }
  return table.Take(keep);
}

culinary::Result<Table> SortBy(const Table& table,
                               const std::vector<SortKey>& keys) {
  if (keys.empty()) {
    return culinary::Status::InvalidArgument("SortBy requires at least one key");
  }
  std::vector<std::string> names;
  for (const SortKey& k : keys) names.push_back(k.column);
  CULINARY_ASSIGN_OR_RETURN(std::vector<size_t> idx,
                            ResolveColumns(table, names));

  std::vector<size_t> order(table.num_rows());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    for (size_t k = 0; k < idx.size(); ++k) {
      int c = CompareValues(table.GetValue(a, idx[k]),
                            table.GetValue(b, idx[k]));
      if (c != 0) return keys[k].ascending ? c < 0 : c > 0;
    }
    return false;
  });
  return table.Take(order);
}

culinary::Result<Table> GroupByAggregate(const Table& table,
                                         const std::vector<std::string>& keys,
                                         const std::vector<Aggregation>& aggs) {
  if (keys.empty()) {
    return culinary::Status::InvalidArgument("GroupBy requires key columns");
  }

  CULINARY_ASSIGN_OR_RETURN(std::vector<size_t> key_idx,
                            ResolveColumns(table, keys));

  // Resolve aggregate source columns; kCount may reference no column.
  std::vector<std::optional<size_t>> agg_idx(aggs.size());
  for (size_t a = 0; a < aggs.size(); ++a) {
    if (aggs[a].kind == AggKind::kCount && aggs[a].column.empty()) continue;
    auto idx = table.schema().FieldIndex(aggs[a].column);
    if (!idx.has_value()) {
      return culinary::Status::NotFound("no column named '" + aggs[a].column +
                                        "'");
    }
    if (aggs[a].kind != AggKind::kCount &&
        aggs[a].kind != AggKind::kCountDistinct &&
        table.schema().field(*idx).type == DataType::kString) {
      return culinary::Status::InvalidArgument(
          "aggregation over string column '" + aggs[a].column + "'");
    }
    agg_idx[a] = *idx;
  }

  // Group rows by encoded key, preserving first-seen order.
  std::unordered_map<std::string, size_t> group_of;
  std::vector<size_t> group_representative;
  std::vector<std::vector<size_t>> group_rows;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    std::string key = EncodeRowKey(table, r, key_idx);
    auto [it, inserted] = group_of.emplace(std::move(key), group_rows.size());
    if (inserted) {
      group_representative.push_back(r);
      group_rows.emplace_back();
    }
    group_rows[it->second].push_back(r);
  }

  // Output schema: keys first, then aggregates.
  std::vector<Field> fields;
  for (size_t k = 0; k < keys.size(); ++k) {
    fields.push_back(table.schema().field(key_idx[k]));
  }
  for (const Aggregation& agg : aggs) {
    DataType t = (agg.kind == AggKind::kCount ||
                  agg.kind == AggKind::kCountDistinct)
                     ? DataType::kInt64
                     : DataType::kDouble;
    fields.push_back({agg.output_name, t});
  }
  CULINARY_ASSIGN_OR_RETURN(Table out, Table::Make(Schema(std::move(fields))));

  for (size_t g = 0; g < group_rows.size(); ++g) {
    std::vector<Value> row;
    for (size_t k : key_idx) {
      row.push_back(table.GetValue(group_representative[g], k));
    }
    for (size_t a = 0; a < aggs.size(); ++a) {
      const Aggregation& agg = aggs[a];
      switch (agg.kind) {
        case AggKind::kCount:
          row.push_back(Value::Int(static_cast<int64_t>(group_rows[g].size())));
          break;
        case AggKind::kCountDistinct: {
          std::unordered_map<std::string, bool> seen;
          for (size_t r : group_rows[g]) {
            Value v = table.GetValue(r, *agg_idx[a]);
            if (v.is_null()) continue;
            seen.emplace(EncodeRowKey(table, r, {*agg_idx[a]}), true);
          }
          row.push_back(Value::Int(static_cast<int64_t>(seen.size())));
          break;
        }
        case AggKind::kSum:
        case AggKind::kMean:
        case AggKind::kMin:
        case AggKind::kMax: {
          double sum = 0.0;
          double mn = std::numeric_limits<double>::infinity();
          double mx = -std::numeric_limits<double>::infinity();
          int64_t n = 0;
          for (size_t r : group_rows[g]) {
            Value v = table.GetValue(r, *agg_idx[a]);
            auto num = v.AsNumeric();
            if (!num.has_value()) continue;
            sum += *num;
            mn = std::min(mn, *num);
            mx = std::max(mx, *num);
            ++n;
          }
          if (n == 0) {
            row.push_back(Value::Null());
          } else if (agg.kind == AggKind::kSum) {
            row.push_back(Value::Real(sum));
          } else if (agg.kind == AggKind::kMean) {
            row.push_back(Value::Real(sum / static_cast<double>(n)));
          } else if (agg.kind == AggKind::kMin) {
            row.push_back(Value::Real(mn));
          } else {
            row.push_back(Value::Real(mx));
          }
          break;
        }
      }
    }
    CULINARY_RETURN_IF_ERROR(out.AppendRow(row));
  }
  return out;
}

culinary::Result<Table> HashJoin(const Table& left, const Table& right,
                                 const std::vector<std::string>& keys,
                                 JoinType type) {
  if (keys.empty()) {
    return culinary::Status::InvalidArgument("join requires key columns");
  }
  CULINARY_ASSIGN_OR_RETURN(std::vector<size_t> lkey,
                            ResolveColumns(left, keys));
  CULINARY_ASSIGN_OR_RETURN(std::vector<size_t> rkey,
                            ResolveColumns(right, keys));
  for (size_t k = 0; k < keys.size(); ++k) {
    if (left.schema().field(lkey[k]).type !=
        right.schema().field(rkey[k]).type) {
      return culinary::Status::InvalidArgument("join key type mismatch on '" +
                                               keys[k] + "'");
    }
  }

  // Non-key columns of each side.
  auto non_keys = [](const Table& t, const std::vector<size_t>& key_idx) {
    std::vector<size_t> out;
    for (size_t c = 0; c < t.num_columns(); ++c) {
      if (std::find(key_idx.begin(), key_idx.end(), c) == key_idx.end()) {
        out.push_back(c);
      }
    }
    return out;
  };
  std::vector<size_t> lrest = non_keys(left, lkey);
  std::vector<size_t> rrest = non_keys(right, rkey);

  std::vector<Field> fields;
  for (size_t k = 0; k < keys.size(); ++k) {
    fields.push_back(left.schema().field(lkey[k]));
  }
  for (size_t c : lrest) fields.push_back(left.schema().field(c));
  for (size_t c : rrest) {
    Field f = right.schema().field(c);
    for (const Field& existing : fields) {
      if (existing.name == f.name) {
        f.name += "_right";
        break;
      }
    }
    fields.push_back(f);
  }
  CULINARY_ASSIGN_OR_RETURN(Table out, Table::Make(Schema(std::move(fields))));
  // Inner joins emit at most one row per match, left joins at least one per
  // left row; the left row count is the best cheap lower bound for both.
  out.Reserve(left.num_rows());

  // Build hash table on the right side. Null keys never participate.
  auto has_null_key = [](const Table& t, size_t r,
                         const std::vector<size_t>& key_idx) {
    for (size_t k : key_idx) {
      if (t.GetValue(r, k).is_null()) return true;
    }
    return false;
  };
  std::unordered_map<std::string, std::vector<size_t>> build;
  for (size_t r = 0; r < right.num_rows(); ++r) {
    if (has_null_key(right, r, rkey)) continue;
    build[EncodeRowKey(right, r, rkey)].push_back(r);
  }

  for (size_t l = 0; l < left.num_rows(); ++l) {
    std::vector<size_t> matches;
    if (!has_null_key(left, l, lkey)) {
      auto it = build.find(EncodeRowKey(left, l, lkey));
      if (it != build.end()) matches = it->second;
    }
    if (matches.empty()) {
      if (type == JoinType::kInner) continue;
      std::vector<Value> row;
      for (size_t k : lkey) row.push_back(left.GetValue(l, k));
      for (size_t c : lrest) row.push_back(left.GetValue(l, c));
      for (size_t i = 0; i < rrest.size(); ++i) row.push_back(Value::Null());
      CULINARY_RETURN_IF_ERROR(out.AppendRow(row));
      continue;
    }
    for (size_t r : matches) {
      std::vector<Value> row;
      for (size_t k : lkey) row.push_back(left.GetValue(l, k));
      for (size_t c : lrest) row.push_back(left.GetValue(l, c));
      for (size_t c : rrest) row.push_back(right.GetValue(r, c));
      CULINARY_RETURN_IF_ERROR(out.AppendRow(row));
    }
  }
  return out;
}

culinary::Result<Table> Distinct(const Table& table,
                                 const std::vector<std::string>& columns) {
  std::vector<size_t> idx;
  if (columns.empty()) {
    for (size_t c = 0; c < table.num_columns(); ++c) idx.push_back(c);
  } else {
    CULINARY_ASSIGN_OR_RETURN(idx, ResolveColumns(table, columns));
  }
  std::unordered_map<std::string, bool> seen;
  std::vector<size_t> keep;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    auto [it, inserted] = seen.emplace(EncodeRowKey(table, r, idx), true);
    (void)it;
    if (inserted) keep.push_back(r);
  }
  return table.Take(keep);
}

culinary::Result<Table> ValueCounts(const Table& table,
                                    const std::string& column) {
  auto idx = table.schema().FieldIndex(column);
  if (!idx.has_value()) {
    return culinary::Status::NotFound("no column named '" + column + "'");
  }
  const Column* col = table.column(*idx).get();

  // Distinct values in first-seen order plus their counts. String columns
  // count straight into a dense per-code array (dictionary codes are
  // assigned in first-appearance order, so code order == first-seen order);
  // int64 columns go through the flat open-addressing group index. Doubles
  // keep the boxed-key path — they are not worth a typed kernel as a
  // grouping key.
  std::vector<int64_t> counts;
  std::vector<Value> distinct;
  if (col->type() == DataType::kString) {
    const auto* scol = static_cast<const StringColumn*>(col);
    const int32_t* codes = scol->codes();
    std::vector<int64_t> per_code(scol->dictionary_size(), 0);
    col->validity().ForEachSetBit(0, col->size(), [&](size_t r) {
      ++per_code[static_cast<size_t>(codes[r])];
    });
    for (size_t c = 0; c < per_code.size(); ++c) {
      if (per_code[c] == 0) continue;
      distinct.push_back(Value::Str(std::string(scol->dict_at(
          static_cast<int32_t>(c)))));
      counts.push_back(per_code[c]);
    }
  } else if (col->type() == DataType::kInt64) {
    const int64_t* data = static_cast<const Int64Column*>(col)->data();
    kernels::FlatGroupIndex index;
    col->validity().ForEachSetBit(0, col->size(), [&](size_t r) {
      const int32_t gid = index.GetOrAdd(data[r]);
      if (static_cast<size_t>(gid) == counts.size()) counts.push_back(0);
      ++counts[static_cast<size_t>(gid)];
    });
    distinct.reserve(counts.size());
    for (size_t g = 0; g < counts.size(); ++g) {
      distinct.push_back(Value::Int(index.key(static_cast<int32_t>(g))));
    }
  } else {
    std::unordered_map<std::string, size_t> group_of;
    for (size_t r = 0; r < table.num_rows(); ++r) {
      Value v = table.GetValue(r, *idx);
      if (v.is_null()) continue;
      std::string key = EncodeRowKey(table, r, {*idx});
      auto [it, inserted] = group_of.emplace(std::move(key), counts.size());
      if (inserted) {
        distinct.push_back(std::move(v));
        counts.push_back(0);
      }
      ++counts[it->second];
    }
  }

  std::vector<size_t> order(counts.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return counts[a] > counts[b]; });

  std::vector<Field> fields = {table.schema().field(*idx),
                               {"count", DataType::kInt64}};
  CULINARY_ASSIGN_OR_RETURN(Table out, Table::Make(Schema(std::move(fields))));
  out.Reserve(order.size());
  for (size_t g : order) {
    CULINARY_RETURN_IF_ERROR(
        out.AppendRow({distinct[g], Value::Int(counts[g])}));
  }
  return out;
}

culinary::Result<std::vector<double>> ToDoubleVector(const Table& table,
                                                     const std::string& column) {
  auto idx = table.schema().FieldIndex(column);
  if (!idx.has_value()) {
    return culinary::Status::NotFound("no column named '" + column + "'");
  }
  if (table.schema().field(*idx).type == DataType::kString) {
    return culinary::Status::InvalidArgument("column '" + column +
                                             "' is not numeric");
  }
  std::vector<double> out;
  const Column* col = table.column(*idx).get();
  out.reserve(col->size() - col->null_count());
  const uint64_t* valid = col->validity().words();
  if (col->type() == DataType::kInt64) {
    kernels::GatherNonNullAsDouble(
        valid, static_cast<const Int64Column*>(col)->data(), col->size(),
        &out);
  } else {
    kernels::GatherNonNullAsDouble(
        valid, static_cast<const DoubleColumn*>(col)->data(), col->size(),
        &out);
  }
  return out;
}

culinary::Result<Table> Concat(const std::vector<Table>& tables) {
  if (tables.empty()) {
    return culinary::Status::InvalidArgument("Concat requires tables");
  }
  for (const Table& t : tables) {
    if (!(t.schema() == tables[0].schema())) {
      return culinary::Status::InvalidArgument("Concat schemas differ");
    }
  }
  CULINARY_ASSIGN_OR_RETURN(Table out, Table::Make(tables[0].schema()));
  size_t total_rows = 0;
  for (const Table& t : tables) total_rows += t.num_rows();
  out.Reserve(total_rows);
  for (const Table& t : tables) {
    for (size_t r = 0; r < t.num_rows(); ++r) {
      std::vector<Value> row;
      for (size_t c = 0; c < t.num_columns(); ++c) {
        row.push_back(t.GetValue(r, c));
      }
      CULINARY_RETURN_IF_ERROR(out.AppendRow(row));
    }
  }
  return out;
}

culinary::Result<Table> Describe(const Table& table) {
  std::vector<size_t> numeric;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (table.schema().field(c).type != DataType::kString) numeric.push_back(c);
  }
  if (numeric.empty()) {
    return culinary::Status::InvalidArgument("table has no numeric columns");
  }
  df::Schema schema({{"column", DataType::kString},
                     {"count", DataType::kInt64},
                     {"nulls", DataType::kInt64},
                     {"mean", DataType::kDouble},
                     {"stddev", DataType::kDouble},
                     {"min", DataType::kDouble},
                     {"median", DataType::kDouble},
                     {"max", DataType::kDouble}});
  CULINARY_ASSIGN_OR_RETURN(Table out, Table::Make(schema));
  for (size_t c : numeric) {
    const std::string& name = table.schema().field(c).name;
    CULINARY_ASSIGN_OR_RETURN(std::vector<double> values,
                              ToDoubleVector(table, name));
    int64_t nulls = static_cast<int64_t>(table.column(c)->null_count());
    if (values.empty()) {
      CULINARY_RETURN_IF_ERROR(out.AppendRow(
          {Value::Str(name), Value::Int(0), Value::Int(nulls), Value::Null(),
           Value::Null(), Value::Null(), Value::Null(), Value::Null()}));
      continue;
    }
    double mn = values[0], mx = values[0];
    for (double v : values) {
      mn = std::min(mn, v);
      mx = std::max(mx, v);
    }
    CULINARY_RETURN_IF_ERROR(out.AppendRow(
        {Value::Str(name), Value::Int(static_cast<int64_t>(values.size())),
         Value::Int(nulls), Value::Real(culinary::Mean(values)),
         Value::Real(culinary::StdDev(values)), Value::Real(mn),
         Value::Real(culinary::Median(values)), Value::Real(mx)}));
  }
  return out;
}

culinary::Result<Table> RenameColumns(
    const Table& table,
    const std::vector<std::pair<std::string, std::string>>& renames) {
  std::vector<Field> fields = table.schema().fields();
  for (const auto& [from, to] : renames) {
    auto idx = table.schema().FieldIndex(from);
    if (!idx.has_value()) {
      return culinary::Status::NotFound("no column named '" + from + "'");
    }
    fields[*idx].name = to;
  }
  std::unordered_map<std::string, int> seen;
  for (const Field& f : fields) {
    if (++seen[f.name] > 1) {
      return culinary::Status::InvalidArgument("rename collides on '" +
                                               f.name + "'");
    }
  }
  std::vector<ColumnPtr> columns;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    columns.push_back(table.column(c));
  }
  return Table::Make(Schema(std::move(fields)), std::move(columns));
}

culinary::Result<Table> DropColumns(const Table& table,
                                    const std::vector<std::string>& columns) {
  CULINARY_ASSIGN_OR_RETURN(std::vector<size_t> drop,
                            ResolveColumns(table, columns));
  std::vector<std::string> keep;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (std::find(drop.begin(), drop.end(), c) == drop.end()) {
      keep.push_back(table.schema().field(c).name);
    }
  }
  if (keep.empty()) {
    return culinary::Status::InvalidArgument("cannot drop every column");
  }
  return Select(table, keep);
}

culinary::Result<Table> WithComputedColumn(const Table& table,
                                           const Field& field,
                                           const ValueGenerator& generator) {
  if (table.schema().HasField(field.name)) {
    return culinary::Status::AlreadyExists("column '" + field.name +
                                           "' already exists");
  }
  ColumnPtr column = MakeColumn(field.type);
  for (size_t r = 0; r < table.num_rows(); ++r) {
    CULINARY_RETURN_IF_ERROR(column->AppendValue(generator(table, r)));
  }
  std::vector<Field> fields = table.schema().fields();
  fields.push_back(field);
  std::vector<ColumnPtr> columns;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    columns.push_back(table.column(c));
  }
  columns.push_back(std::move(column));
  return Table::Make(Schema(std::move(fields)), std::move(columns));
}

}  // namespace culinary::df
