// Property tests for the fused where-aggregates: on randomly generated
// tables (all three column types, random nulls and dictionaries) and random
// string filters, AggregateWhere and GroupByAggregateWhere must agree
// bit-identically with a row-at-a-time reference and with an eager
// filter → group-by pipeline. Failures print the case seed for replay.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "dataframe/aggregate.h"
#include "dataframe/table.h"

namespace culinary::df {
namespace {

// --- Eager oracle ------------------------------------------------------------
// An implementation of the same semantics that shares no code with the
// fused pass: materialize the rows a predicate keeps, then group them
// through a hash map of encoded keys, reading every cell as a boxed Value.

using RowPredicate = std::function<bool(const Table&, size_t)>;

/// A new table with the rows for which `pred` returns true (stable order).
Table Filter(const Table& table, const RowPredicate& pred) {
  auto out = Table::Make(table.schema());
  EXPECT_TRUE(out.ok());
  std::vector<Value> row(table.num_columns());
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (!pred(table, r)) continue;
    for (size_t c = 0; c < table.num_columns(); ++c) {
      row[c] = table.GetValue(r, c);
    }
    EXPECT_TRUE(out->AppendRow(row).ok());
  }
  return std::move(out).value();
}

/// Groups `table` by the string column `key` and computes `aggs` per group:
/// one row per distinct key (first-seen order), the key column first, then
/// one column per aggregation. Null keys group together. Numeric aggregates
/// skip null cells.
Table GroupByAggregate(const Table& table, const std::string& key,
                       const std::vector<Aggregation>& aggs) {
  const size_t key_idx = *table.schema().FieldIndex(key);
  std::vector<size_t> agg_idx(aggs.size());
  for (size_t a = 0; a < aggs.size(); ++a) {
    if (aggs[a].kind != AggKind::kCount) {
      agg_idx[a] = *table.schema().FieldIndex(aggs[a].column);
    }
  }

  // Group rows by encoded key, preserving first-seen order. The tag byte
  // keeps the null key apart from every string.
  std::unordered_map<std::string, size_t> group_of;
  std::vector<size_t> group_representative;
  std::vector<std::vector<size_t>> group_rows;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    Value k = table.GetValue(r, key_idx);
    std::string encoded = k.is_null() ? std::string(1, '\x00')
                                      : '\x03' + k.as_string();
    auto [it, inserted] =
        group_of.emplace(std::move(encoded), group_rows.size());
    if (inserted) {
      group_representative.push_back(r);
      group_rows.emplace_back();
    }
    group_rows[it->second].push_back(r);
  }

  std::vector<Field> fields = {table.schema().field(key_idx)};
  for (const Aggregation& agg : aggs) {
    fields.push_back({agg.output_name, agg.kind == AggKind::kCount
                                           ? DataType::kInt64
                                           : DataType::kDouble});
  }
  auto out = Table::Make(Schema(std::move(fields)));
  EXPECT_TRUE(out.ok());

  for (size_t g = 0; g < group_rows.size(); ++g) {
    std::vector<Value> row = {table.GetValue(group_representative[g], key_idx)};
    for (size_t a = 0; a < aggs.size(); ++a) {
      const Aggregation& agg = aggs[a];
      if (agg.kind == AggKind::kCount) {
        row.push_back(Value::Int(static_cast<int64_t>(group_rows[g].size())));
        continue;
      }
      double sum = 0.0;
      double mn = std::numeric_limits<double>::infinity();
      double mx = -std::numeric_limits<double>::infinity();
      int64_t n = 0;
      for (size_t r : group_rows[g]) {
        Value v = table.GetValue(r, agg_idx[a]);
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
    }
    EXPECT_TRUE(out->AppendRow(row).ok());
  }
  return std::move(out).value();
}

// --- Random cases ------------------------------------------------------------

constexpr const char* kDictWords[] = {"amaranth", "basil", "clove", "dill",
                                      "endive", "fennel", "ginger"};
constexpr size_t kNumWords = sizeof(kDictWords) / sizeof(kDictWords[0]);

/// (s:string, t:string, i:int64, d:double) with ~20% nulls per column; row
/// counts are drawn to straddle uint64 word boundaries.
Table RandomTable(Rng& rng) {
  auto table = Table::Make(Schema({{"s", DataType::kString},
                                   {"t", DataType::kString},
                                   {"i", DataType::kInt64},
                                   {"d", DataType::kDouble}}));
  EXPECT_TRUE(table.ok());
  static const size_t kSizes[] = {0, 1, 63, 64, 65, 127, 129, 500, 4095,
                                  4097};
  const size_t rows = kSizes[rng.NextBounded(sizeof(kSizes) / sizeof(size_t))] +
                      rng.NextBounded(7);
  auto word = [&]() {
    return rng.NextBounded(5) == 0
               ? Value::Null()
               : Value::Str(kDictWords[rng.NextBounded(kNumWords)]);
  };
  for (size_t r = 0; r < rows; ++r) {
    std::vector<Value> row;
    row.push_back(word());
    row.push_back(word());
    row.push_back(rng.NextBounded(5) == 0
                      ? Value::Null()
                      : Value::Int(static_cast<int64_t>(rng.NextBounded(41)) -
                                   20));
    row.push_back(rng.NextBounded(5) == 0
                      ? Value::Null()
                      : Value::Real(
                            (static_cast<double>(rng.NextBounded(100)) - 50) /
                            4.0));
    EXPECT_TRUE(table->AppendRow(row).ok());
  }
  return std::move(table).value();
}

/// A filter as both the engine's StringEquals and a row-at-a-time oracle
/// implementing its null contract independently.
struct FilterCase {
  StringEquals where;
  RowPredicate oracle;
};

/// Equality on "s" or "t", sometimes against a word absent from every
/// table.
FilterCase RandomFilter(Rng& rng) {
  const size_t col = rng.NextBounded(2);
  const std::string word = rng.NextBounded(4) == 0
                               ? "zzz-absent"
                               : kDictWords[rng.NextBounded(kNumWords)];
  return {{col == 0 ? "s" : "t", word},
          [col, word](const Table& t, size_t row) {
            Value v = t.GetValue(row, col);
            return !v.is_null() && v.as_string() == word;
          }};
}

void ExpectTablesIdentical(const Table& a, const Table& b, uint64_t seed,
                           const char* what) {
  ASSERT_EQ(a.schema(), b.schema()) << what << " seed " << seed;
  ASSERT_EQ(a.num_rows(), b.num_rows()) << what << " seed " << seed;
  for (size_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.num_columns(); ++c) {
      ASSERT_EQ(a.GetValue(r, c), b.GetValue(r, c))
          << what << " seed " << seed << " cell (" << r << "," << c << ")";
    }
  }
}

TEST(LazyEngineProperty, AggregatesAreBitIdenticalToSerialRowOrder) {
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    Rng rng(seed * 31337);
    Table t = RandomTable(rng);
    FilterCase filter = RandomFilter(rng);
    for (const char* col : {"i", "d"}) {
      const size_t idx = *t.schema().FieldIndex(col);
      // Reference: serial row-order accumulation.
      double sum = 0.0, mn = 0.0, mx = 0.0;
      size_t n = 0, selected = 0;
      for (size_t r = 0; r < t.num_rows(); ++r) {
        if (!filter.oracle(t, r)) continue;
        ++selected;
        auto v = t.GetValue(r, idx).AsNumeric();
        if (!v.has_value()) continue;
        sum += *v;
        mn = n == 0 ? *v : std::min(mn, *v);
        mx = n == 0 ? *v : std::max(mx, *v);
        ++n;
      }
      auto got_count = AggregateWhere(t, AggKind::kCount, col, filter.where);
      auto got_sum = AggregateWhere(t, AggKind::kSum, col, filter.where);
      auto got_mean = AggregateWhere(t, AggKind::kMean, col, filter.where);
      auto got_min = AggregateWhere(t, AggKind::kMin, col, filter.where);
      auto got_max = AggregateWhere(t, AggKind::kMax, col, filter.where);
      ASSERT_TRUE(got_count.ok() && got_sum.ok() && got_mean.ok() &&
                  got_min.ok() && got_max.ok())
          << "seed " << seed;
      EXPECT_EQ(got_count.value(), Value::Int(static_cast<int64_t>(selected)))
          << "seed " << seed;
      if (n == 0) {
        EXPECT_TRUE(got_sum.value().is_null()) << "seed " << seed;
        EXPECT_TRUE(got_mean.value().is_null()) << "seed " << seed;
        continue;
      }
      // Exact equality on purpose: same values accumulated in the same
      // order must produce the same bits.
      EXPECT_EQ(got_sum.value(), Value::Real(sum))
          << "seed " << seed << " col " << col;
      EXPECT_EQ(got_mean.value(), Value::Real(sum / static_cast<double>(n)))
          << "seed " << seed << " col " << col;
      EXPECT_EQ(got_min.value(), Value::Real(mn)) << "seed " << seed;
      EXPECT_EQ(got_max.value(), Value::Real(mx)) << "seed " << seed;
    }
  }
}

TEST(LazyEngineProperty, FusedGroupByMatchesReferenceAndEagerPipeline) {
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    Rng rng(seed * 7919);
    Table t = RandomTable(rng);
    FilterCase filter = RandomFilter(rng);
    const std::vector<Aggregation> aggs = {{AggKind::kCount, "", "n"},
                                           {AggKind::kSum, "i", "sum_i"},
                                           {AggKind::kMin, "d", "min_d"},
                                           {AggKind::kMean, "d", "mean_d"},
                                           {AggKind::kMax, "i", "max_i"}};
    auto fused = GroupByAggregateWhere(t, "s", aggs, filter.where);
    ASSERT_TRUE(fused.ok()) << "seed " << seed;
    // Independent reference: first-seen group order over selected rows,
    // null keys grouped together, serial row-order accumulation.
    struct Group {
      Value key;
      int64_t n = 0;
      double sum_i = 0;
      size_t n_i = 0;
      double min_d = 0;
      size_t n_d = 0;
    };
    std::vector<Group> groups;
    std::unordered_map<std::string, size_t> by_key;
    ptrdiff_t null_group = -1;
    for (size_t r = 0; r < t.num_rows(); ++r) {
      if (!filter.oracle(t, r)) continue;
      Value key = t.GetValue(r, 0);
      size_t gid;
      if (key.is_null()) {
        if (null_group < 0) {
          null_group = static_cast<ptrdiff_t>(groups.size());
          groups.push_back({Value::Null()});
        }
        gid = static_cast<size_t>(null_group);
      } else {
        auto [it, inserted] = by_key.emplace(key.as_string(), groups.size());
        if (inserted) groups.push_back({key});
        gid = it->second;
      }
      Group& g = groups[gid];
      ++g.n;
      if (Value vi = t.GetValue(r, 2); !vi.is_null()) {
        g.sum_i += static_cast<double>(vi.as_int());
        ++g.n_i;
      }
      if (Value vd = t.GetValue(r, 3); !vd.is_null()) {
        g.min_d = g.n_d == 0 ? vd.as_double() : std::min(g.min_d, vd.as_double());
        ++g.n_d;
      }
    }
    ASSERT_EQ(fused->num_rows(), groups.size()) << "seed " << seed;
    for (size_t g = 0; g < groups.size(); ++g) {
      ASSERT_EQ(fused->GetValue(g, 0), groups[g].key) << "seed " << seed;
      ASSERT_EQ(fused->GetValue(g, 1), Value::Int(groups[g].n))
          << "seed " << seed;
      ASSERT_EQ(fused->GetValue(g, 2), groups[g].n_i == 0
                                           ? Value::Null()
                                           : Value::Real(groups[g].sum_i))
          << "seed " << seed;
      ASSERT_EQ(fused->GetValue(g, 3), groups[g].n_d == 0
                                           ? Value::Null()
                                           : Value::Real(groups[g].min_d))
          << "seed " << seed;
    }
    // The fused pass must also equal the unfused eager pipeline.
    Table eager = GroupByAggregate(Filter(t, filter.oracle), "s", aggs);
    ExpectTablesIdentical(fused.value(), eager, seed,
                          "fused vs eager group-by");
  }
}

}  // namespace
}  // namespace culinary::df
