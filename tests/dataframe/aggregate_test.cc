// The fused where-aggregates of aggregate.h: the dictionary-code mask
// kernel against a per-row reference, null handling, filter values absent
// from the dictionary, selections crossing uint64 word boundaries, empty
// selections and tables, the shapes the terminals reject, and group-by
// over a sample table.

#include "dataframe/aggregate.h"

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace culinary::df {
namespace {

// --- CompareCodeEq -----------------------------------------------------------

constexpr uint64_t kGarbage = 0xDEADBEEFDEADBEEFull;

std::vector<uint64_t> GarbageMask(size_t rows) {
  return std::vector<uint64_t>((rows + 63) / 64, kGarbage);
}

/// Random codes in [-1, kCardinality): -1 is the null sentinel the
/// dictionary column stores for null rows, so it is a first-class input.
std::vector<int32_t> RandomCodes(size_t rows, uint64_t seed) {
  constexpr uint64_t kCardinality = 5;
  culinary::Rng rng(seed);
  std::vector<int32_t> codes(rows);
  for (size_t i = 0; i < rows; ++i) {
    codes[i] = static_cast<int32_t>(rng.NextBounded(kCardinality + 1)) - 1;
  }
  return codes;
}

/// The mask CompareCodeEq must produce, one row at a time; bits past the
/// last row are zero.
std::vector<uint64_t> ReferenceMask(const std::vector<int32_t>& codes,
                                    int32_t code) {
  std::vector<uint64_t> mask((codes.size() + 63) / 64, 0);
  for (size_t i = 0; i < codes.size(); ++i) {
    if (codes[i] == code) mask[i / 64] |= uint64_t{1} << (i % 64);
  }
  return mask;
}

/// The kernel overwrites a garbage-filled mask to match the per-row
/// reference word for word, tail bits included.
void CheckMatchesReference(const std::vector<int32_t>& codes, int32_t code) {
  std::vector<uint64_t> mask = GarbageMask(codes.size());
  CompareCodeEq(codes.data(), code, codes.size(), mask.data());
  EXPECT_EQ(mask, ReferenceMask(codes, code))
      << "rows=" << codes.size() << " code=" << code;
}

TEST(CompareCodeEqTest, WordBoundarySizes) {
  // 63/64/65 straddle the one-word boundary between the full-word loop and
  // the sub-word tail; the larger sizes span many words.
  for (const size_t rows : {size_t{1}, size_t{7}, size_t{63}, size_t{64},
                            size_t{65}, size_t{128}, size_t{1000},
                            size_t{4096}, size_t{4161}}) {
    const std::vector<int32_t> codes = RandomCodes(rows, /*seed=*/rows + 1);
    for (const int32_t code : {-1, 0, 2, 99}) {
      CheckMatchesReference(codes, code);
    }
  }
}

TEST(CompareCodeEqTest, AllNullBlocks) {
  // A fully-null run (every code -1): -1 selects everything and a real
  // code selects nothing.
  for (const size_t rows : {size_t{63}, size_t{64}, size_t{65}, size_t{640}}) {
    const std::vector<int32_t> codes(rows, -1);
    for (const int32_t code : {-1, 0, 3}) {
      CheckMatchesReference(codes, code);
    }
    // Spot-check the absolute values, not just reference agreement.
    std::vector<uint64_t> mask = GarbageMask(rows);
    CompareCodeEq(codes.data(), -1, rows, mask.data());
    size_t set_bits = 0;
    for (uint64_t w : mask) set_bits += static_cast<size_t>(__builtin_popcountll(w));
    EXPECT_EQ(set_bits, rows);
    CompareCodeEq(codes.data(), 7, rows, mask.data());
    for (uint64_t w : mask) EXPECT_EQ(w, 0u);
  }
}

// --- AggregateWhere / GroupByAggregateWhere ----------------------------------

/// One (key:string, x:int64, tag:string) row; an empty key or tag is a null
/// cell and x < 0 a null x.
struct Row {
  std::string key;
  int64_t x;
  std::string tag;
};

Table MakeTable(const std::vector<Row>& rows) {
  auto table = Table::Make(Schema({{"key", DataType::kString},
                                   {"x", DataType::kInt64},
                                   {"tag", DataType::kString}}));
  EXPECT_TRUE(table.ok());
  auto str = [](const std::string& s) {
    return s.empty() ? Value::Null() : Value::Str(s);
  };
  for (const Row& row : rows) {
    EXPECT_TRUE(table
                    ->AppendRow({str(row.key),
                                 row.x < 0 ? Value::Null() : Value::Int(row.x),
                                 str(row.tag)})
                    .ok());
  }
  return std::move(table).value();
}

TEST(ExprTest, AllNullColumn) {
  // Numeric aggregates over an all-null column are Null, but kCount counts
  // the selected rows regardless of cell validity.
  Table t = MakeTable({{"a", -1, "t"}, {"a", -1, "t"}, {"a", -1, "t"}});
  auto sum = AggregateWhere(t, AggKind::kSum, "x", {"key", "a"});
  ASSERT_TRUE(sum.ok());
  EXPECT_TRUE(sum.value().is_null());
  auto count = AggregateWhere(t, AggKind::kCount, "x", {"key", "a"});
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value(), Value::Int(3));
  // An all-null filter column selects nothing.
  Table untagged = MakeTable({{"a", 1, ""}, {"b", 2, ""}});
  auto none = AggregateWhere(untagged, AggKind::kCount, "", {"tag", "t"});
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none.value(), Value::Int(0));
}

TEST(ExprTest, EmptySelectionAndEmptyTable) {
  Table t = MakeTable({{"a", 1, "t"}, {"b", 2, "t"}});
  auto mean = AggregateWhere(t, AggKind::kMean, "x", {"key", "zebra"});
  ASSERT_TRUE(mean.ok());
  EXPECT_TRUE(mean.value().is_null());
  auto grouped = GroupByAggregateWhere(t, "key", {{AggKind::kCount, "", "n"}},
                                       {"key", "zebra"});
  ASSERT_TRUE(grouped.ok());
  EXPECT_EQ(grouped->num_rows(), 0u);
  EXPECT_EQ(grouped->schema(), Schema({{"key", DataType::kString},
                                       {"n", DataType::kInt64}}));

  Table empty = MakeTable({});
  auto count = AggregateWhere(empty, AggKind::kCount, "", {"key", "a"});
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value(), Value::Int(0));
  auto empty_grouped = GroupByAggregateWhere(
      empty, "key", {{AggKind::kCount, "", "n"}}, {"tag", "t"});
  ASSERT_TRUE(empty_grouped.ok());
  EXPECT_EQ(empty_grouped->num_rows(), 0u);
}

TEST(ExprTest, SelectionsCrossWordBoundaries) {
  // Sizes straddling the packed-uint64 boundaries: partial word, exactly one
  // word, one word plus one row, the two-word edges and 4096 rows.
  for (size_t rows : {63u, 64u, 65u, 127u, 128u, 129u, 4096u, 4097u}) {
    std::vector<Row> values;
    for (size_t i = 0; i < rows; ++i) {
      values.push_back(
          {i < rows / 2 ? "lo" : "hi", static_cast<int64_t>(i), "t"});
    }
    Table t = MakeTable(values);
    // "hi" is precisely the back half, crossing every word boundary.
    auto hi = AggregateWhere(t, AggKind::kCount, "", {"key", "hi"});
    auto lo = AggregateWhere(t, AggKind::kCount, "", {"key", "lo"});
    ASSERT_TRUE(hi.ok() && lo.ok()) << rows;
    EXPECT_EQ(hi.value(), Value::Int(static_cast<int64_t>(rows - rows / 2)))
        << rows;
    // The two values partition the rows exactly.
    EXPECT_EQ(hi->as_int() + lo->as_int(), static_cast<int64_t>(rows)) << rows;
    double sum = 0.0;
    for (size_t i = rows / 2; i < rows; ++i) sum += static_cast<double>(i);
    EXPECT_EQ(AggregateWhere(t, AggKind::kSum, "x", {"key", "hi"}).value(),
              Value::Real(sum))
        << rows;
    EXPECT_EQ(AggregateWhere(t, AggKind::kMin, "x", {"key", "hi"}).value(),
              Value::Real(static_cast<double>(rows / 2)))
        << rows;
    EXPECT_EQ(AggregateWhere(t, AggKind::kMax, "x", {"key", "hi"}).value(),
              Value::Real(static_cast<double>(rows - 1)))
        << rows;
  }
}

TEST(ExprTest, AbsentDictionaryLiteralIsConstantFalse) {
  Table t = MakeTable({{"a", 1, "t"}, {"", 2, "t"}, {"b", 3, "t"},
                       {"a", 4, "t"}});
  auto absent = AggregateWhere(t, AggKind::kCount, "", {"key", "zebra"});
  ASSERT_TRUE(absent.ok());
  EXPECT_EQ(absent.value(), Value::Int(0));
  auto sum = AggregateWhere(t, AggKind::kSum, "x", {"key", "zebra"});
  ASSERT_TRUE(sum.ok());
  EXPECT_TRUE(sum.value().is_null());
  // A present value selects its rows; the null row never matches.
  auto a = AggregateWhere(t, AggKind::kCount, "", {"key", "a"});
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a.value(), Value::Int(2));
}

TEST(ExprTest, UnknownColumnIsNotFound) {
  Table t = MakeTable({{"a", 1, "t"}});
  EXPECT_TRUE(AggregateWhere(t, AggKind::kSum, "x", {"nope", "a"})
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(AggregateWhere(t, AggKind::kSum, "nope", {"key", "a"})
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(GroupByAggregateWhere(t, "nope", {{AggKind::kCount, "", "n"}},
                                    {"tag", "t"})
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(GroupByAggregateWhere(t, "key", {{AggKind::kSum, "nope", "s"}},
                                    {"tag", "t"})
                  .status()
                  .IsNotFound());
}

TEST(ExprTest, GroupByAggregateWhereMirrorsEagerSemantics) {
  // Nulls in the key, the aggregated and the filter column: null keys group
  // together, kCount counts all group rows, numeric aggregates skip null
  // cells, groups appear in first-seen selected-row order, and rows whose
  // filter cell is null or another value are left out.
  Table t = MakeTable({{"b", 4, "t"}, {"a", 1, "t"}, {"", 10, "t"},
                       {"a", -1, "t"}, {"", -1, "t"}, {"b", 6, "t"},
                       {"a", 3, "t"}, {"c", 5, ""}, {"a", 100, "u"}});
  auto grouped = GroupByAggregateWhere(
      t, "key",
      {{AggKind::kCount, "", "n"}, {AggKind::kSum, "x", "sum"},
       {AggKind::kMin, "x", "min"}},
      {"tag", "t"});
  ASSERT_TRUE(grouped.ok());
  ASSERT_EQ(grouped->num_rows(), 3u);
  // First-seen order: b, a, null.
  EXPECT_EQ(grouped->GetValue(0, 0), Value::Str("b"));
  EXPECT_EQ(grouped->GetValue(0, 1), Value::Int(2));
  EXPECT_EQ(grouped->GetValue(0, 2), Value::Real(10.0));
  EXPECT_EQ(grouped->GetValue(1, 0), Value::Str("a"));
  EXPECT_EQ(grouped->GetValue(1, 1), Value::Int(3));  // includes null-x row
  EXPECT_EQ(grouped->GetValue(1, 2), Value::Real(4.0));
  EXPECT_EQ(grouped->GetValue(1, 3), Value::Real(1.0));
  EXPECT_TRUE(grouped->GetValue(2, 0).is_null());
  EXPECT_EQ(grouped->GetValue(2, 1), Value::Int(2));
  EXPECT_EQ(grouped->GetValue(2, 2), Value::Real(10.0));
}

TEST(ExprTest, UnsupportedShapesAreRejected) {
  Table t = MakeTable({{"a", 1, "t"}});
  // Numeric aggregates need a numeric column.
  EXPECT_TRUE(AggregateWhere(t, AggKind::kSum, "key", {"tag", "t"})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(GroupByAggregateWhere(t, "tag", {{AggKind::kMean, "key", "m"}},
                                    {"tag", "t"})
                  .status()
                  .IsInvalidArgument());
  // Group keys and filters are string columns.
  EXPECT_TRUE(GroupByAggregateWhere(t, "x", {{AggKind::kCount, "", "n"}},
                                    {"tag", "t"})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(AggregateWhere(t, AggKind::kCount, "", {"x", "1"})
                  .status()
                  .IsInvalidArgument());
}

/// region, ingredient, count sample; every row is tagged "all" so a filter
/// on `all` keeps the whole table.
Table MakeSample() {
  auto t = Table::Make(Schema({{"region", DataType::kString},
                               {"ingredient", DataType::kString},
                               {"count", DataType::kInt64},
                               {"all", DataType::kString}}));
  EXPECT_TRUE(t.ok());
  const std::tuple<const char*, const char*, int64_t> kRows[] = {
      {"ITA", "tomato", 5}, {"ITA", "basil", 3}, {"JPN", "rice", 9},
      {"JPN", "tomato", 1}, {"ITA", "tomato", 2}};
  for (const auto& [region, ingredient, count] : kRows) {
    EXPECT_TRUE(t->AppendRow({Value::Str(region), Value::Str(ingredient),
                              Value::Int(count), Value::Str("y")})
                    .ok());
  }
  return std::move(*t);
}

TEST(GroupByTest, CountSumMeanMinMax) {
  auto r = GroupByAggregateWhere(MakeSample(), "region",
                                 {{AggKind::kCount, "", "n"},
                                  {AggKind::kSum, "count", "total"},
                                  {AggKind::kMean, "count", "avg"},
                                  {AggKind::kMin, "count", "lo"},
                                  {AggKind::kMax, "count", "hi"}},
                                 {"all", "y"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 2u);  // ITA, JPN in first-seen order
  EXPECT_EQ(r->GetValue(0, 0), Value::Str("ITA"));
  EXPECT_EQ(r->GetValue(0, 1), Value::Int(3));
  EXPECT_EQ(r->GetValue(0, 2), Value::Real(10.0));
  EXPECT_EQ(r->GetValue(0, 3), Value::Real(10.0 / 3));
  EXPECT_EQ(r->GetValue(0, 4), Value::Real(2.0));
  EXPECT_EQ(r->GetValue(0, 5), Value::Real(5.0));
  EXPECT_EQ(r->GetValue(1, 1), Value::Int(2));
}

TEST(GroupByTest, StringAggregationRejected) {
  auto r = GroupByAggregateWhere(MakeSample(), "region",
                                 {{AggKind::kSum, "ingredient", "x"}},
                                 {"all", "y"});
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST(GroupByTest, NullKeysGroupTogether) {
  const Table t = MakeTable({{"", 1, "y"}, {"", 2, "y"}, {"x", 3, "y"}});
  auto r = GroupByAggregateWhere(t, "key", {{AggKind::kCount, "", "n"}},
                                 {"tag", "y"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 2u);
  EXPECT_EQ(r->GetValue(0, 1), Value::Int(2));
}

TEST(GroupByTest, AggregateOverAllNullColumnIsNull) {
  // Group "a" has only null values in x; its mean is null.
  const Table t = MakeTable({{"a", -1, "y"}, {"a", -1, "y"}, {"b", 1, "y"}});
  auto r = GroupByAggregateWhere(t, "key", {{AggKind::kMean, "x", "m"}},
                                 {"tag", "y"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->GetValue(0, 1), Value::Null());
  EXPECT_EQ(r->GetValue(1, 1), Value::Real(1.0));
}

}  // namespace
}  // namespace culinary::df
