#include "dataframe/table.h"

#include <gtest/gtest.h>

namespace culinary::df {
namespace {

Table MakeSample() {
  Schema schema({{"name", DataType::kString},
                 {"count", DataType::kInt64},
                 {"score", DataType::kDouble}});
  auto table = Table::Make(schema);
  EXPECT_TRUE(table.ok());
  EXPECT_TRUE(table->AppendRow({Value::Str("a"), Value::Int(1),
                                Value::Real(0.5)})
                  .ok());
  EXPECT_TRUE(table->AppendRow({Value::Str("b"), Value::Int(2), Value::Null()})
                  .ok());
  return std::move(*table);
}

TEST(TableTest, MakeEmptySchemaFails) {
  EXPECT_FALSE(Table::Make(Schema(std::vector<Field>{})).ok());
}

TEST(TableTest, MakeDuplicateFieldFails) {
  auto r = Table::Make(
      Schema({{"a", DataType::kInt64}, {"a", DataType::kString}}));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST(TableTest, MakeFromColumnsValidates) {
  Schema schema({{"a", DataType::kInt64}});
  auto col = std::make_shared<Int64Column>();
  col->Append(1);
  auto ok = Table::Make(schema, {col});
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->num_rows(), 1u);

  // Type mismatch.
  auto bad_type = Table::Make(schema, {std::make_shared<StringColumn>()});
  EXPECT_FALSE(bad_type.ok());

  // Count mismatch.
  auto bad_count = Table::Make(schema, {col, col});
  EXPECT_FALSE(bad_count.ok());

  // Unequal lengths.
  Schema two({{"a", DataType::kInt64}, {"b", DataType::kInt64}});
  auto empty = std::make_shared<Int64Column>();
  EXPECT_FALSE(Table::Make(two, {col, empty}).ok());

  // Null pointer.
  EXPECT_FALSE(Table::Make(schema, {nullptr}).ok());
}

TEST(TableTest, AppendRowAndRead) {
  Table t = MakeSample();
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.num_columns(), 3u);
  EXPECT_EQ(t.GetValue(0, 0), Value::Str("a"));
  EXPECT_EQ(t.GetValue(1, 1), Value::Int(2));
  EXPECT_EQ(t.GetValue(1, 2), Value::Null());
}

TEST(TableTest, AppendRowWrongArity) {
  Table t = MakeSample();
  EXPECT_TRUE(t.AppendRow({Value::Str("c")}).IsInvalidArgument());
  EXPECT_EQ(t.num_rows(), 2u);  // unchanged
}

TEST(TableTest, AppendRowWrongTypeLeavesTableUnchanged) {
  Table t = MakeSample();
  Status s = t.AppendRow({Value::Int(3), Value::Int(3), Value::Real(1.0)});
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(t.num_rows(), 2u);
  for (size_t c = 0; c < t.num_columns(); ++c) {
    EXPECT_EQ(t.column(c)->size(), 2u);
  }
}

TEST(TableTest, AppendRowWidensIntToDouble) {
  Table t = MakeSample();
  EXPECT_TRUE(
      t.AppendRow({Value::Str("c"), Value::Int(3), Value::Int(7)}).ok());
  EXPECT_EQ(t.GetValue(2, 2), Value::Real(7.0));
}

TEST(TableTest, SharedColumnsAreCheap) {
  Table t = MakeSample();
  Table copy = t;  // columns shared by shared_ptr
  EXPECT_EQ(copy.num_rows(), t.num_rows());
  EXPECT_EQ(copy.column(0).get(), t.column(0).get());
}

}  // namespace
}  // namespace culinary::df
