#include "dataframe/column.h"

#include <gtest/gtest.h>

namespace culinary::df {
namespace {

TEST(Int64ColumnTest, AppendAndRead) {
  Int64Column col;
  col.Append(1);
  col.Append(2);
  col.AppendNull();
  EXPECT_EQ(col.size(), 3u);
  EXPECT_EQ(col.null_count(), 1u);
  EXPECT_FALSE(col.IsNull(0));
  EXPECT_TRUE(col.IsNull(2));
  EXPECT_EQ(col.at(1), 2);
  EXPECT_EQ(col.GetValue(0), Value::Int(1));
  EXPECT_EQ(col.GetValue(2), Value::Null());
}

TEST(Int64ColumnTest, AppendValueTypeChecks) {
  Int64Column col;
  EXPECT_TRUE(col.AppendValue(Value::Int(3)).ok());
  EXPECT_TRUE(col.AppendValue(Value::Null()).ok());
  EXPECT_TRUE(col.AppendValue(Value::Str("x")).IsInvalidArgument());
  EXPECT_TRUE(col.AppendValue(Value::Real(1.0)).IsInvalidArgument());
  EXPECT_EQ(col.size(), 2u);
}

TEST(DoubleColumnTest, IntWidensToDouble) {
  DoubleColumn col;
  EXPECT_TRUE(col.AppendValue(Value::Int(3)).ok());
  EXPECT_TRUE(col.AppendValue(Value::Real(1.5)).ok());
  EXPECT_EQ(col.GetValue(0), Value::Real(3.0));
  EXPECT_EQ(col.at(1), 1.5);
  EXPECT_TRUE(col.AppendValue(Value::Str("x")).IsInvalidArgument());
}

TEST(StringColumnTest, DictionaryEncoding) {
  StringColumn col;
  col.Append("apple");
  col.Append("banana");
  col.Append("apple");
  col.Append("apple");
  EXPECT_EQ(col.size(), 4u);
  EXPECT_EQ(col.dictionary_size(), 2u);
  EXPECT_EQ(col.at(0), "apple");
  EXPECT_EQ(col.at(2), "apple");
  EXPECT_EQ(col.code_at(0), col.code_at(2));
  EXPECT_NE(col.code_at(0), col.code_at(1));
}

TEST(StringColumnTest, NullHandling) {
  StringColumn col;
  col.Append("x");
  col.AppendNull();
  EXPECT_TRUE(col.IsNull(1));
  EXPECT_EQ(col.GetValue(1), Value::Null());
  EXPECT_EQ(col.null_count(), 1u);
}

TEST(MakeColumnTest, CreatesMatchingType) {
  EXPECT_EQ(MakeColumn(DataType::kInt64)->type(), DataType::kInt64);
  EXPECT_EQ(MakeColumn(DataType::kDouble)->type(), DataType::kDouble);
  EXPECT_EQ(MakeColumn(DataType::kString)->type(), DataType::kString);
}

}  // namespace
}  // namespace culinary::df
