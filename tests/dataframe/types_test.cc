#include "dataframe/types.h"

#include <gtest/gtest.h>

namespace culinary::df {
namespace {

TEST(DataTypeTest, Names) {
  EXPECT_EQ(DataTypeToString(DataType::kInt64), "int64");
  EXPECT_EQ(DataTypeToString(DataType::kDouble), "double");
  EXPECT_EQ(DataTypeToString(DataType::kString), "string");
}

TEST(SchemaTest, FieldLookup) {
  Schema schema({{"a", DataType::kInt64}, {"b", DataType::kString}});
  EXPECT_EQ(schema.num_fields(), 2u);
  ASSERT_TRUE(schema.FieldIndex("b").has_value());
  EXPECT_EQ(*schema.FieldIndex("b"), 1u);
  EXPECT_FALSE(schema.FieldIndex("c").has_value());
}

TEST(SchemaTest, ToString) {
  Schema schema({{"x", DataType::kDouble}});
  EXPECT_EQ(schema.ToString(), "x:double");
}

TEST(SchemaTest, Equality) {
  Schema a({{"x", DataType::kInt64}});
  Schema b({{"x", DataType::kInt64}});
  Schema c({{"x", DataType::kDouble}});
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

TEST(ValueTest, NullValue) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_FALSE(v.is_int());
  EXPECT_EQ(v.ToString(), "null");
  EXPECT_FALSE(v.AsNumeric().has_value());
  EXPECT_EQ(v, Value::Null());
}

TEST(ValueTest, IntValue) {
  Value v = Value::Int(-7);
  EXPECT_TRUE(v.is_int());
  EXPECT_EQ(v.as_int(), -7);
  EXPECT_EQ(v.ToString(), "-7");
  ASSERT_TRUE(v.AsNumeric().has_value());
  EXPECT_EQ(*v.AsNumeric(), -7.0);
}

TEST(ValueTest, DoubleValue) {
  Value v = Value::Real(2.5);
  EXPECT_TRUE(v.is_double());
  EXPECT_EQ(v.as_double(), 2.5);
  EXPECT_EQ(v.ToString(), "2.5");
  EXPECT_EQ(*v.AsNumeric(), 2.5);
}

TEST(ValueTest, StringValue) {
  Value v = Value::Str("abc");
  EXPECT_TRUE(v.is_string());
  EXPECT_EQ(v.as_string(), "abc");
  EXPECT_EQ(v.ToString(), "abc");
  EXPECT_FALSE(v.AsNumeric().has_value());
}

TEST(ValueTest, EqualityIsRepresentational) {
  EXPECT_EQ(Value::Int(1), Value::Int(1));
  EXPECT_NE(Value::Int(1), Value::Real(1.0));  // exact representation
  EXPECT_NE(Value::Str("1"), Value::Int(1));
  EXPECT_NE(Value::Null(), Value::Int(0));
}

TEST(ValueTest, DoubleToStringTrimsZeros) {
  EXPECT_EQ(Value::Real(1.0).ToString(), "1.0");
  EXPECT_EQ(Value::Real(0.25).ToString(), "0.25");
}

}  // namespace
}  // namespace culinary::df
