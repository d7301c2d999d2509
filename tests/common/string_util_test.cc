#include "common/string_util.h"

#include <gtest/gtest.h>

namespace culinary {
namespace {

/// Copies out the parts `SplitParts` yields.
std::vector<std::string> Split(std::string_view input, char sep) {
  std::vector<std::string> out;
  for (std::string_view part : SplitParts(input, sep)) out.emplace_back(part);
  return out;
}

TEST(SplitTest, BasicSplit) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(SplitTest, KeepsEmptyFields) {
  EXPECT_EQ(Split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split(",a,", ','), (std::vector<std::string>{"", "a", ""}));
}

TEST(SplitTest, EmptyInputYieldsOneEmptyField) {
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(SplitTest, NoSeparatorYieldsWholeInput) {
  EXPECT_EQ(Split("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(SplitTest, PartsAreViewsIntoTheInput) {
  const std::string_view input = "ab;;c";
  std::vector<const char*> starts;
  for (std::string_view part : SplitParts(input, ';')) {
    starts.push_back(part.data());
  }
  EXPECT_EQ(starts, (std::vector<const char*>{input.data(), input.data() + 3,
                                              input.data() + 4}));
}

TEST(SplitWhitespaceTest, DropsEmptyFields) {
  EXPECT_EQ(SplitWhitespace("  a \t b\nc  "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(SplitWhitespace("   ").empty());
  EXPECT_TRUE(SplitWhitespace("").empty());
}

TEST(JoinTest, JoinsWithSeparator) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({"x"}, ","), "x");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(SplitJoinTest, RoundTrips) {
  std::string input = "one;two;three";
  EXPECT_EQ(Join(Split(input, ';'), ";"), input);
}

TEST(TrimTest, RemovesSurroundingWhitespace) {
  EXPECT_EQ(Trim("  hi  "), "hi");
  EXPECT_EQ(Trim("\t\nhi"), "hi");
  EXPECT_EQ(Trim("hi"), "hi");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
}

TEST(CaseTest, ToLowerUpper) {
  EXPECT_EQ(ToLower("HeLLo 123!"), "hello 123!");
  EXPECT_EQ(ToUpper("HeLLo 123!"), "HELLO 123!");
}

TEST(PredicateTest, StartsEndsContains) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("foobar", "bar"));
  EXPECT_TRUE(StartsWith("x", ""));
  EXPECT_TRUE(EndsWith("foobar", "bar"));
  EXPECT_FALSE(EndsWith("foobar", "foo"));
  EXPECT_TRUE(Contains("foobar", "oba"));
  EXPECT_FALSE(Contains("foobar", "xyz"));
  EXPECT_FALSE(StartsWith("ab", "abc"));
}

TEST(ReplaceAllTest, ReplacesEveryOccurrence) {
  EXPECT_EQ(ReplaceAll("a-b-c", "-", "+"), "a+b+c");
  EXPECT_EQ(ReplaceAll("aaa", "aa", "b"), "ba");  // non-overlapping
  EXPECT_EQ(ReplaceAll("abc", "", "x"), "abc");   // empty from is a no-op
  EXPECT_EQ(ReplaceAll("abc", "d", "x"), "abc");
}

TEST(IsDigitsTest, Basic) {
  EXPECT_TRUE(IsDigits("0123"));
  EXPECT_FALSE(IsDigits(""));
  EXPECT_FALSE(IsDigits("12a"));
  EXPECT_FALSE(IsDigits("-12"));
}

TEST(FormatDoubleTest, FixedPrecision) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(1.0, 3), "1.000");
  EXPECT_EQ(FormatDouble(-0.5, 1), "-0.5");
}

TEST(PadTest, PadsToWidth) {
  EXPECT_EQ(PadRight("ab", 4), "ab  ");
  EXPECT_EQ(PadLeft("ab", 4), "  ab");
  EXPECT_EQ(PadRight("abcd", 2), "abcd");  // no truncation
  EXPECT_EQ(PadLeft("abcd", 2), "abcd");
}

}  // namespace
}  // namespace culinary
