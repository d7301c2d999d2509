#include "text/edit_distance.h"

#include <string>

#include <gtest/gtest.h>

namespace culinary::text {
namespace {

TEST(LevenshteinTest, IdenticalStringsZero) {
  EXPECT_EQ(LevenshteinDistance("tomato", "tomato"), 0u);
  EXPECT_EQ(LevenshteinDistance("", ""), 0u);
}

TEST(LevenshteinTest, EmptyVersusNonEmpty) {
  EXPECT_EQ(LevenshteinDistance("", "abc"), 3u);
  EXPECT_EQ(LevenshteinDistance("abc", ""), 3u);
}

TEST(LevenshteinTest, SingleEdits) {
  EXPECT_EQ(LevenshteinDistance("whiskey", "whisky"), 1u);   // deletion
  EXPECT_EQ(LevenshteinDistance("chili", "chile"), 1u);      // substitution
  EXPECT_EQ(LevenshteinDistance("tomato", "tomatoe"), 1u);   // insertion
}

TEST(LevenshteinTest, TranspositionCostsTwo) {
  EXPECT_EQ(LevenshteinDistance("ab", "ba"), 2u);
}

TEST(LevenshteinTest, Symmetry) {
  EXPECT_EQ(LevenshteinDistance("kitten", "sitting"),
            LevenshteinDistance("sitting", "kitten"));
  EXPECT_EQ(LevenshteinDistance("kitten", "sitting"), 3u);
}

TEST(DamerauTest, TranspositionCostsOne) {
  EXPECT_EQ(DamerauLevenshteinDistance("ab", "ba"), 1u);
  EXPECT_EQ(DamerauLevenshteinDistance("recieve", "receive"), 1u);
}

TEST(DamerauTest, MatchesLevenshteinWithoutTranspositions) {
  EXPECT_EQ(DamerauLevenshteinDistance("whiskey", "whisky"), 1u);
  EXPECT_EQ(DamerauLevenshteinDistance("kitten", "sitting"), 3u);
}

TEST(DamerauTest, EmptyInputs) {
  EXPECT_EQ(DamerauLevenshteinDistance("", "ab"), 2u);
  EXPECT_EQ(DamerauLevenshteinDistance("ab", ""), 2u);
}

/// Property sweep: triangle inequality over a small dictionary. The words
/// are std::string so each case prints (and is named) by its text rather
/// than by a pointer address.
class TriangleInequalityTest
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {
};

TEST_P(TriangleInequalityTest, HoldsViaPivot) {
  const std::string& a = std::get<0>(GetParam());
  const std::string& b = std::get<1>(GetParam());
  const char* pivot = "tomato";
  EXPECT_LE(LevenshteinDistance(a, b),
            LevenshteinDistance(a, pivot) + LevenshteinDistance(pivot, b));
}

INSTANTIATE_TEST_SUITE_P(
    DictionaryPairs, TriangleInequalityTest,
    ::testing::Combine(::testing::Values("tomato", "potato", "tamale",
                                         "basil", ""),
                       ::testing::Values("oregano", "tomatoes", "tom", "x")));

TEST(JaroTest, BoundsAndIdentity) {
  EXPECT_EQ(JaroSimilarity("abc", "abc"), 1.0);
  EXPECT_EQ(JaroSimilarity("", ""), 1.0);
  EXPECT_EQ(JaroSimilarity("abc", ""), 0.0);
  EXPECT_EQ(JaroSimilarity("abc", "xyz"), 0.0);
}

TEST(JaroTest, KnownValue) {
  // Classic example: MARTHA vs MARHTA = 0.944...
  EXPECT_NEAR(JaroSimilarity("martha", "marhta"), 0.9444, 1e-3);
}

TEST(JaroWinklerTest, PrefixBoost) {
  double jaro = JaroSimilarity("whiskey", "whisky");
  double jw = JaroWinklerSimilarity("whiskey", "whisky");
  EXPECT_GT(jw, jaro);
  EXPECT_LE(jw, 1.0);
}

TEST(JaroWinklerTest, KnownValue) {
  EXPECT_NEAR(JaroWinklerSimilarity("martha", "marhta"), 0.9611, 1e-3);
}

TEST(WithinEditDistanceTest, BudgetRespected) {
  EXPECT_TRUE(WithinEditDistance("whiskey", "whisky", 1));
  EXPECT_FALSE(WithinEditDistance("whiskey", "vodka", 2));
  EXPECT_TRUE(WithinEditDistance("same", "same", 0));
}

TEST(WithinEditDistanceTest, LengthGapFastPath) {
  EXPECT_FALSE(WithinEditDistance("ab", "abcdef", 2));
}

}  // namespace
}  // namespace culinary::text
