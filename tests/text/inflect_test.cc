#include "text/inflect.h"

#include <ostream>

#include <gtest/gtest.h>

namespace culinary::text {
namespace {

struct SingularCase {
  const char* plural;
  const char* singular;
};

// Cases print as their words, so the ctest names gtest_discover_tests
// derives from them stay the same from one build to the next (the default
// printer dumps the struct's pointer bytes).
void PrintTo(const SingularCase& c, std::ostream* os) {
  *os << '"' << c.plural << "\" -> \"" << c.singular << '"';
}

class SingularizeTest : public ::testing::TestWithParam<SingularCase> {};

TEST_P(SingularizeTest, ProducesExpectedSingular) {
  EXPECT_EQ(Singularize(GetParam().plural), GetParam().singular);
}

INSTANTIATE_TEST_SUITE_P(
    RegularRules, SingularizeTest,
    ::testing::Values(SingularCase{"peppers", "pepper"},
                      SingularCase{"eggs", "egg"},
                      SingularCase{"onions", "onion"},
                      SingularCase{"carrots", "carrot"},
                      SingularCase{"berries", "berry"},
                      SingularCase{"cherries", "cherry"},
                      SingularCase{"peaches", "peach"},
                      SingularCase{"radishes", "radish"},
                      SingularCase{"boxes", "box"},
                      SingularCase{"glasses", "glass"}));

INSTANTIATE_TEST_SUITE_P(
    IrregularsAndInvariants, SingularizeTest,
    ::testing::Values(SingularCase{"leaves", "leaf"},
                      SingularCase{"loaves", "loaf"},
                      SingularCase{"halves", "half"},
                      SingularCase{"potatoes", "potato"},
                      SingularCase{"tomatoes", "tomato"},
                      SingularCase{"children", "child"},
                      SingularCase{"molasses", "molasses"},
                      SingularCase{"hummus", "hummus"},
                      SingularCase{"asparagus", "asparagus"},
                      SingularCase{"couscous", "couscous"},
                      SingularCase{"fish", "fish"},
                      SingularCase{"shrimp", "shrimp"},
                      SingularCase{"rice", "rice"},
                      SingularCase{"olives", "olive"},
                      SingularCase{"cress", "cress"}));

TEST(SingularizeFnTest, AlreadySingularUnchanged) {
  EXPECT_EQ(Singularize("tomato"), "tomato");
  EXPECT_EQ(Singularize("basil"), "basil");
  EXPECT_EQ(Singularize("garlic"), "garlic");
}

TEST(SingularizeFnTest, ShortWordsUnchanged) {
  EXPECT_EQ(Singularize("is"), "is");
  EXPECT_EQ(Singularize("as"), "as");
  EXPECT_EQ(Singularize(""), "");
}

TEST(SingularizeFnTest, LowercasesInput) {
  EXPECT_EQ(Singularize("Peppers"), "pepper");
  EXPECT_EQ(Singularize("TOMATOES"), "tomato");
}

TEST(SingularizeAllTest, MapsEveryToken) {
  EXPECT_EQ(SingularizeAll({"jalapeno", "peppers"}),
            (std::vector<std::string>{"jalapeno", "pepper"}));
}

struct PluralCase {
  const char* singular;
  const char* plural;
};

void PrintTo(const PluralCase& c, std::ostream* os) {
  *os << '"' << c.singular << "\" -> \"" << c.plural << '"';
}

class PluralizeTest : public ::testing::TestWithParam<PluralCase> {};

TEST_P(PluralizeTest, ProducesExpectedPlural) {
  EXPECT_EQ(Pluralize(GetParam().singular), GetParam().plural);
}

INSTANTIATE_TEST_SUITE_P(
    Basic, PluralizeTest,
    ::testing::Values(PluralCase{"pepper", "peppers"},
                      PluralCase{"berry", "berries"},
                      PluralCase{"peach", "peaches"},
                      PluralCase{"box", "boxes"},
                      PluralCase{"potato", "potatoes"},
                      PluralCase{"leaf", "leaves"},
                      PluralCase{"half", "halves"},
                      PluralCase{"fish", "fish"},
                      PluralCase{"rice", "rice"}));

/// Property: pluralize then singularize returns the original for common
/// culinary nouns.
class RoundTripTest : public ::testing::TestWithParam<const char*> {};

TEST_P(RoundTripTest, SingularizeInvertsPluralize) {
  std::string word = GetParam();
  EXPECT_EQ(Singularize(Pluralize(word)), word);
}

INSTANTIATE_TEST_SUITE_P(
    CulinaryNouns, RoundTripTest,
    ::testing::Values("pepper", "tomato", "potato", "berry", "cherry", "leaf",
                      "peach", "radish", "egg", "onion", "carrot", "box",
                      "mango", "apple", "lemon", "clove", "walnut", "bean",
                      "mushroom", "noodle"));

}  // namespace
}  // namespace culinary::text
