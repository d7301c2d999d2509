#include "analysis/ntuple.h"

#include <gtest/gtest.h>

#include "analysis/pairing.h"

namespace culinary::analysis {
namespace {

using flavor::Category;
using flavor::FlavorProfile;
using flavor::FlavorRegistry;
using flavor::IngredientId;
using recipe::Cuisine;
using recipe::Recipe;
using recipe::Region;

class NTupleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // a,b,c all share molecule 1; a,b also share 2; c has 3 extra.
    a_ = reg_.AddIngredient("a", Category::kVegetable,
                            FlavorProfile({1, 2, 10}))
             .value();
    b_ = reg_.AddIngredient("b", Category::kHerb, FlavorProfile({1, 2, 20}))
             .value();
    c_ = reg_.AddIngredient("c", Category::kSpice, FlavorProfile({1, 3}))
             .value();
    d_ = reg_.AddIngredient("d", Category::kMeat, FlavorProfile({99}))
             .value();
  }

  Recipe MakeRecipe(std::vector<IngredientId> ids) {
    Recipe r;
    r.region = Region::kItaly;
    r.ingredients = std::move(ids);
    return r;
  }

  FlavorRegistry reg_;
  IngredientId a_, b_, c_, d_;
};

TEST_F(NTupleTest, PairOrderMatchesClassicScore) {
  // k=2 must equal the classic pairing score.
  PairingCache cache(reg_, {a_, b_, c_, d_});
  std::vector<IngredientId> recipe{a_, b_, c_};
  EXPECT_NEAR(RecipeTupleScore(reg_, recipe, 2),
              RecipePairingScore(cache, recipe), 1e-12);
}

TEST_F(NTupleTest, TripleIntersection) {
  // Only molecule 1 is shared by all of a,b,c → N_s^3 = 1 (single subset).
  EXPECT_DOUBLE_EQ(RecipeTupleScore(reg_, {a_, b_, c_}, 3), 1.0);
}

TEST_F(NTupleTest, QuadrupleWithDisjointMember) {
  // d shares nothing → every 4-subset intersection is empty.
  EXPECT_DOUBLE_EQ(RecipeTupleScore(reg_, {a_, b_, c_, d_}, 4), 0.0);
  // Triples: {a,b,c}:1, {a,b,d}:0, {a,c,d}:0, {b,c,d}:0 → mean 0.25.
  EXPECT_DOUBLE_EQ(RecipeTupleScore(reg_, {a_, b_, c_, d_}, 3), 0.25);
}

TEST_F(NTupleTest, DegenerateOrders) {
  EXPECT_EQ(RecipeTupleScore(reg_, {a_, b_}, 3), 0.0);  // too few ingredients
  EXPECT_EQ(RecipeTupleScore(reg_, {a_, b_, c_}, 1), 0.0);  // k < 2
  EXPECT_EQ(RecipeTupleScore(reg_, {}, 2), 0.0);
}

TEST_F(NTupleTest, MonotoneNonIncreasingInK) {
  // Intersections only shrink as k grows.
  std::vector<IngredientId> recipe{a_, b_, c_, d_};
  double k2 = RecipeTupleScore(reg_, recipe, 2);
  double k3 = RecipeTupleScore(reg_, recipe, 3);
  double k4 = RecipeTupleScore(reg_, recipe, 4);
  EXPECT_GE(k2, k3);
  EXPECT_GE(k3, k4);
}

TEST_F(NTupleTest, CuisineStatsSkipShortRecipes) {
  Cuisine cuisine(Region::kItaly,
                  {MakeRecipe({a_, b_, c_}), MakeRecipe({a_, b_})});
  culinary::RunningStats stats = CuisineTupleStats(reg_, cuisine, 3);
  EXPECT_EQ(stats.count(), 1);
  EXPECT_DOUBLE_EQ(stats.mean(), 1.0);
}

TEST_F(NTupleTest, CompareValidation) {
  Cuisine cuisine(Region::kItaly, {MakeRecipe({a_, b_, c_})});
  EXPECT_TRUE(CompareTupleAgainstRandom(reg_, cuisine, 1)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(CompareTupleAgainstRandom(reg_, cuisine, 9)
                  .status()
                  .IsFailedPrecondition());
}

TEST_F(NTupleTest, FewerThanTwoNullRecipesRejected) {
  // One null recipe has σ = 0, so its Z-score would read 0.
  Cuisine cuisine(Region::kItaly, {MakeRecipe({a_, b_, c_})});
  for (size_t num_null_recipes : {0, 1}) {
    EXPECT_TRUE(CompareTupleAgainstRandom(reg_, cuisine, 2, num_null_recipes)
                    .status()
                    .IsInvalidArgument())
        << num_null_recipes;
  }
  EXPECT_TRUE(CompareTupleAgainstRandom(reg_, cuisine, 2, 2).ok());
}

TEST_F(NTupleTest, CompareRunsAndIsDeterministic) {
  Cuisine cuisine(Region::kItaly,
                  {MakeRecipe({a_, b_, c_}), MakeRecipe({a_, b_, c_, d_}),
                   MakeRecipe({a_, c_, d_})});
  auto r1 = CompareTupleAgainstRandom(reg_, cuisine, 3, 2000);
  auto r2 = CompareTupleAgainstRandom(reg_, cuisine, 3, 2000);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->k, 3u);
  EXPECT_EQ(r1->null_count, 2000);
  EXPECT_EQ(r1->z_score, r2->z_score);
  EXPECT_GT(r1->real_mean, 0.0);
}

}  // namespace
}  // namespace culinary::analysis
