#include "analysis/null_models.h"

#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

namespace culinary::analysis {
namespace {

using flavor::Category;
using flavor::FlavorProfile;
using flavor::FlavorRegistry;
using flavor::IngredientId;
using recipe::Cuisine;
using recipe::Recipe;
using recipe::Region;

/// Fixture with a small structured cuisine: two "pool" ingredients sharing
/// many compounds, two "loners", distinct categories.
class NullModelsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    p1_ = reg_.AddIngredient("p1", Category::kVegetable,
                             FlavorProfile({1, 2, 3, 4, 5}))
              .value();
    p2_ = reg_.AddIngredient("p2", Category::kVegetable,
                             FlavorProfile({1, 2, 3, 4, 6}))
              .value();
    l1_ = reg_.AddIngredient("l1", Category::kMeat, FlavorProfile({10}))
              .value();
    l2_ = reg_.AddIngredient("l2", Category::kSpice, FlavorProfile({20}))
              .value();

    std::vector<Recipe> recipes;
    // Popular pair p1+p2 in most recipes.
    for (int i = 0; i < 8; ++i) recipes.push_back(MakeRecipe({p1_, p2_}));
    recipes.push_back(MakeRecipe({p1_, l1_, l2_}));
    recipes.push_back(MakeRecipe({p2_, l1_}));
    cuisine_ = std::make_unique<Cuisine>(Region::kItaly, std::move(recipes));
    cache_ = std::make_unique<PairingCache>(reg_,
                                            cuisine_->unique_ingredients());
  }

  Recipe MakeRecipe(std::vector<IngredientId> ids) {
    Recipe r;
    r.region = Region::kItaly;
    r.ingredients = std::move(ids);
    return r;
  }

  FlavorRegistry reg_;
  IngredientId p1_, p2_, l1_, l2_;
  std::unique_ptr<Cuisine> cuisine_;
  std::unique_ptr<PairingCache> cache_;
};

TEST_F(NullModelsTest, KindNames) {
  EXPECT_EQ(NullModelKindToString(NullModelKind::kRandom), "Random");
  EXPECT_EQ(NullModelKindToString(NullModelKind::kFrequency), "Frequency");
  EXPECT_EQ(NullModelKindToString(NullModelKind::kCategory), "Category");
  EXPECT_EQ(NullModelKindToString(NullModelKind::kFrequencyCategory),
            "Frequency+Category");
}

TEST_F(NullModelsTest, DegenerateCuisinesRejected) {
  Cuisine empty(Region::kKorea, {});
  EXPECT_TRUE(NullModelSampler::Make(NullModelKind::kRandom, empty, reg_)
                  .status()
                  .IsFailedPrecondition());

  Cuisine single(Region::kKorea, {MakeRecipe({p1_})});
  EXPECT_TRUE(NullModelSampler::Make(NullModelKind::kRandom, single, reg_)
                  .status()
                  .IsFailedPrecondition());
}

class NullModelKindParamTest
    : public NullModelsTest,
      public ::testing::WithParamInterface<NullModelKind> {};

TEST_P(NullModelKindParamTest, SampledRecipesHaveDistinctValidIndices) {
  auto sampler = NullModelSampler::Make(GetParam(), *cuisine_, reg_);
  ASSERT_TRUE(sampler.ok());
  culinary::Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    std::vector<int> r = sampler->SampleRecipe(rng);
    std::set<int> unique(r.begin(), r.end());
    EXPECT_EQ(unique.size(), r.size()) << "duplicates in recipe";
    for (int x : r) {
      EXPECT_GE(x, 0);
      EXPECT_LT(x, static_cast<int>(cuisine_->unique_ingredients().size()));
    }
  }
}

TEST_P(NullModelKindParamTest, SizesComeFromEmpiricalDistribution) {
  auto sampler = NullModelSampler::Make(GetParam(), *cuisine_, reg_);
  ASSERT_TRUE(sampler.ok());
  culinary::Rng rng(2);
  std::set<int64_t> observed_sizes;
  for (const Recipe& r : cuisine_->recipes()) {
    observed_sizes.insert(static_cast<int64_t>(r.ingredients.size()));
  }
  for (int i = 0; i < 500; ++i) {
    size_t s = sampler->SampleRecipe(rng).size();
    EXPECT_TRUE(observed_sizes.count(static_cast<int64_t>(s)) > 0)
        << "size " << s << " never occurs in the cuisine";
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, NullModelKindParamTest,
                         ::testing::Values(NullModelKind::kRandom,
                                           NullModelKind::kFrequency,
                                           NullModelKind::kCategory,
                                           NullModelKind::kFrequencyCategory));

TEST_F(NullModelsTest, FrequencyModelFavorsPopularIngredients) {
  auto sampler =
      NullModelSampler::Make(NullModelKind::kFrequency, *cuisine_, reg_);
  ASSERT_TRUE(sampler.ok());
  culinary::Rng rng(3);
  std::vector<int> counts(cuisine_->unique_ingredients().size(), 0);
  for (int i = 0; i < 4000; ++i) {
    for (int x : sampler->SampleRecipe(rng)) ++counts[static_cast<size_t>(x)];
  }
  // p1 (freq 9) must be drawn far more often than l2 (freq 1).
  int p1_dense = cache_->DenseIndex(p1_);
  int l2_dense = cache_->DenseIndex(l2_);
  EXPECT_GT(counts[static_cast<size_t>(p1_dense)],
            3 * counts[static_cast<size_t>(l2_dense)]);
}

TEST_F(NullModelsTest, CategoryModelPreservesCategoryMultisets) {
  auto sampler =
      NullModelSampler::Make(NullModelKind::kCategory, *cuisine_, reg_);
  ASSERT_TRUE(sampler.ok());
  culinary::Rng rng(4);
  // Collect the multiset of category multisets from the real cuisine.
  auto category_of = [&](IngredientId id) {
    return reg_.Find(id)->category;
  };
  std::set<std::multiset<int>> real_multisets;
  for (const Recipe& r : cuisine_->recipes()) {
    std::multiset<int> ms;
    for (IngredientId id : r.ingredients) {
      ms.insert(static_cast<int>(category_of(id)));
    }
    real_multisets.insert(ms);
  }
  for (int i = 0; i < 300; ++i) {
    std::vector<int> recipe = sampler->SampleRecipe(rng);
    std::multiset<int> ms;
    for (int x : recipe) {
      ms.insert(static_cast<int>(
          category_of(cuisine_->unique_ingredients()[static_cast<size_t>(x)])));
    }
    EXPECT_TRUE(real_multisets.count(ms) > 0)
        << "sampled category multiset never occurs in the real cuisine";
  }
}

TEST_F(NullModelsTest, CompareProducesConsistentZ) {
  NullModelOptions options;
  options.num_recipes = 5000;
  auto result = CompareAgainstNullModel(*cache_, *cuisine_, reg_,
                                        NullModelKind::kRandom, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->null_count, 5000);
  EXPECT_GT(result->null_stddev, 0.0);
  // The real cuisine pairs p1+p2 (4 shared compounds) far more often than
  // random → strongly positive Z.
  EXPECT_GT(result->z_score, 5.0);
  EXPECT_NEAR(result->z_score,
              culinary::ZScore(result->real_mean, result->null_mean,
                               result->null_stddev, result->null_count),
              1e-9);
}

TEST_F(NullModelsTest, ZScoresBitIdenticalAcrossThreadCounts) {
  // The Fig-4 determinism contract: for a fixed seed, the sweep's outputs
  // are bit-identical whether it runs serial or on any number of workers,
  // because RNG streams and merge order are tied to fixed-size blocks, not
  // threads. 9000 recipes span five 2048-recipe blocks.
  for (NullModelKind kind :
       {NullModelKind::kRandom, NullModelKind::kFrequency,
        NullModelKind::kCategory, NullModelKind::kFrequencyCategory}) {
    NullModelOptions options;
    options.num_recipes = 9000;
    options.seed = 0xF16'4;
    std::vector<FoodPairingResult> results;
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      options.exec.num_threads = threads;
      auto r = CompareAgainstNullModel(*cache_, *cuisine_, reg_, kind, options);
      ASSERT_TRUE(r.ok()) << NullModelKindToString(kind);
      results.push_back(*r);
    }
    for (size_t i = 1; i < results.size(); ++i) {
      EXPECT_EQ(results[0].null_mean, results[i].null_mean)
          << NullModelKindToString(kind);
      EXPECT_EQ(results[0].null_stddev, results[i].null_stddev)
          << NullModelKindToString(kind);
      EXPECT_EQ(results[0].null_count, results[i].null_count)
          << NullModelKindToString(kind);
      EXPECT_EQ(results[0].real_mean, results[i].real_mean)
          << NullModelKindToString(kind);
      EXPECT_EQ(results[0].z_score, results[i].z_score)
          << NullModelKindToString(kind);
    }
  }
}

TEST_F(NullModelsTest, SampleRecipeIntoMatchesSampleRecipe) {
  auto sampler =
      NullModelSampler::Make(NullModelKind::kFrequency, *cuisine_, reg_);
  ASSERT_TRUE(sampler.ok());
  culinary::Rng rng_a(99), rng_b(99);
  std::vector<int> reused;
  for (int i = 0; i < 200; ++i) {
    std::vector<int> fresh = sampler->SampleRecipe(rng_a);
    sampler->SampleRecipeInto(rng_b, reused);
    EXPECT_EQ(fresh, reused) << "draw " << i;
  }
}

TEST_F(NullModelsTest, DeterministicAcrossRuns) {
  NullModelOptions options;
  options.num_recipes = 2000;
  auto r1 = CompareAgainstNullModel(*cache_, *cuisine_, reg_,
                                    NullModelKind::kFrequency, options);
  auto r2 = CompareAgainstNullModel(*cache_, *cuisine_, reg_,
                                    NullModelKind::kFrequency, options);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->null_mean, r2->null_mean);
  EXPECT_EQ(r1->z_score, r2->z_score);
}

TEST_F(NullModelsTest, SeedChangesStream) {
  NullModelOptions a, b;
  a.num_recipes = b.num_recipes = 2000;
  b.seed = a.seed + 1;
  auto r1 = CompareAgainstNullModel(*cache_, *cuisine_, reg_,
                                    NullModelKind::kRandom, a);
  auto r2 = CompareAgainstNullModel(*cache_, *cuisine_, reg_,
                                    NullModelKind::kRandom, b);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_NE(r1->null_mean, r2->null_mean);
}

TEST_F(NullModelsTest, FewerThanTwoRecipesRejected) {
  // One null recipe has σ = 0, which would report Z = 0 for every region.
  for (size_t num_recipes : {size_t{0}, size_t{1}}) {
    NullModelOptions options;
    options.num_recipes = num_recipes;
    EXPECT_TRUE(CompareAgainstNullModel(*cache_, *cuisine_, reg_,
                                        NullModelKind::kRandom, options)
                    .status()
                    .IsInvalidArgument())
        << num_recipes;
  }
}

TEST_F(NullModelsTest, AllModelsRun) {
  NullModelOptions options;
  options.num_recipes = 1000;
  auto results = CompareAgainstAllModels(*cache_, *cuisine_, reg_, options);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 4u);
  EXPECT_EQ((*results)[0].kind, NullModelKind::kRandom);
  EXPECT_EQ((*results)[3].kind, NullModelKind::kFrequencyCategory);
  // All four compare against the same real mean.
  for (const auto& r : *results) {
    EXPECT_DOUBLE_EQ(r.real_mean, (*results)[0].real_mean);
  }
}

TEST_F(NullModelsTest, RandomNullMeanMatchesAnalyticExpectation) {
  // For the Random Cuisine (uniform subsets of any fixed size), every
  // ingredient pair is equally likely to co-occur, so E[N_s] equals the
  // population mean of pairwise shared-compound counts over the cuisine's
  // ingredient set — independent of the recipe-size distribution.
  const auto& ingredients = cuisine_->unique_ingredients();
  double pair_sum = 0.0;
  size_t pairs = 0;
  for (size_t a = 0; a + 1 < ingredients.size(); ++a) {
    for (size_t b = a + 1; b < ingredients.size(); ++b) {
      pair_sum += static_cast<double>(
          reg_.SharedCompounds(ingredients[a], ingredients[b]));
      ++pairs;
    }
  }
  double analytic = pair_sum / static_cast<double>(pairs);

  NullModelOptions options;
  options.num_recipes = 50000;
  auto result = CompareAgainstNullModel(*cache_, *cuisine_, reg_,
                                        NullModelKind::kRandom, options);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->null_mean, analytic, 5.0 * result->null_stddev /
                                               std::sqrt(50000.0));
}

TEST_F(NullModelsTest, FrequencyModelTracksRealPairingBetterThanRandom) {
  // The construction of this fixture (popular ingredients share compounds)
  // mirrors the paper's finding: the frequency-preserving null is closer
  // to the real cuisine than the uniform one.
  NullModelOptions options;
  options.num_recipes = 20000;
  auto results = CompareAgainstAllModels(*cache_, *cuisine_, reg_, options);
  ASSERT_TRUE(results.ok());
  double z_random = std::abs((*results)[0].z_score);
  double z_freq = std::abs((*results)[1].z_score);
  EXPECT_LT(z_freq, z_random);
}

}  // namespace
}  // namespace culinary::analysis
