#include "datagen/world.h"

#include <cstdio>

#include <gtest/gtest.h>

#include "dataframe/csv.h"

namespace culinary::datagen {
namespace {

using recipe::Region;

/// Shared small world (generation is the expensive step).
const SyntheticWorld& World() {
  static const SyntheticWorld& world = *[] {
    auto result = GenerateSmallWorld();
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return new SyntheticWorld(std::move(result).value());
  }();
  return world;
}

TEST(WorldTest, RecipeCountsMatchSpecExactly) {
  WorldSpec spec = WorldSpec::Small();
  for (const RegionSpec& rs : spec.regions) {
    EXPECT_EQ(World().db().CountForRegion(rs.region), rs.num_recipes)
        << recipe::RegionCode(rs.region);
  }
}

TEST(WorldTest, IngredientCountsNearSpec) {
  WorldSpec spec = WorldSpec::Small();
  for (const RegionSpec& rs : spec.regions) {
    recipe::Cuisine cuisine = World().db().CuisineFor(rs.region);
    size_t realized = cuisine.unique_ingredients().size();
    // The Zipf tail may starve a few ingredients; realized counts must be
    // within 10% of the target and never exceed it.
    EXPECT_LE(realized, rs.num_ingredients);
    EXPECT_GE(realized, rs.num_ingredients * 9 / 10)
        << recipe::RegionCode(rs.region);
  }
}

TEST(WorldTest, RecipeSizesWithinSpecBounds) {
  WorldSpec spec = WorldSpec::Small();
  for (const recipe::Recipe& r : World().db().recipes()) {
    EXPECT_GE(r.size(), 2u);  // duplicates may shrink below min? see below
    EXPECT_LE(r.size(), spec.recipe_size_max);
  }
}

TEST(WorldTest, WorldMeanRecipeSizeNearNine) {
  recipe::Cuisine world_cuisine = World().db().WorldCuisine();
  EXPECT_NEAR(world_cuisine.MeanRecipeSize(), 9.0, 0.8);
}

TEST(WorldTest, PopularityIsHeavyTailed) {
  recipe::Cuisine italy = World().db().CuisineFor(Region::kItaly);
  auto ranked = italy.ByPopularity();
  ASSERT_GE(ranked.size(), 20u);
  // Top ingredient used much more than the median one.
  EXPECT_GT(ranked[0].second, 4 * ranked[ranked.size() / 2].second);
}

TEST(WorldTest, DeterministicGeneration) {
  auto a = GenerateSmallWorld();
  auto b = GenerateSmallWorld();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->db().num_recipes(), b->db().num_recipes());
  for (size_t i = 0; i < a->db().num_recipes(); i += 97) {
    EXPECT_EQ(a->db().recipes()[i].ingredients,
              b->db().recipes()[i].ingredients);
  }
}

TEST(WorldTest, ExportWritesBothCsvs) {
  std::string prefix = ::testing::TempDir() + "/culinary_world_test";
  ASSERT_TRUE(ExportWorldCsv(World(), prefix).ok());

  // The records after a header that holds `columns`.
  auto count_rows = [](const std::string& path,
                       std::initializer_list<std::string_view> columns)
      -> culinary::Result<size_t> {
    size_t records = 0;
    CULINARY_RETURN_IF_ERROR(df::ForEachCsvFileRecord(
        path, {}, [&](size_t, std::span<const df::CsvField> fields) {
          return records++ == 0 ? df::FindCsvColumns(fields, columns).status()
                                : culinary::Status::OK();
        }));
    return records - 1;
  };
  auto recipes = count_rows(prefix + "_recipes.csv", {"region", "ingredients"});
  ASSERT_TRUE(recipes.ok()) << recipes.status().ToString();
  EXPECT_EQ(*recipes, World().db().num_recipes());

  auto ingredients = count_rows(prefix + "_ingredients.csv", {"category"});
  ASSERT_TRUE(ingredients.ok()) << ingredients.status().ToString();
  EXPECT_EQ(*ingredients, World().registry().num_live_ingredients());

  std::remove((prefix + "_recipes.csv").c_str());
  std::remove((prefix + "_ingredients.csv").c_str());
}

TEST(WorldTest, CsvRoundTripThroughRecipeDatabase) {
  std::string prefix = ::testing::TempDir() + "/culinary_world_rt";
  ASSERT_TRUE(ExportWorldCsv(World(), prefix).ok());
  size_t skipped = 0;
  auto loaded = recipe::RecipeDatabase::LoadCsv(
      prefix + "_recipes.csv", World().universe.registry.get(), &skipped);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(skipped, 0u);
  EXPECT_EQ(loaded->num_recipes(), World().db().num_recipes());
  // Spot-check a recipe's ingredient set round-trips.
  EXPECT_EQ(loaded->recipes()[5].ingredients,
            World().db().recipes()[5].ingredients);
  std::remove((prefix + "_recipes.csv").c_str());
  std::remove((prefix + "_ingredients.csv").c_str());
}

}  // namespace
}  // namespace culinary::datagen
