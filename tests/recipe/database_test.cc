#include "recipe/database.h"

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

namespace culinary::recipe {
namespace {

class DatabaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    using flavor::Category;
    using flavor::FlavorProfile;
    tomato_ = reg_.AddIngredient("tomato", Category::kVegetable,
                                 FlavorProfile({1, 2}))
                  .value();
    basil_ =
        reg_.AddIngredient("basil", Category::kHerb, FlavorProfile({2, 3}))
            .value();
    rice_ =
        reg_.AddIngredient("rice", Category::kCereal, FlavorProfile({4}))
            .value();
  }

  flavor::FlavorRegistry reg_;
  flavor::IngredientId tomato_, basil_, rice_;
};

TEST_F(DatabaseTest, AddRecipeAssignsSequentialIds) {
  RecipeDatabase db(&reg_);
  auto a = db.AddRecipe("caprese", Region::kItaly, {tomato_, basil_});
  auto b = db.AddRecipe("onigiri", Region::kJapan, {rice_});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, 0);
  EXPECT_EQ(*b, 1);
  EXPECT_EQ(db.num_recipes(), 2u);
}

TEST_F(DatabaseTest, AddRecipeValidation) {
  RecipeDatabase db(&reg_);
  EXPECT_TRUE(db.AddRecipe("x", Region::kWorld, {tomato_})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      db.AddRecipe("x", Region::kItaly, {99}).status().IsInvalidArgument());
  EXPECT_TRUE(
      db.AddRecipe("x", Region::kItaly, {}).status().IsInvalidArgument());
  EXPECT_TRUE(db.AddRecipe("x", Region::kItaly, {-1, -2})
                  .status()
                  .IsInvalidArgument());
  EXPECT_EQ(db.num_recipes(), 0u);
}

TEST_F(DatabaseTest, AddRecipeCanonicalizesIngredients) {
  RecipeDatabase db(&reg_);
  ASSERT_TRUE(
      db.AddRecipe("x", Region::kItaly, {basil_, tomato_, basil_}).ok());
  EXPECT_EQ(db.recipes()[0].ingredients,
            (std::vector<flavor::IngredientId>{tomato_, basil_}));
}

TEST_F(DatabaseTest, CountAndCuisineForRegion) {
  RecipeDatabase db(&reg_);
  db.AddRecipe("a", Region::kItaly, {tomato_, basil_}).status();
  db.AddRecipe("b", Region::kItaly, {tomato_}).status();
  db.AddRecipe("c", Region::kJapan, {rice_}).status();
  EXPECT_EQ(db.CountForRegion(Region::kItaly), 2u);
  EXPECT_EQ(db.CountForRegion(Region::kJapan), 1u);
  EXPECT_EQ(db.CountForRegion(Region::kKorea), 0u);

  Cuisine italy = db.CuisineFor(Region::kItaly);
  EXPECT_EQ(italy.num_recipes(), 2u);
  EXPECT_EQ(italy.FrequencyOf(tomato_), 2);

  Cuisine world = db.WorldCuisine();
  EXPECT_EQ(world.region(), Region::kWorld);
  EXPECT_EQ(world.num_recipes(), 3u);
  EXPECT_EQ(world.unique_ingredients().size(), 3u);
}

TEST_F(DatabaseTest, AllCuisinesCoversEveryRegion) {
  RecipeDatabase db(&reg_);
  db.AddRecipe("a", Region::kItaly, {tomato_}).status();
  auto cuisines = db.AllCuisines();
  EXPECT_EQ(cuisines.size(), static_cast<size_t>(kNumRegions));
}

TEST_F(DatabaseTest, AddRecipeFromPhrases) {
  RecipeDatabase db(&reg_);
  IngredientPhraseParser parser(&reg_);
  std::vector<std::string> failures;
  auto id = db.AddRecipeFromPhrases(
      "caprese", Region::kItaly,
      {"2 ripe tomatoes, chopped", "a handful of basil",
       "1 cup unobtainium shavings"},
      parser, &failures);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(db.recipes()[0].ingredients,
            (std::vector<flavor::IngredientId>{tomato_, basil_}));
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0], "1 cup unobtainium shavings");
}

TEST_F(DatabaseTest, AddRecipeFromPhrasesAllUnrecognized) {
  RecipeDatabase db(&reg_);
  IngredientPhraseParser parser(&reg_);
  auto id = db.AddRecipeFromPhrases("mystery", Region::kItaly,
                                    {"pure unobtainium"}, parser);
  EXPECT_TRUE(id.status().IsFailedPrecondition());
  EXPECT_EQ(db.num_recipes(), 0u);
}

TEST_F(DatabaseTest, CsvRoundTrip) {
  RecipeDatabase db(&reg_);
  db.AddRecipe("caprese", Region::kItaly, {tomato_, basil_}).status();
  db.AddRecipe("onigiri", Region::kJapan, {rice_}).status();

  std::string path = ::testing::TempDir() + "/culinary_db_test.csv";
  ASSERT_TRUE(db.SaveCsv(path).ok());

  size_t skipped = 0;
  auto loaded = RecipeDatabase::LoadCsv(path, &reg_, &skipped);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(skipped, 0u);
  EXPECT_EQ(loaded->num_recipes(), 2u);
  EXPECT_EQ(loaded->recipes()[0].name, "caprese");
  EXPECT_EQ(loaded->recipes()[0].region, Region::kItaly);
  EXPECT_EQ(loaded->recipes()[0].ingredients,
            (std::vector<flavor::IngredientId>{tomato_, basil_}));
  std::remove(path.c_str());
}

TEST_F(DatabaseTest, LoadCsvSkipsBadRows) {
  std::string path = ::testing::TempDir() + "/culinary_db_bad.csv";
  {
    std::ofstream out(path);
    out << "id,name,region,ingredients\n"
        << "0,good,ITA,tomato;basil\n"
        << "1,unknown region,XXX,tomato\n"
        << "2,world not allowed,WORLD,tomato\n"
        << "3,unknown ingredients,ITA,unobtainium\n"
        << "4,partial ingredients,ITA,tomato;unobtainium\n"
        << "5,empty ingredients,ITA,\n";
  }
  size_t skipped = 0;
  auto loaded = RecipeDatabase::LoadCsv(path, &reg_, &skipped);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_recipes(), 2u);  // rows 0 and 4
  EXPECT_EQ(skipped, 4u);
  // Row 4 kept with the resolvable subset.
  EXPECT_EQ(loaded->recipes()[1].ingredients,
            (std::vector<flavor::IngredientId>{tomato_}));
  std::remove(path.c_str());
}

TEST_F(DatabaseTest, LoadCsvReadsNumericNamesAndRegions) {
  // Cells are text to the loader, whatever they hold: all-digit names load
  // as written, and all-digit regions are unknown regions.
  std::string path = ::testing::TempDir() + "/culinary_db_digits.csv";
  {
    std::ofstream out(path);
    out << "id,name,region,ingredients\n"
        << "0,101,ITA,tomato;basil\n"
        << "1,102,JPN,rice\n";
  }
  size_t skipped = 0;
  auto loaded = RecipeDatabase::LoadCsv(path, &reg_, &skipped);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(skipped, 0u);
  ASSERT_EQ(loaded->num_recipes(), 2u);
  EXPECT_EQ(loaded->recipes()[0].name, "101");
  EXPECT_EQ(loaded->recipes()[1].name, "102");

  {
    std::ofstream out(path);
    out << "id,name,region,ingredients\n"
        << "0,caprese,7,tomato;basil\n"
        << "1,onigiri,8,rice\n";
  }
  robustness::ErrorSink sink;
  IngestOptions options;
  options.error_sink = &sink;
  IngestReport report;
  loaded = RecipeDatabase::LoadCsv(path, &reg_, options, &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_recipes(), 0u);
  EXPECT_EQ(report.rows_quarantined, 2u);
  ASSERT_EQ(sink.diagnostics().size(), 2u);
  EXPECT_EQ(sink.diagnostics()[0].message, "row 0: unknown region '7'");
  EXPECT_EQ(sink.diagnostics()[1].message, "row 1: unknown region '8'");
  std::remove(path.c_str());
}

TEST_F(DatabaseTest, LoadCsvRequiresColumns) {
  std::string path = ::testing::TempDir() + "/culinary_db_cols.csv";
  {
    std::ofstream out(path);
    out << "a,b\n1,2\n";
  }
  auto loaded = RecipeDatabase::LoadCsv(path, &reg_);
  EXPECT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsParseError());
  std::remove(path.c_str());
}

TEST_F(DatabaseTest, LoadCsvNullRegistry) {
  EXPECT_TRUE(RecipeDatabase::LoadCsv("x.csv", nullptr)
                  .status()
                  .IsInvalidArgument());
}

TEST_F(DatabaseTest, LoadCsvMissingFile) {
  EXPECT_TRUE(RecipeDatabase::LoadCsv("/no/such/file.csv", &reg_)
                  .status()
                  .IsIOError());
}

}  // namespace
}  // namespace culinary::recipe
