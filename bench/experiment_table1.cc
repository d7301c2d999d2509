// Experiment: Table 1 — statistics of recipes and ingredients across world
// cuisines.
//
// Regenerates the paper's dataset-statistics table: number of recipes and
// number of unique (flavor-mapped) ingredients per region, plus the totals
// the paper quotes in the text (45,772 recipes including 207 recipes from
// regions too small to stand alone; an average of 321 unique ingredients
// per region).

#include <cstdio>
#include <string>

#include "analysis/report.h"
#include "common/flags.h"
#include "common/string_util.h"
#include "datagen/world.h"

int main(int argc, char** argv) {
  using namespace culinary;  // NOLINT(build/namespaces)
  bool small = false;
  uint64_t seed = 0;
  if (!flags::ParseCommandLine(
          argc, argv,
          {flags::Presence("small", &small, "the miniature world"),
           flags::Unsigned("seed", &seed, "world seed, 0 = the spec's own")})) {
    return 2;
  }
  const datagen::WorldSpec spec = datagen::WorldSpec::For(small, seed);

  std::fprintf(stderr, "[table1] generating world...\n");
  auto world_result = datagen::GenerateWorld(spec);
  if (!world_result.ok()) {
    std::fprintf(stderr, "world generation failed: %s\n",
                 world_result.status().ToString().c_str());
    return 1;
  }
  const datagen::SyntheticWorld& world = world_result.value();

  analysis::TextTable table({"Region (Code)", "Recipes", "Ingredients",
                             "Recipes(paper)", "Ingredients(paper)"});
  size_t total_recipes = 0;
  double total_ingredients = 0;
  for (size_t i = 0; i < spec.regions.size(); ++i) {
    const datagen::RegionSpec& rs = spec.regions[i];
    recipe::Cuisine cuisine = world.db().CuisineFor(rs.region);
    total_recipes += cuisine.num_recipes();
    total_ingredients += static_cast<double>(cuisine.unique_ingredients().size());
    table.AddRow({std::string(recipe::RegionName(rs.region)) + " (" +
                      std::string(recipe::RegionCode(rs.region)) + ")",
                  std::to_string(cuisine.num_recipes()),
                  std::to_string(cuisine.unique_ingredients().size()),
                  std::to_string(rs.num_recipes),
                  std::to_string(rs.num_ingredients)});
  }
  recipe::Cuisine world_cuisine = world.db().WorldCuisine();

  std::printf("=== Table 1: recipes and ingredients across world cuisines ===\n");
  std::printf("%s\n", table.ToString().c_str());
  std::printf("Total recipes (22 regions): %zu (paper: 45565 + 207 small-region "
              "recipes = 45772)\n", total_recipes);
  std::printf("Mean unique ingredients per region: %s (paper: 321)\n",
              FormatDouble(total_ingredients / static_cast<double>(
                                                   spec.regions.size()),
                           1).c_str());
  std::printf("WORLD: %zu recipes over %zu unique ingredients; registry holds "
              "%zu live entities\n",
              world_cuisine.num_recipes(),
              world_cuisine.unique_ingredients().size(),
              world.registry().num_live_ingredients());
  return 0;
}
