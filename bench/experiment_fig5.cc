// Experiment: Figure 5 — top 3 ingredients contributing to the positive /
// negative food pairing of each cuisine.
//
// For each of the 22 cuisines, computes the ingredient contribution χ_i
// (percentage change in the cuisine's food-pairing score upon removal of
// ingredient i, paper §IV.C) for every ingredient, and reports the three
// ingredients most aligned with the cuisine's pairing direction: for
// uniform-pairing cuisines (Fig 5a) the strongest positive contributors,
// for contrasting cuisines (Fig 5b) the strongest negative ones.

#include <cstdio>
#include <string>

#include "analysis/contribution.h"
#include "analysis/null_models.h"
#include "analysis/pairing.h"
#include "analysis/report.h"
#include "common/flags.h"
#include "common/string_util.h"
#include "datagen/world.h"

int main(int argc, char** argv) {
  using namespace culinary;  // NOLINT(build/namespaces)
  bool small = false;
  uint64_t seed = 0;
  size_t null_recipes = 20000;  // only needed to determine pairing signs
  if (!flags::ParseCommandLine(
          argc, argv,
          {flags::Presence("small", &small, "the miniature world"),
           flags::Unsigned("seed", &seed, "world seed, 0 = the spec's own"),
           flags::Unsigned("null-recipes", &null_recipes,
                           "null recipes per region", 2)})) {
    return 2;
  }
  const datagen::WorldSpec spec = datagen::WorldSpec::For(small, seed);

  std::fprintf(stderr, "[fig5] generating world...\n");
  auto world_result = datagen::GenerateWorld(spec);
  if (!world_result.ok()) {
    std::fprintf(stderr, "world generation failed: %s\n",
                 world_result.status().ToString().c_str());
    return 1;
  }
  const datagen::SyntheticWorld& world = world_result.value();

  analysis::NullModelOptions options;
  options.num_recipes = null_recipes;

  analysis::TextTable pos_table({"Cuisine", "Z(random)", "#1", "#2", "#3"});
  analysis::TextTable neg_table({"Cuisine", "Z(random)", "#1", "#2", "#3"});

  auto name_of = [&](flavor::IngredientId id) {
    const flavor::Ingredient* ing = world.registry().Find(id);
    return ing != nullptr ? ing->name : std::string("?");
  };

  for (int i = 0; i < recipe::kNumRegions; ++i) {
    recipe::Region region = recipe::AllRegions()[i];
    recipe::Cuisine cuisine = world.db().CuisineFor(region);
    analysis::PairingCache cache(world.registry(),
                                 cuisine.unique_ingredients());
    auto cmp = analysis::CompareAgainstNullModel(
        cache, cuisine, world.registry(), analysis::NullModelKind::kRandom,
        options);
    if (!cmp.ok()) {
      std::fprintf(stderr, "region %s failed: %s\n",
                   std::string(recipe::RegionCode(region)).c_str(),
                   cmp.status().ToString().c_str());
      return 1;
    }
    bool positive = cmp->z_score > 0;
    auto top =
        analysis::TopContributors(cache, cuisine, 3, positive);
    std::vector<std::string> row = {std::string(recipe::RegionCode(region)),
                                    FormatDouble(cmp->z_score, 1)};
    for (size_t t = 0; t < 3; ++t) {
      if (t < top.size()) {
        row.push_back(name_of(top[t].id) + " (" +
                      FormatDouble(top[t].chi, 2) + "%)");
      } else {
        row.push_back("-");
      }
    }
    (positive ? pos_table : neg_table).AddRow(row);
  }

  std::printf("=== Figure 5(a): top 3 positive contributors, uniform-pairing "
              "cuisines ===\n%s\n",
              pos_table.ToString().c_str());
  std::printf("=== Figure 5(b): top 3 negative contributors, contrasting "
              "cuisines ===\n%s\n",
              neg_table.ToString().c_str());
  std::printf("χ_i = 100 · (N̄_s − N̄_s without i) / |N̄_s|; positive χ means "
              "the ingredient raises the cuisine's flavor sharing.\n");
  return 0;
}
