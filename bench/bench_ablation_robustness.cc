// Ablation: robustness of the food-pairing patterns to changes in the
// recipe data and the flavor profiles — the paper's first open question
// ("How robust are the patterns to changes in recipes data and flavor
// profiles?").
//
// Two perturbations, applied to six probe regions (the three strongest
// positive and three strongest negative):
//   1. recipe subsampling: keep a random 25% / 50% / 75% of each cuisine;
//   2. profile dilution: delete each flavor molecule from each ingredient
//      profile independently with probability 10% / 30% / 50%.
// For each setting the Z-score against the Random Cuisine is recomputed;
// the pattern is robust when the sign (and rough magnitude ordering)
// survives.

#include <cstdio>
#include <string>
#include <vector>

#include "analysis/null_models.h"
#include "analysis/perturb.h"
#include "analysis/pairing.h"
#include "analysis/report.h"
#include "common/flags.h"
#include "common/random.h"
#include "common/string_util.h"
#include "datagen/world.h"

namespace {

using culinary::analysis::NullModelKind;
using culinary::analysis::NullModelOptions;
using culinary::analysis::PairingCache;
using culinary::flavor::FlavorProfile;
using culinary::flavor::FlavorRegistry;
using culinary::recipe::Cuisine;
using culinary::recipe::Recipe;
using culinary::recipe::Region;

/// Z(random) for a cuisine under a given registry.
double ZRandom(const Cuisine& cuisine, const FlavorRegistry& registry,
               const NullModelOptions& options) {
  PairingCache cache(registry, cuisine.unique_ingredients());
  auto result = culinary::analysis::CompareAgainstNullModel(
      cache, cuisine, registry, NullModelKind::kRandom, options);
  return result.ok() ? result->z_score : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace culinary;  // NOLINT(build/namespaces)
  bool small = false;
  size_t null_recipes = 20000;
  if (!flags::ParseCommandLine(
          argc, argv,
          {flags::Presence("small", &small, "the miniature world"),
           flags::Unsigned("null-recipes", &null_recipes,
                           "null recipes per model", 2)})) {
    return 2;
  }
  const datagen::WorldSpec spec = datagen::WorldSpec::For(small);

  std::fprintf(stderr, "[robustness] generating world...\n");
  auto world_result = datagen::GenerateWorld(spec);
  if (!world_result.ok()) {
    std::fprintf(stderr, "world generation failed\n");
    return 1;
  }
  const datagen::SyntheticWorld& world = world_result.value();

  NullModelOptions options;
  options.num_recipes = null_recipes;

  const Region kProbes[] = {Region::kItaly, Region::kGreece, Region::kSpain,
                            Region::kScandinavia, Region::kJapan,
                            Region::kDach};

  analysis::TextTable sub_table({"Region", "Z(full)", "Z(75%)", "Z(50%)",
                                 "Z(25%)", "sign stable"});
  Rng rng(20180416);
  for (Region region : kProbes) {
    Cuisine full = world.db().CuisineFor(region);
    double z_full = ZRandom(full, world.registry(), options);
    std::vector<double> zs;
    for (double keep : {0.75, 0.50, 0.25}) {
      Cuisine sampled = analysis::SubsampleCuisine(full, keep, rng);
      zs.push_back(ZRandom(sampled, world.registry(), options));
    }
    bool stable = (z_full > 0) == (zs[0] > 0) && (z_full > 0) == (zs[1] > 0) &&
                  (z_full > 0) == (zs[2] > 0);
    sub_table.AddRow({std::string(recipe::RegionCode(region)),
                      FormatDouble(z_full, 1), FormatDouble(zs[0], 1),
                      FormatDouble(zs[1], 1), FormatDouble(zs[2], 1),
                      stable ? "yes" : "NO"});
  }
  std::printf("=== Ablation: recipe subsampling ===\n%s\n",
              sub_table.ToString().c_str());

  analysis::TextTable dil_table({"Region", "Z(0%)", "Z(drop 10%)",
                                 "Z(drop 30%)", "Z(drop 50%)", "sign stable"});
  for (Region region : kProbes) {
    Cuisine full = world.db().CuisineFor(region);
    double z_full = ZRandom(full, world.registry(), options);
    std::vector<double> zs;
    for (double drop : {0.10, 0.30, 0.50}) {
      flavor::FlavorRegistry diluted =
          analysis::DiluteProfiles(world.registry(), drop, rng);
      zs.push_back(ZRandom(full, diluted, options));
    }
    bool stable = (z_full > 0) == (zs[0] > 0) && (z_full > 0) == (zs[1] > 0) &&
                  (z_full > 0) == (zs[2] > 0);
    dil_table.AddRow({std::string(recipe::RegionCode(region)),
                      FormatDouble(z_full, 1), FormatDouble(zs[0], 1),
                      FormatDouble(zs[1], 1), FormatDouble(zs[2], 1),
                      stable ? "yes" : "NO"});
  }
  std::printf("=== Ablation: flavor-profile dilution ===\n%s\n",
              dil_table.ToString().c_str());
  std::printf("Expectation: pairing signs survive both perturbations "
              "(patterns are properties of the cuisine, not of individual "
              "recipes or molecules).\n");
  return 0;
}
