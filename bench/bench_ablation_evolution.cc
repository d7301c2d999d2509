// Ablation: can a simple copy–mutate evolution model reproduce the
// empirical culinary patterns? The paper's conclusions assert it can
// ("a simple copy-mutate model has been shown to explain such patterns
// [10]"). This experiment evolves synthetic cuisines over the generated
// ingredient universe and checks the three signatures against their
// empirical counterparts:
//
//   1. heavy-tailed ingredient popularity (Fig 3b shape);
//   2. positive food pairing when mutation acceptance favours flavor-
//      compatible ingredients, negative when it favours contrast (Fig 4);
//   3. the Ingredient Frequency null model accounting for most of the
//      pairing signal, as in the real cuisines.

#include <cstdio>
#include <string>

#include "analysis/composition.h"
#include "analysis/null_models.h"
#include "analysis/pairing.h"
#include "analysis/report.h"
#include "common/flags.h"
#include "common/string_util.h"
#include "datagen/world.h"
#include "evolution/copy_mutate.h"

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

  std::fprintf(stderr, "[evolution] generating universe...\n");
  auto world_result = datagen::GenerateWorld(spec);
  if (!world_result.ok()) {
    std::fprintf(stderr, "generation failed\n");
    return 1;
  }
  const datagen::SyntheticWorld& world = world_result.value();
  auto pool = world.registry().LiveIngredients();
  pool.resize(std::min<size_t>(pool.size(), 300));

  analysis::NullModelOptions options;
  options.num_recipes = null_recipes;

  analysis::TextTable table({"flavor bias", "recipes", "N_s(evolved)",
                             "Z(random)", "Z(frequency)", "top-20 pop share",
                             "regime"});
  for (double bias : {12.0, 6.0, 0.0, -6.0, -12.0}) {
    evolution::EvolutionConfig config;
    config.target_recipes = 1200;
    config.recipe_size = 9;
    config.mutations_per_copy = 4;
    config.flavor_bias = bias;
    auto cuisine = evolution::EvolveCuisine(world.registry(), pool, config,
                                            recipe::Region::kItaly);
    if (!cuisine.ok()) {
      std::fprintf(stderr, "evolution failed: %s\n",
                   cuisine.status().ToString().c_str());
      return 1;
    }
    analysis::PairingCache cache(world.registry(),
                                 cuisine->unique_ingredients());
    auto z_random = analysis::CompareAgainstNullModel(
        cache, *cuisine, world.registry(), analysis::NullModelKind::kRandom,
        options);
    auto z_freq = analysis::CompareAgainstNullModel(
        cache, *cuisine, world.registry(),
        analysis::NullModelKind::kFrequency, options);
    if (!z_random.ok() || !z_freq.ok()) {
      std::fprintf(stderr, "null model failed\n");
      return 1;
    }
    auto cum = analysis::CumulativePopularityShare(*cuisine);
    double top20 = cum.size() >= 20 ? cum[19] : (cum.empty() ? 0 : cum.back());
    const char* regime = z_random->z_score > 2    ? "uniform"
                         : z_random->z_score < -2 ? "contrasting"
                                                  : "≈random";
    table.AddRow({FormatDouble(bias, 1),
                  std::to_string(cuisine->num_recipes()),
                  FormatDouble(z_random->real_mean, 3),
                  FormatDouble(z_random->z_score, 1),
                  FormatDouble(z_freq->z_score, 1), FormatDouble(top20, 3),
                  regime});
  }
  std::printf("=== Ablation: copy-mutate culinary evolution ===\n%s\n",
              table.ToString().c_str());
  std::printf(
      "Expectation (paper conclusions, ref [10]): positive flavor bias "
      "evolves uniform pairing, negative evolves contrasting pairing; "
      "|Z(frequency)| < |Z(random)| in both regimes; popularity stays "
      "heavy-tailed (top-20 share >> 20/pool).\n");
  return 0;
}
