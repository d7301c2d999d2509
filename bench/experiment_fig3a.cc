// Experiment: Figure 3(a) — recipe size distribution and cumulative
// statistics across the 22 world cuisines.
//
// The paper's claims to verify: the distribution is bounded and
// thin-tailed with an average of nine ingredients per recipe, and the
// shape is generic across cuisines.
//
// The per-region summary runs on the dataframe layer: recipes flatten into
// one (region, size) table and each region's row is a fused
// filter→aggregate (`AggregateWhere(recipes, Mean/Max, region == R)`) — no
// intermediate filtered table. Means are cross-checked against
// `Cuisine::MeanRecipeSize()` and maxima against the size histogram; any
// disagreement fails the run.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "analysis/composition.h"
#include "analysis/report.h"
#include "common/flags.h"
#include "common/string_util.h"
#include "dataframe/aggregate.h"
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

  std::fprintf(stderr, "[fig3a] generating world...\n");
  auto world_result = datagen::GenerateWorld(spec);
  if (!world_result.ok()) {
    std::fprintf(stderr, "world generation failed: %s\n",
                 world_result.status().ToString().c_str());
    return 1;
  }
  const datagen::SyntheticWorld& world = world_result.value();

  recipe::Cuisine world_cuisine = world.db().WorldCuisine();
  std::printf("=== Figure 3(a): recipe size distribution (WORLD) ===\n");
  std::printf("%s\n",
              analysis::RenderSeries("size", "P(size)",
                                     analysis::RecipeSizePmf(world_cuisine))
                  .c_str());
  std::printf("--- cumulative (inset) ---\n%s\n",
              analysis::RenderSeries("size", "P(<=size)",
                                     analysis::RecipeSizeCdf(world_cuisine),
                                     0, false)
                  .c_str());

  // One (region, size) row per recipe; the per-region stats below are
  // fused filter→aggregate passes over this table.
  auto recipes_result = df::Table::Make(df::Schema(
      {{"region", df::DataType::kString}, {"size", df::DataType::kInt64}}));
  if (!recipes_result.ok()) return 1;
  df::Table recipes = std::move(recipes_result).value();
  for (int i = 0; i < recipe::kNumRegions; ++i) {
    recipe::Region region = recipe::AllRegions()[i];
    const std::string code(recipe::RegionCode(region));
    // CuisineFor returns by value; bind it so recipes() outlives the loop.
    const recipe::Cuisine cuisine = world.db().CuisineFor(region);
    for (const recipe::Recipe& r : cuisine.recipes()) {
      auto status = recipes.AppendRow(
          {df::Value::Str(code),
           df::Value::Int(static_cast<int64_t>(r.size()))});
      if (!status.ok()) {
        std::fprintf(stderr, "building recipes table failed: %s\n",
                     status.ToString().c_str());
        return 1;
      }
    }
  }
  std::fprintf(stderr, "[fig3a] recipes table: %zu rows\n",
               recipes.num_rows());

  auto aggregate = [&](df::AggKind kind, const std::string& code) {
    auto v = df::AggregateWhere(recipes, kind, "size", {"region", code});
    if (!v.ok() || v.value().is_null()) {
      std::fprintf(stderr, "fused aggregate failed for %s\n", code.c_str());
      std::exit(1);
    }
    return *v.value().AsNumeric();
  };

  analysis::TextTable table(
      {"Region", "Mean size", "Median-ish (CDF 0.5)", "Max size"});
  for (int i = 0; i < recipe::kNumRegions; ++i) {
    recipe::Region region = recipe::AllRegions()[i];
    recipe::Cuisine cuisine = world.db().CuisineFor(region);
    const std::string code(recipe::RegionCode(region));
    const double mean = aggregate(df::AggKind::kMean, code);
    const double mx = aggregate(df::AggKind::kMax, code);
    // Cross-check the engine against the histogram-based statistics.
    const double expected_mean = cuisine.MeanRecipeSize();
    if (mean - expected_mean > 1e-9 || expected_mean - mean > 1e-9) {
      std::fprintf(stderr, "MISMATCH %s mean: engine %.17g vs histogram %.17g\n",
                   code.c_str(), mean, expected_mean);
      return 1;
    }
    const int64_t expected_max = cuisine.size_histogram().max_value();
    if (static_cast<int64_t>(mx) != expected_max) {
      std::fprintf(stderr, "MISMATCH %s max: engine %.17g vs histogram %lld\n",
                   code.c_str(), mx, static_cast<long long>(expected_max));
      return 1;
    }
    auto cdf = analysis::RecipeSizeCdf(cuisine);
    size_t median = 0;
    while (median < cdf.size() && cdf[median] < 0.5) ++median;
    table.AddRow({code, FormatDouble(mean, 2), std::to_string(median),
                  std::to_string(static_cast<size_t>(mx))});
  }
  std::fprintf(stderr,
               "[fig3a] engine aggregates match histogram statistics for %d "
               "regions\n",
               recipe::kNumRegions);
  std::printf("%s\n", table.ToString().c_str());
  std::printf("WORLD mean recipe size: %s (paper: ~9, bounded thin-tailed)\n",
              FormatDouble(world_cuisine.MeanRecipeSize(), 2).c_str());
  return 0;
}
