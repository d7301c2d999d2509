// Experiment: Figure 2 — compositions of recipes in terms of ingredient
// categories (the per-region category heatmap).
//
// Prints the share of recipe–ingredient uses per category for each region
// and the WORLD aggregate, as percentages. The paper's qualitative claims
// to verify: at WORLD level Vegetable, Spice, Dairy, Herb, Plant, Meat and
// Fruit dominate (Additive excluded from the figure); France, British
// Isles and Scandinavia use dairy more prominently than vegetables; the
// Indian Subcontinent, Africa, Middle East and Caribbean are
// spice-predominant.
//
// The pipeline runs on the dataframe layer: every recipe–ingredient use
// becomes a (region, category) row, and each region's composition is one
// fused filter→group-by→count
// (`GroupByAggregateWhere(uses, "category", Count, region == R)`) with no
// intermediate filtered table. Every share is cross-checked against the
// direct `analysis::CategoryComposition` loop; any disagreement fails the
// run.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "analysis/composition.h"
#include "analysis/report.h"
#include "common/flags.h"
#include "common/string_util.h"
#include "dataframe/aggregate.h"
#include "datagen/world.h"

namespace {

using namespace culinary;  // NOLINT(build/namespaces)

/// Appends one (region, category) row per recipe–ingredient use.
culinary::Status AppendUses(df::Table& uses, const recipe::Cuisine& cuisine,
                            const std::string& label,
                            const flavor::FlavorRegistry& registry) {
  for (const recipe::Recipe& r : cuisine.recipes()) {
    for (flavor::IngredientId id : r.ingredients) {
      const flavor::Ingredient* ing = registry.Find(id);
      if (ing == nullptr) continue;
      CULINARY_RETURN_IF_ERROR(uses.AppendRow(
          {df::Value::Str(label),
           df::Value::Str(std::string(flavor::CategoryToString(ing->category)))}));
    }
  }
  return culinary::Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  bool small = false;
  uint64_t seed = 0;
  if (!flags::ParseCommandLine(
          argc, argv,
          {flags::Presence("small", &small, "the miniature world"),
           flags::Unsigned("seed", &seed, "world seed, 0 = the spec's own")})) {
    return 2;
  }
  const datagen::WorldSpec spec = datagen::WorldSpec::For(small, seed);

  std::fprintf(stderr, "[fig2] generating world...\n");
  auto world_result = datagen::GenerateWorld(spec);
  if (!world_result.ok()) {
    std::fprintf(stderr, "world generation failed: %s\n",
                 world_result.status().ToString().c_str());
    return 1;
  }
  const datagen::SyntheticWorld& world = world_result.value();

  // Flatten every cuisine into one uses table; "WORLD" rides along as its
  // own label so the engine treats it like any other region.
  auto uses_result = df::Table::Make(df::Schema(
      {{"region", df::DataType::kString}, {"category", df::DataType::kString}}));
  if (!uses_result.ok()) return 1;
  df::Table uses = std::move(uses_result).value();
  std::vector<std::string> labels = {"WORLD"};
  auto status = AppendUses(uses, world.db().WorldCuisine(), "WORLD",
                           world.registry());
  for (int i = 0; status.ok() && i < recipe::kNumRegions; ++i) {
    recipe::Region region = recipe::AllRegions()[i];
    labels.emplace_back(recipe::RegionCode(region));
    status = AppendUses(uses, world.db().CuisineFor(region), labels.back(),
                        world.registry());
  }
  if (!status.ok()) {
    std::fprintf(stderr, "building uses table failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "[fig2] uses table: %zu rows\n", uses.num_rows());

  // Per-label composition via one fused filter+group-by+count.
  auto composition_of =
      [&](const std::string& label) -> std::array<double, flavor::kNumCategories> {
    std::array<double, flavor::kNumCategories> shares{};
    auto counts = df::GroupByAggregateWhere(
        uses, "category", {{df::AggKind::kCount, "", "uses"}},
        {"region", label});
    if (!counts.ok()) {
      std::fprintf(stderr, "fused group-by failed: %s\n",
                   counts.status().ToString().c_str());
      std::exit(1);
    }
    double total = 0.0;
    for (size_t r = 0; r < counts.value().num_rows(); ++r) {
      total += static_cast<double>(counts.value().GetValue(r, 1).as_int());
    }
    if (total <= 0.0) return shares;
    for (size_t r = 0; r < counts.value().num_rows(); ++r) {
      auto cat =
          flavor::CategoryFromString(counts.value().GetValue(r, 0).as_string());
      if (!cat.has_value()) continue;
      shares[static_cast<size_t>(*cat)] =
          static_cast<double>(counts.value().GetValue(r, 1).as_int()) / total;
    }
    return shares;
  };

  // Cross-check: the engine's composition must agree with the direct
  // analysis loop for every region and category.
  auto check_against = [&](const recipe::Cuisine& cuisine,
                           const std::string& label) {
    auto expected = analysis::CategoryComposition(cuisine, world.registry());
    auto actual = composition_of(label);
    for (size_t c = 0; c < expected.size(); ++c) {
      double diff = expected[c] - actual[c];
      if (diff < -1e-12 || diff > 1e-12) {
        std::fprintf(stderr,
                     "MISMATCH %s category %zu: engine %.17g vs analysis "
                     "%.17g\n",
                     label.c_str(), c, actual[c], expected[c]);
        std::exit(1);
      }
    }
  };
  check_against(world.db().WorldCuisine(), "WORLD");
  for (int i = 0; i < recipe::kNumRegions; ++i) {
    recipe::Region region = recipe::AllRegions()[i];
    check_against(world.db().CuisineFor(region),
                  std::string(recipe::RegionCode(region)));
  }
  std::fprintf(stderr,
               "[fig2] engine compositions match analysis loop for %zu "
               "labels\n",
               labels.size());

  // Categories shown in the figure (Additive excluded, "data not shown").
  std::vector<flavor::Category> shown;
  for (int c = 0; c < flavor::kNumCategories; ++c) {
    auto cat = static_cast<flavor::Category>(c);
    if (cat != flavor::Category::kAdditive) shown.push_back(cat);
  }

  std::vector<std::string> headers = {"Region"};
  for (flavor::Category c : shown) {
    std::string name(flavor::CategoryToString(c));
    headers.push_back(name.substr(0, 6));  // compact header
  }
  analysis::TextTable table(headers);

  std::map<std::string, std::array<double, flavor::kNumCategories>> shares_of;
  for (const std::string& label : labels) {
    shares_of[label] = composition_of(label);
    std::vector<std::string> row = {label};
    for (flavor::Category c : shown) {
      row.push_back(
          FormatDouble(100.0 * shares_of[label][static_cast<size_t>(c)], 1));
    }
    table.AddRow(row);
  }

  std::printf("=== Figure 2: category composition of recipes (%% of uses, "
              "Additive excluded) ===\n%s\n",
              table.ToString().c_str());

  // Verify the two headline regional claims.
  auto share_of = [&](recipe::Region region, flavor::Category c) {
    return shares_of[std::string(recipe::RegionCode(region))]
                    [static_cast<size_t>(c)];
  };
  std::printf("Checks (paper claims):\n");
  for (recipe::Region r : {recipe::Region::kFrance, recipe::Region::kBritishIsles,
                           recipe::Region::kScandinavia}) {
    std::printf("  %s dairy %s vegetable: %.1f%% vs %.1f%%\n",
                std::string(recipe::RegionCode(r)).c_str(),
                share_of(r, flavor::Category::kDairy) >
                        share_of(r, flavor::Category::kVegetable)
                    ? ">"
                    : "<=",
                100 * share_of(r, flavor::Category::kDairy),
                100 * share_of(r, flavor::Category::kVegetable));
  }
  for (recipe::Region r :
       {recipe::Region::kIndianSubcontinent, recipe::Region::kAfrica,
        recipe::Region::kMiddleEast, recipe::Region::kCaribbean}) {
    std::printf("  %s spice share: %.1f%% (spice-predominant)\n",
                std::string(recipe::RegionCode(r)).c_str(),
                100 * share_of(r, flavor::Category::kSpice));
  }
  return 0;
}
