#include "datagen/spec.h"

#include <algorithm>

namespace culinary::datagen {

namespace {

using flavor::Category;
using recipe::Region;

/// Table 1 of the paper: recipes and unique mapped ingredients per region.
struct Table1Row {
  Region region;
  size_t recipes;
  size_t ingredients;
};

constexpr Table1Row kTable1[] = {
    {Region::kAfrica, 651, 303},
    {Region::kAustraliaNz, 494, 294},
    {Region::kBritishIsles, 1075, 340},
    {Region::kCanada, 1112, 368},
    {Region::kCaribbean, 1103, 340},
    {Region::kChina, 941, 302},
    {Region::kDach, 487, 260},
    {Region::kEasternEurope, 565, 255},
    {Region::kFrance, 2703, 424},
    {Region::kGreece, 934, 280},
    {Region::kIndianSubcontinent, 4058, 378},
    {Region::kItaly, 7504, 452},
    {Region::kJapan, 580, 283},
    {Region::kKorea, 301, 198},
    {Region::kMexico, 3138, 376},
    {Region::kMiddleEast, 993, 313},
    {Region::kScandinavia, 404, 245},
    {Region::kSouthAmerica, 310, 221},
    {Region::kSouthEastAsia, 611, 266},
    {Region::kSpain, 816, 312},
    {Region::kThailand, 667, 265},
    {Region::kUsa, 16118, 612},
};

/// Fig 4 calibration: sign and relative strength of the pairing bias.
/// Positive list is the paper's order of uniform-pairing regions; negative
/// list is the contrasting-pairing order (strongest deviation first).
double PairingBiasFor(Region region) {
  switch (region) {
    case Region::kItaly:
      return 1.00;
    case Region::kAfrica:
      return 0.95;
    case Region::kCaribbean:
      return 0.90;
    case Region::kGreece:
      return 0.85;
    case Region::kSpain:
      return 0.80;
    case Region::kUsa:
      return 0.75;
    case Region::kIndianSubcontinent:
      return 0.70;
    case Region::kMiddleEast:
      return 0.65;
    case Region::kMexico:
      return 0.60;
    case Region::kAustraliaNz:
      return 0.55;
    case Region::kSouthAmerica:
      return 0.50;
    case Region::kFrance:
      return 0.45;
    case Region::kThailand:
      return 0.42;
    case Region::kChina:
      return 0.38;
    case Region::kSouthEastAsia:
      return 0.34;
    case Region::kCanada:
      return 0.30;
    case Region::kScandinavia:
      return -1.00;
    case Region::kJapan:
      return -0.90;
    case Region::kDach:
      return -0.80;
    case Region::kBritishIsles:
      return -0.70;
    case Region::kKorea:
      return -0.60;
    case Region::kEasternEurope:
      return -0.50;
    case Region::kWorld:
      return 0.0;
  }
  return 0.0;
}

/// Fig 2 calibration: baseline category preference (WORLD row ordering:
/// Vegetable, Spice, Dairy, Herb, Plant, Meat, Fruit dominate; Additive is
/// heavily used but excluded from the figure).
std::array<double, flavor::kNumCategories> BaseCategoryPreference() {
  std::array<double, flavor::kNumCategories> p{};
  p.fill(0.45);
  p[static_cast<size_t>(Category::kVegetable)] = 1.70;
  p[static_cast<size_t>(Category::kSpice)] = 1.45;
  p[static_cast<size_t>(Category::kDairy)] = 1.30;
  p[static_cast<size_t>(Category::kHerb)] = 1.15;
  p[static_cast<size_t>(Category::kPlant)] = 1.05;
  p[static_cast<size_t>(Category::kMeat)] = 1.15;
  p[static_cast<size_t>(Category::kDish)] = 0.26;
  p[static_cast<size_t>(Category::kFruit)] = 0.90;
  p[static_cast<size_t>(Category::kCereal)] = 0.70;
  p[static_cast<size_t>(Category::kAdditive)] = 1.90;
  p[static_cast<size_t>(Category::kFish)] = 0.45;
  p[static_cast<size_t>(Category::kSeafood)] = 0.40;
  p[static_cast<size_t>(Category::kEssentialOil)] = 0.10;
  p[static_cast<size_t>(Category::kFlower)] = 0.12;
  p[static_cast<size_t>(Category::kFungus)] = 0.30;
  return p;
}

/// Region-specific deviations from the base preference (paper §II.A:
/// "France, British Isles, and Scandinavia regions use dairy products more
/// prominently than vegetables. Among regions with predominant use of spice
/// were Indian Subcontinent, Africa, Middle East, and Caribbean").
void ApplyRegionalPreference(Region region,
                             std::array<double, flavor::kNumCategories>& p) {
  auto boost = [&p](Category c, double factor) {
    p[static_cast<size_t>(c)] *= factor;
  };
  switch (region) {
    case Region::kFrance:
    case Region::kBritishIsles:
    case Region::kScandinavia:
      // Dairy above vegetables. Dairy entities are ~2.5x rarer than
      // vegetable entities in the universe, so the per-ingredient boost
      // must overcome the headcount gap.
      boost(Category::kDairy, 2.4);
      boost(Category::kVegetable, 0.80);
      break;
    case Region::kIndianSubcontinent:
    case Region::kAfrica:
    case Region::kMiddleEast:
    case Region::kCaribbean:
      boost(Category::kSpice, 2.2);  // spice-dominant cuisines
      boost(Category::kVegetable, 0.85);
      break;
    case Region::kJapan:
    case Region::kKorea:
      boost(Category::kFish, 2.2);
      boost(Category::kSeafood, 2.0);
      break;
    case Region::kChina:
    case Region::kSouthEastAsia:
    case Region::kThailand:
      boost(Category::kSeafood, 1.6);
      boost(Category::kHerb, 1.3);
      break;
    case Region::kItaly:
    case Region::kGreece:
    case Region::kSpain:
      boost(Category::kHerb, 1.4);
      boost(Category::kPlant, 1.3);  // olive oil country
      break;
    case Region::kMexico:
    case Region::kSouthAmerica:
      boost(Category::kMaize, 2.5);
      break;
    default:
      break;
  }
}

}  // namespace

WorldSpec WorldSpec::Default() {
  WorldSpec spec;
  spec.regions.reserve(recipe::kNumRegions);
  for (const Table1Row& row : kTable1) {
    RegionSpec rs;
    rs.region = row.region;
    rs.num_recipes = row.recipes;
    rs.num_ingredients = row.ingredients;
    rs.pairing_bias = PairingBiasFor(row.region);
    rs.anchor_fraction = rs.pairing_bias > 0 ? 0.50 : 0.25;
    rs.category_preference = BaseCategoryPreference();
    ApplyRegionalPreference(row.region, rs.category_preference);
    spec.regions.push_back(rs);
  }
  return spec;
}

WorldSpec WorldSpec::Small() {
  WorldSpec spec = Default();
  // Shrink the universe and every region by roughly an order of magnitude;
  // keep the structure (pools, curation counts) intact.
  spec.num_flavor_pools = 12;
  spec.molecules_per_pool = 40;
  spec.num_common_molecules = 120;
  spec.num_raw_flavordb_ingredients = 240;
  spec.num_noisy_removed = 8;
  spec.num_specific_added = 5;
  spec.num_ahn_added = 2;
  spec.num_additives_added = 3;
  spec.num_additives_without_profile = 1;
  spec.num_compound_ingredients = 24;
  for (RegionSpec& rs : spec.regions) {
    rs.num_recipes = std::max<size_t>(40, rs.num_recipes / 25);
    rs.num_ingredients = std::max<size_t>(30, rs.num_ingredients / 5);
  }
  return spec;
}

WorldSpec WorldSpec::For(bool small, uint64_t seed) {
  WorldSpec spec = small ? Small() : Default();
  if (seed != 0) spec.seed = seed;
  return spec;
}

}  // namespace culinary::datagen
