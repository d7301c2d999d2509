#ifndef CULINARYLAB_DATAGEN_SPEC_H_
#define CULINARYLAB_DATAGEN_SPEC_H_

#include <array>
#include <cstdint>
#include <vector>

#include "flavor/category.h"
#include "recipe/region.h"

namespace culinary::datagen {

/// Per-region generation parameters, calibrated to the paper.
struct RegionSpec {
  recipe::Region region = recipe::Region::kWorld;
  /// Number of recipes (Table 1).
  size_t num_recipes = 0;
  /// Target number of distinct ingredients (Table 1).
  size_t num_ingredients = 0;
  /// Pairing bias β used during recipe assembly: β > 0 assembles recipes
  /// from similar-flavored ingredients (uniform pairing, Fig 4 positive
  /// bars); β < 0 from contrasting ones. Magnitude scales the effect.
  double pairing_bias = 0.0;
  /// Fraction of the region's ingredient slots drawn from its anchor
  /// flavor pools (positive-pairing regions concentrate popular
  /// ingredients in few pools; negative-pairing ones spread them).
  double anchor_fraction = 0.45;
  /// Multiplicative preference per ingredient category applied when
  /// assigning popularity ranks (drives the Fig 2 heatmap patterns, e.g.
  /// dairy-heavy France, spice-heavy Indian Subcontinent).
  std::array<double, flavor::kNumCategories> category_preference{};
};

/// Parameters of the synthetic world.
struct WorldSpec {
  uint64_t seed = 20180416;  ///< default world seed (ICDE'18 vintage)

  // --- Flavor universe ----------------------------------------------------
  size_t num_flavor_pools = 24;        ///< disjoint molecule pools
  size_t molecules_per_pool = 70;      ///< pool block size
  size_t num_common_molecules = 320;   ///< molecules shared by everyone
  /// Basic-ingredient profile sizes (lognormal, clipped).
  double profile_size_log_mean = 3.4;  ///< exp(3.4) ≈ 30 molecules
  double profile_size_log_sigma = 0.6;
  size_t profile_size_min = 3;
  size_t profile_size_max = 180;
  /// Composition of a basic ingredient's profile.
  double profile_home_pool_fraction = 0.65;
  double profile_secondary_pool_fraction = 0.10;
  // remainder comes from the common molecule set

  // --- Ingredient universe (paper §III.B counts) ---------------------------
  size_t num_raw_flavordb_ingredients = 845;  ///< before curation
  size_t num_noisy_removed = 29;
  size_t num_specific_added = 13;   ///< anise oil, coconut milk, ...
  size_t num_ahn_added = 4;         ///< cayenne, yeast, tequila, sauerkraut
  size_t num_additives_added = 7;   ///< baking powder, MSG, ...
  size_t num_additives_without_profile = 4;
  size_t num_compound_ingredients = 103;
  size_t compound_constituents_min = 2;
  size_t compound_constituents_max = 5;

  // --- Recipe generation ---------------------------------------------------
  /// Recipe-size distribution: lognormal rounded, clipped to [min, max];
  /// defaults give a bounded thin-tailed distribution with mean ≈ 9
  /// (paper Fig 3a).
  double recipe_size_log_mean = 2.14;  ///< exp(2.14 + σ²/2) ≈ 9.0
  double recipe_size_log_sigma = 0.42;
  size_t recipe_size_min = 2;
  size_t recipe_size_max = 28;
  /// Zipf–Mandelbrot popularity over each region's ingredient ranks
  /// (Fig 3b): P(rank r) ∝ 1/(r+q)^s.
  double popularity_exponent = 1.05;
  double popularity_shift = 8.0;
  /// Candidate pool size per ingredient slot during biased assembly.
  size_t assembly_candidates = 10;

  /// Per-region parameters, Table 1 order.
  std::vector<RegionSpec> regions;

  /// The calibrated default world reproducing the paper's statistics.
  static WorldSpec Default();

  /// A miniature world (hundreds of recipes) for fast tests and examples.
  static WorldSpec Small();

  /// The world a binary's `--small` and `--seed` flags name: Small() or
  /// Default(), reseeded unless `seed` is 0.
  static WorldSpec For(bool small, uint64_t seed = 0);
};

}  // namespace culinary::datagen

#endif  // CULINARYLAB_DATAGEN_SPEC_H_
