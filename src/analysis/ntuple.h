#ifndef CULINARYLAB_ANALYSIS_NTUPLE_H_
#define CULINARYLAB_ANALYSIS_NTUPLE_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "common/statistics.h"
#include "flavor/registry.h"
#include "recipe/cuisine.h"

namespace culinary::analysis {

/// Higher-order flavor sharing (the paper's future-work question: "What are
/// the patterns at higher order n-tuples — triples and quadruples?").
///
/// The order-k score of a recipe generalizes N_s from pairs to k-tuples:
///
///   N_s^(k)(R) = C(n_R, k)^{-1} · Σ_{|T| = k, T ⊆ R} |∩_{i ∈ T} F_i|
///
/// i.e. the mean number of flavor compounds shared by *all* members of a
/// k-subset, averaged over every k-subset of the recipe. k = 2 recovers the
/// classic pairing score.

/// N_s^(k) for one recipe. Returns 0 for recipes with fewer than k
/// ingredients or k < 2. Profiles are resolved through `registry`.
double RecipeTupleScore(const flavor::FlavorRegistry& registry,
                        const std::vector<flavor::IngredientId>& ids,
                        size_t k);

/// Mean N_s^(k) over the cuisine's recipes with at least k ingredients.
culinary::RunningStats CuisineTupleStats(const flavor::FlavorRegistry& registry,
                                         const recipe::Cuisine& cuisine,
                                         size_t k);

/// Result of the order-k uniform-random null comparison.
struct TupleComparison {
  size_t k = 0;
  double real_mean = 0.0;
  double null_mean = 0.0;
  double null_stddev = 0.0;
  int64_t null_count = 0;
  double z_score = 0.0;
};

/// Compares order-k sharing of `cuisine` against a uniform random cuisine
/// preserving ingredient set and size distribution (the paper's Random
/// Cuisine, evaluated at order k). Recipes shorter than k are skipped on
/// both sides. InvalidArgument when k < 2 or `num_null_recipes` < 2.
culinary::Result<TupleComparison> CompareTupleAgainstRandom(
    const flavor::FlavorRegistry& registry, const recipe::Cuisine& cuisine,
    size_t k, size_t num_null_recipes = 20000, uint64_t seed = 0xC0FFEE);

}  // namespace culinary::analysis

#endif  // CULINARYLAB_ANALYSIS_NTUPLE_H_
