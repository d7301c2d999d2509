#include "analysis/ntuple.h"

#include <algorithm>

namespace culinary::analysis {

namespace {

/// Iterates all k-subsets of [0, n) via the revolving-door order; calls
/// `visit` with the index vector. n and k are small (n <= ~30, k <= 4).
template <typename Visitor>
void ForEachSubset(size_t n, size_t k, Visitor visit) {
  if (k == 0 || k > n) return;
  std::vector<size_t> idx(k);
  for (size_t i = 0; i < k; ++i) idx[i] = i;
  while (true) {
    visit(idx);
    // Advance to the next combination.
    size_t i = k;
    while (i > 0) {
      --i;
      if (idx[i] != i + n - k) {
        ++idx[i];
        for (size_t j = i + 1; j < k; ++j) idx[j] = idx[j - 1] + 1;
        break;
      }
      if (i == 0) return;
    }
  }
}

double TupleScoreForProfiles(
    const std::vector<const flavor::FlavorProfile*>& profiles, size_t k) {
  const size_t n = profiles.size();
  if (k < 2 || n < k) return 0.0;
  uint64_t total = 0;
  uint64_t subsets = 0;
  ForEachSubset(n, k, [&](const std::vector<size_t>& idx) {
    flavor::FlavorProfile inter = *profiles[idx[0]];
    for (size_t i = 1; i < idx.size() && !inter.empty(); ++i) {
      inter = inter.Intersection(*profiles[idx[i]]);
    }
    total += inter.size();
    ++subsets;
  });
  if (subsets == 0) return 0.0;
  return static_cast<double>(total) / static_cast<double>(subsets);
}

std::vector<const flavor::FlavorProfile*> ResolveProfiles(
    const flavor::FlavorRegistry& registry,
    const std::vector<flavor::IngredientId>& ids) {
  static const flavor::FlavorProfile& kEmpty = *new flavor::FlavorProfile();
  std::vector<const flavor::FlavorProfile*> out;
  out.reserve(ids.size());
  for (flavor::IngredientId id : ids) {
    const flavor::Ingredient* ing = registry.Find(id);
    out.push_back(ing != nullptr ? &ing->profile : &kEmpty);
  }
  return out;
}

}  // namespace

double RecipeTupleScore(const flavor::FlavorRegistry& registry,
                        const std::vector<flavor::IngredientId>& ids,
                        size_t k) {
  return TupleScoreForProfiles(ResolveProfiles(registry, ids), k);
}

culinary::RunningStats CuisineTupleStats(const flavor::FlavorRegistry& registry,
                                         const recipe::Cuisine& cuisine,
                                         size_t k) {
  culinary::RunningStats stats;
  for (const recipe::Recipe& r : cuisine.recipes()) {
    if (r.ingredients.size() < k) continue;
    stats.Add(RecipeTupleScore(registry, r.ingredients, k));
  }
  return stats;
}

culinary::Result<TupleComparison> CompareTupleAgainstRandom(
    const flavor::FlavorRegistry& registry, const recipe::Cuisine& cuisine,
    size_t k, size_t num_null_recipes, uint64_t seed) {
  if (k < 2) {
    return culinary::Status::InvalidArgument("tuple order k must be >= 2");
  }
  // One null recipe has no spread: σ would be 0 and the Z-score 0.
  if (num_null_recipes < 2) {
    return culinary::Status::InvalidArgument(
        "num_null_recipes must be at least 2");
  }
  const std::vector<flavor::IngredientId>& pool = cuisine.unique_ingredients();
  if (pool.size() < k) {
    return culinary::Status::FailedPrecondition(
        "cuisine has fewer ingredients than k");
  }
  culinary::RunningStats real = CuisineTupleStats(registry, cuisine, k);
  if (real.count() == 0) {
    return culinary::Status::FailedPrecondition(
        "no recipe has >= k ingredients");
  }

  // Uniform random cuisine: empirical size distribution, uniform picks.
  const culinary::Histogram& hist = cuisine.size_histogram();
  std::vector<double> weights;
  for (int64_t v = 0; v <= hist.max_value(); ++v) {
    // Sizes below k cannot produce an order-k tuple; match the real-side
    // filter by only sampling sizes >= k.
    weights.push_back(v >= static_cast<int64_t>(k)
                          ? static_cast<double>(hist.CountAt(v))
                          : 0.0);
  }
  culinary::AliasSampler size_sampler(weights);
  if (!size_sampler.valid()) {
    return culinary::Status::FailedPrecondition(
        "size distribution has no recipes with >= k ingredients");
  }

  culinary::Rng rng(seed ^ (static_cast<uint64_t>(k) << 48));
  culinary::RunningStats null_stats;
  for (size_t i = 0; i < num_null_recipes; ++i) {
    size_t size = size_sampler.Sample(rng);
    size = std::min(size, pool.size());
    std::vector<size_t> picks = rng.SampleWithoutReplacement(pool.size(), size);
    std::vector<flavor::IngredientId> ids;
    ids.reserve(picks.size());
    for (size_t p : picks) ids.push_back(pool[p]);
    null_stats.Add(RecipeTupleScore(registry, ids, k));
  }

  TupleComparison out;
  out.k = k;
  out.real_mean = real.mean();
  out.null_mean = null_stats.mean();
  out.null_stddev = null_stats.stddev();
  out.null_count = null_stats.count();
  out.z_score = culinary::ZScore(out.real_mean, out.null_mean, out.null_stddev,
                                 out.null_count);
  return out;
}

}  // namespace culinary::analysis
