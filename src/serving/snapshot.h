#ifndef CULINARYLAB_SERVING_SNAPSHOT_H_
#define CULINARYLAB_SERVING_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/fingerprint.h"
#include "analysis/null_models.h"
#include "analysis/options.h"
#include "analysis/pairing.h"
#include "analysis/similarity.h"
#include "common/result.h"
#include "common/statistics.h"
#include "datagen/world.h"
#include "flavor/registry.h"
#include "recipe/cuisine.h"
#include "recipe/database.h"
#include "snapshot/snapshot.h"

namespace culinary::serving {

/// Knobs for materializing a `ServingSnapshot` from a loaded world.
///
/// The build-time sweeps (pairing cache, per-region stats, similarity
/// matrix, baselines) run on every hardware thread; build parallelism never
/// changes the materialized values (the analysis determinism contract). The
/// similarity matrix uses `analysis::CuisineSimilarity::kIngredientJaccard`
/// and the null-model ensembles `NullModelOptions`'s default seed.
struct ServingSnapshotOptions {
  /// Randomized recipes per null model for the per-region baselines; 0
  /// skips baseline precomputation entirely (fast startup — fingerprint
  /// responses then simply omit z-scores).
  size_t null_recipes = 0;
};

/// Everything a resident query engine needs to answer point queries, built
/// once and then strictly immutable: the registry + recipe database
/// triangle, the world-cuisine `PairingCache` (rehydrated from the binary
/// snapshot format when available instead of recomputed), per-cuisine
/// pairing statistics, the naive-Bayes cuisine classifier, the
/// cuisine-similarity matrix, and (optionally) precomputed null-model
/// baselines.
///
/// Instances are published to the engine as `shared_ptr<const
/// ServingSnapshot>` and swapped RCU-style on reload: queries grab one
/// shared_ptr for their whole evaluation, so an in-flight query keeps its
/// world alive and consistent while a reload publishes the next one.
///
/// Every value is produced by the exact batch-path function over the same
/// inputs (`CuisinePairingStats`, `CuisineSimilarityMatrix`, ...), so a
/// serving answer is bit-identical to running the analysis layer directly —
/// the property the serving equivalence tests pin down.
class ServingSnapshot {
 public:
  /// Builds from an owned registry + database. When `world_cache` is
  /// provided (the snapshot rehydration path), it is validated against the
  /// registry and the world cuisine before use — a cache whose ingredient
  /// set does not exactly match the world cuisine's, or whose triangle size
  /// disagrees with its ingredient count, is kFailedPrecondition, never
  /// undefined behavior. Without one, the cache is built from scratch.
  static culinary::Result<std::shared_ptr<const ServingSnapshot>> Build(
      std::unique_ptr<flavor::FlavorRegistry> registry,
      std::unique_ptr<recipe::RecipeDatabase> database,
      std::optional<analysis::PairingCache> world_cache,
      const ServingSnapshotOptions& options = {});

  /// Builds from a binary-snapshot load (takes ownership; reuses the
  /// rehydrated pairing triangle when the snapshot carried one).
  static culinary::Result<std::shared_ptr<const ServingSnapshot>>
  FromLoadedWorld(snapshot::LoadedWorld world,
                  const ServingSnapshotOptions& options = {});

  /// Builds from a generated synthetic world (takes ownership).
  static culinary::Result<std::shared_ptr<const ServingSnapshot>>
  FromSyntheticWorld(datagen::SyntheticWorld world,
                     const ServingSnapshotOptions& options = {});

  const flavor::FlavorRegistry& registry() const { return *registry_; }
  const recipe::RecipeDatabase& db() const { return *database_; }
  const analysis::PairingCache& world_cache() const { return *world_cache_; }
  const recipe::Cuisine& world_cuisine() const { return *world_cuisine_; }

  /// The 22 regional cuisines in `AllRegions()` order.
  const std::vector<recipe::Cuisine>& cuisines() const { return cuisines_; }

  /// Cuisine for a proper region; nullptr for kWorld / out of range (use
  /// `world_cuisine()` for the aggregate).
  const recipe::Cuisine* CuisineForRegion(recipe::Region region) const;

  /// Precomputed `CuisinePairingStats` of `cuisines()[i]` over the world
  /// cache (index-aligned with `cuisines()`).
  const culinary::RunningStats& PairingStatsAt(size_t i) const {
    return pairing_stats_[i];
  }

  const analysis::CuisineClassifier& classifier() const { return *classifier_; }

  /// Symmetric ingredient-Jaccard similarity matrix over `cuisines()`.
  const std::vector<std::vector<double>>& similarity() const {
    return similarity_;
  }

  /// Precomputed four-model null baselines for `cuisines()[i]`; empty when
  /// baselines were disabled (`options.null_recipes == 0`) or the cuisine
  /// is degenerate (no pairable recipes).
  const std::vector<analysis::FoodPairingResult>& BaselinesAt(size_t i) const {
    return baselines_[i];
  }
  bool has_baselines() const { return null_recipes_ > 0; }

 private:
  ServingSnapshot() = default;

  std::unique_ptr<flavor::FlavorRegistry> registry_;
  std::unique_ptr<recipe::RecipeDatabase> database_;
  std::unique_ptr<recipe::Cuisine> world_cuisine_;
  std::unique_ptr<analysis::PairingCache> world_cache_;
  std::vector<recipe::Cuisine> cuisines_;
  std::vector<culinary::RunningStats> pairing_stats_;
  std::unique_ptr<analysis::CuisineClassifier> classifier_;
  std::vector<std::vector<double>> similarity_;
  std::vector<std::vector<analysis::FoodPairingResult>> baselines_;
  size_t null_recipes_ = 0;
};

}  // namespace culinary::serving

#endif  // CULINARYLAB_SERVING_SNAPSHOT_H_
