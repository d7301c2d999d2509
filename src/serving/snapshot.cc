#include "serving/snapshot.h"

#include <algorithm>
#include <utility>

#include "analysis/contribution.h"
#include "obs/obs.h"
#include "recipe/region.h"

namespace culinary::serving {

namespace {

/// The serving half of the triangle-mismatch bugfix: a rehydrated cache is
/// only usable when its ingredient universe is exactly the world cuisine's
/// (same ids, same order — dense indices must agree) and its triangle size
/// matches its ingredient count. Anything else is a registry/triangle skew
/// that would read the wrong rows, so it is rejected as kFailedPrecondition
/// before any query can touch it.
culinary::Status ValidateWorldCache(const flavor::FlavorRegistry& registry,
                                    const recipe::Cuisine& world_cuisine,
                                    const analysis::PairingCache& cache) {
  const std::vector<flavor::IngredientId>& expected =
      world_cuisine.unique_ingredients();
  const size_t n = cache.num_ingredients();
  if (n != expected.size()) {
    return culinary::Status::FailedPrecondition(
        "world pairing cache covers " + std::to_string(n) +
        " ingredients; the world cuisine has " +
        std::to_string(expected.size()));
  }
  for (size_t i = 0; i < n; ++i) {
    const flavor::IngredientId id = cache.IdAt(i);
    if (id != expected[i]) {
      return culinary::Status::FailedPrecondition(
          "world pairing cache ingredient at dense index " +
          std::to_string(i) + " is id " + std::to_string(id) +
          "; the world cuisine has id " + std::to_string(expected[i]));
    }
    if (id < 0 ||
        id >= static_cast<flavor::IngredientId>(
                  registry.num_ingredient_slots())) {
      return culinary::Status::FailedPrecondition(
          "world pairing cache ingredient id " + std::to_string(id) +
          " is outside the registry's " +
          std::to_string(registry.num_ingredient_slots()) + " slots");
    }
  }
  const size_t expected_tri = n < 2 ? 0 : n * (n - 1) / 2;
  if (cache.triangle().size() != expected_tri) {
    return culinary::Status::FailedPrecondition(
        "world pairing cache triangle has " +
        std::to_string(cache.triangle().size()) + " entries; " +
        std::to_string(n) + " ingredients need " +
        std::to_string(expected_tri));
  }
  return culinary::Status::OK();
}

}  // namespace

const recipe::Cuisine* ServingSnapshot::CuisineForRegion(
    recipe::Region region) const {
  const int index = static_cast<int>(region);
  if (index < 0 || index >= recipe::kNumRegions) return nullptr;
  for (const recipe::Cuisine& cuisine : cuisines_) {
    if (cuisine.region() == region) return &cuisine;
  }
  return nullptr;
}

culinary::Result<std::shared_ptr<const ServingSnapshot>> ServingSnapshot::Build(
    std::unique_ptr<flavor::FlavorRegistry> registry,
    std::unique_ptr<recipe::RecipeDatabase> database,
    std::optional<analysis::PairingCache> world_cache,
    const ServingSnapshotOptions& options) {
  if (registry == nullptr || database == nullptr) {
    return culinary::Status::InvalidArgument(
        "serving snapshot needs a registry and a database");
  }
  CULINARY_OBS_SPAN(span, "serving.snapshot_build", "serving");
  const analysis::AnalysisOptions exec{};  // every hardware thread

  auto snap = std::shared_ptr<ServingSnapshot>(new ServingSnapshot());
  snap->registry_ = std::move(registry);
  snap->database_ = std::move(database);
  snap->world_cuisine_ =
      std::make_unique<recipe::Cuisine>(snap->database_->WorldCuisine());
  snap->cuisines_ = snap->database_->AllCuisines();
  snap->null_recipes_ = options.null_recipes;

  if (world_cache.has_value()) {
    CULINARY_RETURN_IF_ERROR(ValidateWorldCache(
        *snap->registry_, *snap->world_cuisine_, *world_cache));
    snap->world_cache_ = std::make_unique<analysis::PairingCache>(
        std::move(world_cache).value());
  } else {
    snap->world_cache_ = std::make_unique<analysis::PairingCache>(
        *snap->registry_, snap->world_cuisine_->unique_ingredients(), exec);
  }

  // Per-cuisine pairing statistics via the exact batch-path sweep, so a
  // fingerprint's mean pairing is bit-identical to calling
  // `CuisinePairingStats` directly.
  snap->pairing_stats_.reserve(snap->cuisines_.size());
  for (const recipe::Cuisine& cuisine : snap->cuisines_) {
    snap->pairing_stats_.push_back(
        analysis::CuisinePairingStats(*snap->world_cache_, cuisine, exec));
  }

  snap->classifier_ =
      std::make_unique<analysis::CuisineClassifier>(snap->cuisines_);

  culinary::Status similarity_status;
  snap->similarity_ = analysis::CuisineSimilarityMatrix(
      snap->cuisines_, analysis::CuisineSimilarity::kIngredientJaccard, exec,
      &similarity_status);
  if (!similarity_status.ok()) return similarity_status;

  snap->baselines_.assign(snap->cuisines_.size(), {});
  if (options.null_recipes > 0) {
    analysis::NullModelOptions null_options;
    null_options.num_recipes = options.null_recipes;
    for (size_t i = 0; i < snap->cuisines_.size(); ++i) {
      const recipe::Cuisine& cuisine = snap->cuisines_[i];
      if (cuisine.num_pairable_recipes() == 0) continue;
      auto result = analysis::CompareAgainstAllModels(
          *snap->world_cache_, cuisine, *snap->registry_, null_options);
      // Degenerate cuisines (an empty region in a tiny world) simply go
      // without baselines; a real sweep failure propagates.
      if (!result.ok()) {
        if (result.status().IsFailedPrecondition()) continue;
        return result.status();
      }
      snap->baselines_[i] = std::move(result).value();
    }
  }

  CULINARY_OBS_COUNT("serving.snapshot_builds", 1);
  CULINARY_OBS_GAUGE_SET(
      "serving.snapshot_recipes",
      static_cast<double>(snap->database_->num_recipes()));
  return std::shared_ptr<const ServingSnapshot>(std::move(snap));
}

culinary::Result<std::shared_ptr<const ServingSnapshot>>
ServingSnapshot::FromLoadedWorld(snapshot::LoadedWorld world,
                                 const ServingSnapshotOptions& options) {
  return Build(std::move(world.registry_ptr), std::move(world.database),
               std::move(world.world_cache), options);
}

culinary::Result<std::shared_ptr<const ServingSnapshot>>
ServingSnapshot::FromSyntheticWorld(datagen::SyntheticWorld world,
                                    const ServingSnapshotOptions& options) {
  return Build(std::move(world.universe.registry), std::move(world.database),
               std::nullopt, options);
}

}  // namespace culinary::serving
