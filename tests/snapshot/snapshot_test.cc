#include "snapshot/snapshot.h"

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/null_models.h"
#include "analysis/options.h"
#include "analysis/pairing.h"
#include "datagen/world.h"
#include "flavor/registry_io.h"
#include "recipe/database.h"
#include "robustness/fault_injector.h"
#include "snapshot/format.h"

namespace culinary::snapshot {
namespace {

using culinary::analysis::AnalysisOptions;
using culinary::analysis::FoodPairingResult;
using culinary::analysis::NullModelOptions;
using culinary::analysis::PairingCache;
using culinary::robustness::FaultInjector;
using culinary::robustness::ScopedFault;

/// The "≥3 datagen seeds" of the round-trip property: one arbitrary, one
/// different arbitrary, and the calibrated default-world vintage.
constexpr uint64_t kSeeds[] = {1, 7, 20180416};

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/snap_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".snap";
    CleanupFiles();
  }
  void TearDown() override {
    FaultInjector::Global().Reset();
    CleanupFiles();
  }
  void CleanupFiles() {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
    std::remove((path_ + ".quarantined").c_str());
    for (const std::string& csv : CsvFiles()) std::remove(csv.c_str());
  }

  /// Prefix of the CSV export a test may write next to its snapshot.
  std::string CsvPrefix() const { return path_ + "_csv"; }
  /// The export's three files in digest order: molecules, entities, recipes.
  std::vector<std::string> CsvFiles() const {
    return {CsvPrefix() + "_molecules.csv", CsvPrefix() + "_entities.csv",
            CsvPrefix() + "_recipes.csv"};
  }

  /// Generates a miniature world for `seed` and wraps it as a LoadedWorld
  /// with the world PairingCache built — the writer-side shape.
  static LoadedWorld BuildWorld(uint64_t seed) {
    datagen::WorldSpec spec = datagen::WorldSpec::Small();
    spec.seed = seed;
    auto generated = datagen::GenerateWorld(spec);
    EXPECT_TRUE(generated.ok()) << generated.status().ToString();
    LoadedWorld world;
    world.registry_ptr = std::move(generated->universe.registry);
    world.database = std::move(generated->database);
    recipe::Cuisine cuisine = world.db().WorldCuisine();
    world.world_cache.emplace(world.registry(), cuisine.unique_ingredients(),
                              AnalysisOptions{});
    return world;
  }

  bool Exists(const std::string& p) const {
    FILE* f = std::fopen(p.c_str(), "rb");
    if (f == nullptr) return false;
    std::fclose(f);
    return true;
  }

  std::string path_;
};

TEST_F(SnapshotTest, RoundTripIsBitIdenticalAcrossSeeds) {
  for (uint64_t seed : kSeeds) {
    SCOPED_TRACE(seed);
    LoadedWorld world = BuildWorld(seed);
    const uint64_t digest = DigestGeneratedWorld(seed, /*small_world=*/true);
    ASSERT_TRUE(WriteSnapshotForWorld(world, digest, path_).ok());

    auto loaded = LoadWorldSnapshot(path_, {.expected_digest = digest});
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

    // Registry: identical universe, slot for slot.
    const auto& orig = world.registry();
    const auto& got = loaded->registry();
    ASSERT_EQ(got.num_molecules(), orig.num_molecules());
    ASSERT_EQ(got.num_ingredient_slots(), orig.num_ingredient_slots());
    for (size_t i = 0; i < orig.num_ingredient_slots(); ++i) {
      const auto* a = orig.Find(static_cast<flavor::IngredientId>(i));
      const auto* b = got.Find(static_cast<flavor::IngredientId>(i));
      ASSERT_EQ(a == nullptr, b == nullptr) << "slot " << i;
      if (a == nullptr) continue;
      EXPECT_EQ(b->name, a->name);
      EXPECT_EQ(b->category, a->category);
      EXPECT_TRUE(b->profile == a->profile) << "slot " << i;
    }

    // Recipes: same corpus in the same order.
    ASSERT_EQ(loaded->db().num_recipes(), world.db().num_recipes());

    // Pairing triangle: byte-for-byte the precomputed shared counts.
    ASSERT_TRUE(loaded->world_cache.has_value());
    EXPECT_EQ(loaded->world_cache->triangle(), world.world_cache->triangle());
  }
}

// The headline property: analysis on a snapshot-loaded world is
// indistinguishable from analysis on the freshly generated one — the full
// Figure-4 null sweep produces bit-identical z-scores at every thread
// count, for every seed.
TEST_F(SnapshotTest, Figure4ZScoresSurviveRoundTripAtEveryThreadCount) {
  for (uint64_t seed : kSeeds) {
    SCOPED_TRACE(seed);
    LoadedWorld world = BuildWorld(seed);
    const uint64_t digest = DigestGeneratedWorld(seed, true);
    ASSERT_TRUE(WriteSnapshotForWorld(world, digest, path_).ok());
    auto loaded = LoadWorldSnapshot(path_, {.expected_digest = digest});
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

    recipe::Cuisine orig_cuisine =
        world.db().CuisineFor(recipe::Region::kItaly);
    recipe::Cuisine loaded_cuisine =
        loaded->db().CuisineFor(recipe::Region::kItaly);
    ASSERT_EQ(loaded_cuisine.recipes().size(), orig_cuisine.recipes().size());

    PairingCache orig_cache(world.registry(),
                            orig_cuisine.unique_ingredients(), {});
    PairingCache loaded_cache(loaded->registry(),
                              loaded_cuisine.unique_ingredients(), {});
    EXPECT_EQ(loaded_cache.triangle(), orig_cache.triangle());

    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      SCOPED_TRACE(threads);
      NullModelOptions options;
      options.num_recipes = 400;
      options.exec.num_threads = threads;
      auto want = analysis::CompareAgainstAllModels(
          orig_cache, orig_cuisine, world.registry(), options);
      auto got = analysis::CompareAgainstAllModels(
          loaded_cache, loaded_cuisine, loaded->registry(), options);
      ASSERT_TRUE(want.ok());
      ASSERT_TRUE(got.ok());
      ASSERT_EQ(got->size(), want->size());
      for (size_t i = 0; i < want->size(); ++i) {
        const FoodPairingResult& a = (*want)[i];
        const FoodPairingResult& b = (*got)[i];
        EXPECT_EQ(b.z_score, a.z_score);
        EXPECT_EQ(b.null_mean, a.null_mean);
        EXPECT_EQ(b.null_stddev, a.null_stddev);
        EXPECT_EQ(b.real_mean, a.real_mean);
      }
    }
  }
}

// The ingest contract: a CSV cold start (export, parse the registry and the
// recipes back, build the world PairingCache) and a snapshot written from
// that world and pinned to the digest of the CSV bytes reach the same
// triangle and the same first statistic. Exact on purpose: falling back
// from the snapshot to the CSVs must be invisible to analysis output.
TEST_F(SnapshotTest, CsvColdStartAndSnapshotLoadReachTheSameFirstStatistic) {
  auto generated = datagen::GenerateWorld(datagen::WorldSpec::Small());
  ASSERT_TRUE(generated.ok()) << generated.status().ToString();
  const std::vector<std::string> files = CsvFiles();
  ASSERT_TRUE(
      flavor::SaveRegistryCsv(generated->registry(), CsvPrefix()).ok());
  ASSERT_TRUE(generated->db().SaveCsv(files[2]).ok());
  auto digest = DigestFiles(files);
  ASSERT_TRUE(digest.ok()) << digest.status().ToString();

  auto registry = flavor::LoadRegistryCsv(CsvPrefix());
  ASSERT_TRUE(registry.ok()) << registry.status().ToString();
  LoadedWorld csv_world;
  csv_world.registry_ptr =
      std::make_unique<flavor::FlavorRegistry>(std::move(registry).value());
  auto db =
      recipe::RecipeDatabase::LoadCsv(files[2], csv_world.registry_ptr.get());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  csv_world.database =
      std::make_unique<recipe::RecipeDatabase>(std::move(db).value());
  const recipe::Cuisine csv_cuisine = csv_world.db().WorldCuisine();
  csv_world.world_cache.emplace(csv_world.registry(),
                                csv_cuisine.unique_ingredients(),
                                AnalysisOptions{});
  const double csv_first_stat =
      analysis::CuisineMeanPairing(*csv_world.world_cache, csv_cuisine);

  ASSERT_TRUE(WriteSnapshotForWorld(csv_world, digest.value(), path_).ok());
  auto loaded = LoadWorldSnapshot(path_, {.expected_digest = digest.value()});
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(loaded->world_cache.has_value());
  EXPECT_EQ(loaded->world_cache->triangle(),
            csv_world.world_cache->triangle());
  const recipe::Cuisine snap_cuisine = loaded->db().WorldCuisine();
  EXPECT_EQ(analysis::CuisineMeanPairing(*loaded->world_cache, snap_cuisine),
            csv_first_stat);
}

TEST_F(SnapshotTest, ViewExposesVersionDigestAndSections) {
  LoadedWorld world = BuildWorld(kSeeds[0]);
  const uint64_t digest = DigestGeneratedWorld(kSeeds[0], true);
  ASSERT_TRUE(WriteSnapshotForWorld(world, digest, path_).ok());
  auto view = SnapshotView::Open(path_);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ(view->version(), kFormatVersion);
  EXPECT_EQ(view->world_digest(), digest);
  EXPECT_EQ(view->num_sections(), 3u);
  EXPECT_TRUE(view->HasSection(SectionId::kRegistry));
  EXPECT_TRUE(view->HasSection(SectionId::kRecipes));
  EXPECT_TRUE(view->HasSection(SectionId::kPairing));
}

TEST_F(SnapshotTest, PairingSectionIsOptional) {
  LoadedWorld world = BuildWorld(kSeeds[0]);
  ASSERT_TRUE(
      WriteWorldSnapshot(world.registry(), world.db(), nullptr, 0, path_)
          .ok());
  auto view = SnapshotView::Open(path_);
  ASSERT_TRUE(view.ok());
  EXPECT_FALSE(view->HasSection(SectionId::kPairing));
  auto loaded = LoadWorldSnapshot(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE(loaded->world_cache.has_value());
  EXPECT_EQ(loaded->db().num_recipes(), world.db().num_recipes());
}

TEST_F(SnapshotTest, MissingFileIsNotFound) {
  auto loaded = LoadWorldSnapshot(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST_F(SnapshotTest, StaleDigestIsFailedPrecondition) {
  LoadedWorld world = BuildWorld(kSeeds[0]);
  const uint64_t digest = DigestGeneratedWorld(kSeeds[0], true);
  ASSERT_TRUE(WriteSnapshotForWorld(world, digest, path_).ok());
  auto loaded = LoadWorldSnapshot(path_, {.expected_digest = digest + 1});
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
}

// Crash-safety at the publish boundary: a failed write (at staging or at
// rename) must leave the previous snapshot loadable, and leave nothing
// when there was no previous snapshot.
TEST_F(SnapshotTest, FailedWriteLeavesOldSnapshotValid) {
  LoadedWorld old_world = BuildWorld(kSeeds[0]);
  const uint64_t old_digest = DigestGeneratedWorld(kSeeds[0], true);
  ASSERT_TRUE(WriteSnapshotForWorld(old_world, old_digest, path_).ok());

  LoadedWorld new_world = BuildWorld(kSeeds[1]);
  for (std::string_view site :
       {robustness::kFaultSnapshotWrite, robustness::kFaultSnapshotRename}) {
    SCOPED_TRACE(site);
    ScopedFault fault(site, FaultInjector::Plan::Always());
    Status status = WriteSnapshotForWorld(
        new_world, DigestGeneratedWorld(kSeeds[1], true), path_);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kIOError);
    auto loaded = LoadWorldSnapshot(path_, {.expected_digest = old_digest});
    ASSERT_TRUE(loaded.ok()) << "old snapshot should still load";
    EXPECT_EQ(loaded->world_cache->triangle(),
              old_world.world_cache->triangle());
    EXPECT_FALSE(Exists(path_ + ".tmp"));
  }
}

TEST_F(SnapshotTest, FailedFirstWriteLeavesNoFile) {
  LoadedWorld world = BuildWorld(kSeeds[0]);
  ScopedFault fault(robustness::kFaultSnapshotRename,
                    FaultInjector::Plan::Always());
  ASSERT_FALSE(
      WriteSnapshotForWorld(world, DigestGeneratedWorld(kSeeds[0], true), path_)
          .ok());
  EXPECT_FALSE(Exists(path_));
  EXPECT_FALSE(Exists(path_ + ".tmp"));
}

TEST_F(SnapshotTest, OrRebuildColdStartRebuildsAndRefreshes) {
  const uint64_t digest = DigestGeneratedWorld(kSeeds[0], true);
  size_t rebuilds = 0;
  auto rebuild = [&]() -> Result<LoadedWorld> {
    ++rebuilds;
    return BuildWorld(kSeeds[0]);
  };

  SnapshotFallbackReport report;
  auto world = LoadWorldSnapshotOrRebuild(path_, digest,
                                          robustness::ErrorPolicy::kBestEffort,
                                          rebuild, /*rewrite_snapshot=*/true,
                                          &report);
  ASSERT_TRUE(world.ok()) << world.status().ToString();
  EXPECT_EQ(rebuilds, 1u);
  EXPECT_TRUE(report.snapshot_missing);
  EXPECT_FALSE(report.fell_back);
  EXPECT_TRUE(report.rewrote);
  ASSERT_TRUE(Exists(path_));

  // Second acquisition hits the freshly written snapshot.
  report = {};
  auto again = LoadWorldSnapshotOrRebuild(path_, digest,
                                          robustness::ErrorPolicy::kBestEffort,
                                          rebuild, true, &report);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(rebuilds, 1u) << "second load must come from the snapshot";
  EXPECT_TRUE(report.snapshot_used);
  EXPECT_EQ(again->world_cache->triangle(), world->world_cache->triangle());
}

}  // namespace
}  // namespace culinary::snapshot
