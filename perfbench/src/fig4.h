#ifndef PERFBENCH_FIG4_H_
#define PERFBENCH_FIG4_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "analysis/null_models.h"
#include "common.h"
#include "common/result.h"
#include "flavor/registry.h"
#include "recipe/database.h"

namespace perfbench {

/// Randomized recipes per null model, as in the paper.
inline constexpr size_t kNullRecipes = 100000;
/// Analysis threads of the Fig 4 workload.
inline constexpr size_t kFig4Threads = 2;
/// Cells of one Fig 4 table: 22 regions x 4 null models.
inline constexpr size_t kFig4Cells = 22 * 4;
/// Span id of region `i`'s spans is kFig4SpanIds + i.
inline constexpr uint32_t kFig4SpanIds = 3000000;

/// A world ingested from the CSV export: the path users with real data take.
struct CsvWorld {
  std::unique_ptr<culinary::flavor::FlavorRegistry> registry;
  std::unique_ptr<culinary::recipe::RecipeDatabase> database;
  int64_t registry_ns = 0;  ///< `flavor::LoadRegistryCsv`
  int64_t recipes_ns = 0;   ///< `RecipeDatabase::LoadCsv`
};

culinary::Result<CsvWorld> LoadCsvWorld(const WorldFiles& world);

/// Where one table's time went, summed over the 22 regions.
struct Fig4Breakdown {
  int64_t cuisine_for_ns = 0;
  int64_t cache_build_ns = 0;
  uint64_t cache_pairs = 0;
  std::array<int64_t, 4> null_ns{};  ///< per `NullModelKind`
};

/// Null-model seed of the Fig 4 workload for one benchmark seed.
uint64_t Fig4NullSeed(uint64_t seed);

/// Computes the Fig 4 table: per region `CuisineFor`, a `PairingCache` over
/// its ingredients, then `CompareAgainstNullModel` for each of the 4 models.
/// `table` receives the 88 results in (region, model) order. `cell_us`
/// (optional) receives each null-model comparison's wall time; `log` and
/// `breakdown` (optional) receive spans and per-layer sums.
culinary::Status ComputeFig4Table(
    const culinary::flavor::FlavorRegistry& registry,
    const culinary::recipe::RecipeDatabase& database, uint64_t null_seed,
    size_t threads, std::vector<culinary::analysis::FoodPairingResult>* table,
    std::vector<double>* cell_us, SpanLog* log, Fig4Breakdown* breakdown);

/// True when both results hold bit-identical numbers.
bool SameCell(const culinary::analysis::FoodPairingResult& a,
              const culinary::analysis::FoodPairingResult& b);

}  // namespace perfbench

#endif  // PERFBENCH_FIG4_H_
