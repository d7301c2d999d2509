#include "fig4.h"

#include <cstring>
#include <utility>

#include "analysis/pairing.h"
#include "common/random.h"
#include "flavor/registry_io.h"
#include "recipe/region.h"

namespace perfbench {

namespace analysis = culinary::analysis;

culinary::Result<CsvWorld> LoadCsvWorld(const WorldFiles& world) {
  CsvWorld out;
  const int64_t t0 = NowNs();
  auto registry = culinary::flavor::LoadRegistryCsv(world.registry_prefix());
  if (!registry.ok()) return registry.status();
  out.registry = std::make_unique<culinary::flavor::FlavorRegistry>(
      std::move(registry).value());
  const int64_t t1 = NowNs();
  auto database = culinary::recipe::RecipeDatabase::LoadCsv(
      world.recipes_csv(), out.registry.get());
  if (!database.ok()) return database.status();
  out.database = std::make_unique<culinary::recipe::RecipeDatabase>(
      std::move(database).value());
  const int64_t t2 = NowNs();
  out.registry_ns = t1 - t0;
  out.recipes_ns = t2 - t1;
  return out;
}

uint64_t Fig4NullSeed(uint64_t seed) {
  // The paper-default ensemble seed, forked per benchmark seed.
  return culinary::DeriveStreamSeed(0xC0FFEE, seed);
}

culinary::Status ComputeFig4Table(
    const culinary::flavor::FlavorRegistry& registry,
    const culinary::recipe::RecipeDatabase& database, uint64_t null_seed,
    size_t threads, std::vector<analysis::FoodPairingResult>* table,
    std::vector<double>* cell_us, SpanLog* log, Fig4Breakdown* breakdown) {
  static constexpr const char* kSweepSpans[4] = {
      "analysis.null_sweep.random", "analysis.null_sweep.frequency",
      "analysis.null_sweep.category", "analysis.null_sweep.freqcat"};
  SpanLog disabled(false);
  SpanLog& spans = log != nullptr ? *log : disabled;
  Fig4Breakdown sums;

  analysis::NullModelOptions options;
  options.num_recipes = kNullRecipes;
  options.seed = null_seed;
  options.exec.num_threads = threads;

  table->clear();
  for (size_t i = 0; i < static_cast<size_t>(culinary::recipe::kNumRegions);
       ++i) {
    const culinary::recipe::Region region = culinary::recipe::AllRegions()[i];
    const uint32_t id = kFig4SpanIds + static_cast<uint32_t>(i);
    const int32_t root = spans.Begin("fig4.region", id);

    int32_t span = spans.Begin("recipe.cuisine_for", id, root);
    int64_t t0 = NowNs();
    const culinary::recipe::Cuisine cuisine = database.CuisineFor(region);
    sums.cuisine_for_ns += NowNs() - t0;
    spans.End(span);

    span = spans.Begin("analysis.cache_build", id, root);
    t0 = NowNs();
    const analysis::PairingCache cache(registry, cuisine.unique_ingredients(),
                                       options.exec);
    sums.cache_build_ns += NowNs() - t0;
    spans.End(span);
    const uint64_t n = cache.num_ingredients();
    sums.cache_pairs += n * (n > 0 ? n - 1 : 0) / 2;

    for (int kind = 0; kind < 4; ++kind) {
      span = spans.Begin(kSweepSpans[kind], id, root);
      t0 = NowNs();
      auto result = analysis::CompareAgainstNullModel(
          cache, cuisine, registry, static_cast<analysis::NullModelKind>(kind),
          options);
      const int64_t elapsed = NowNs() - t0;
      spans.End(span);
      if (!result.ok()) return result.status();
      sums.null_ns[static_cast<size_t>(kind)] += elapsed;
      if (cell_us != nullptr) cell_us->push_back(NsToUs(elapsed));
      table->push_back(result.value());
    }
    spans.End(root);
  }
  if (breakdown != nullptr) *breakdown = sums;
  return culinary::Status::OK();
}

bool SameCell(const analysis::FoodPairingResult& a,
              const analysis::FoodPairingResult& b) {
  const auto same = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof(double)) == 0;
  };
  return a.kind == b.kind && a.null_count == b.null_count &&
         same(a.real_mean, b.real_mean) && same(a.null_mean, b.null_mean) &&
         same(a.null_stddev, b.null_stddev) && same(a.z_score, b.z_score);
}

}  // namespace perfbench
