// Chaos soak: export the small synthetic world to CSV, deterministically
// corrupt ~5% of it (truncation, unterminated quotes, bit flips, duplicate
// lines, oversized fields, ragged rows), and prove the paper's experiment
// pipeline still completes end-to-end under the degraded ingestion policies
// — with nonzero quarantine, high coverage, and a fail-fast strict mode.

#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/composition.h"
#include "analysis/contribution.h"
#include "analysis/null_models.h"
#include "analysis/pairing.h"
#include "analysis/report.h"
#include "datagen/world.h"
#include "flavor/registry_io.h"
#include "recipe/database.h"
#include "robustness/chaos.h"
#include "robustness/error_sink.h"
#include "snapshot/format.h"

namespace culinary {
namespace {

using recipe::Region;
using robustness::ChaosOptions;
using robustness::ChaosStats;
using robustness::ErrorPolicy;
using robustness::ErrorSink;

constexpr double kCorruptionRate = 0.05;
constexpr uint64_t kChaosSeed = 20180416;

/// Exports the pristine small world once and corrupts every CSV in place
/// (same rate, forked seeds), shared across all tests in this file.
class ChaosSoakTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world_ = [] {
      auto result = datagen::GenerateSmallWorld();
      EXPECT_TRUE(result.ok()) << result.status().ToString();
      return new datagen::SyntheticWorld(std::move(result).value());
    }();
    // ctest runs each test case as its own concurrent process; the prefix
    // must be per-process so parallel cases don't clobber each other's
    // exports mid-corruption.
    prefix_ = new std::string(::testing::TempDir() + "/culinary_soak_" +
                              std::to_string(getpid()));
    ASSERT_TRUE(datagen::ExportWorldCsv(*world_, *prefix_).ok());
    ASSERT_TRUE(
        flavor::SaveRegistryCsv(world_->registry(), *prefix_ + "_reg").ok());

    // Corrupt the recipe corpus and both registry dumps deterministically.
    size_t salt = 0;
    for (const char* suffix :
         {"_recipes.csv", "_reg_molecules.csv", "_reg_entities.csv"}) {
      ChaosOptions options;
      options.corruption_rate = kCorruptionRate;
      options.seed = kChaosSeed + salt++;
      ChaosStats stats;
      ASSERT_TRUE(robustness::CorruptCsvFile(*prefix_ + suffix,
                                             *prefix_ + suffix, options,
                                             &stats)
                      .ok());
      ASSERT_GT(stats.lines_corrupted, 0u) << suffix;
    }
  }

  static const datagen::SyntheticWorld* world_;
  static const std::string* prefix_;
};

const datagen::SyntheticWorld* ChaosSoakTest::world_ = nullptr;
const std::string* ChaosSoakTest::prefix_ = nullptr;

TEST_F(ChaosSoakTest, StrictModeFailsFastWithLocatedParseError) {
  auto db = recipe::RecipeDatabase::LoadCsv(*prefix_ + "_recipes.csv",
                                            &world_->registry());
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kParseError);
  EXPECT_NE(db.status().message().find("line "), std::string::npos)
      << db.status().ToString();

  auto registry = flavor::LoadRegistryCsv(*prefix_ + "_reg");
  EXPECT_FALSE(registry.ok());
}

TEST_F(ChaosSoakTest, UnterminatedQuoteErrorCarriesLineAndColumn) {
  // Quote-only corruption pins down the failure kind so we can assert the
  // full line/column location strict mode must report.
  std::string path = *prefix_ + "_quotes.csv";
  ASSERT_TRUE(datagen::ExportWorldCsv(*world_, *prefix_ + "_q").ok());
  ChaosOptions options;
  options.corruption_rate = 0.02;
  options.seed = kChaosSeed;
  options.enable_truncation = false;
  options.enable_bit_flips = false;
  options.enable_duplicate_lines = false;
  options.enable_oversized_fields = false;
  options.enable_ragged_rows = false;
  ChaosStats stats;
  ASSERT_TRUE(robustness::CorruptCsvFile(*prefix_ + "_q_recipes.csv", path,
                                         options, &stats)
                  .ok());
  ASSERT_GT(stats.unterminated_quotes, 0u);

  auto db = recipe::RecipeDatabase::LoadCsv(path, &world_->registry());
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kParseError);
  EXPECT_NE(db.status().message().find("line "), std::string::npos)
      << db.status().ToString();
  EXPECT_NE(db.status().message().find("column "), std::string::npos)
      << db.status().ToString();
}

TEST_F(ChaosSoakTest, DegradedPipelineCompletesAllExperiments) {
  // Registry first: quarantined rows become placeholder slots, so the id
  // space recipes resolve against stays aligned.
  ErrorSink registry_sink;
  robustness::IngestStats registry_stats;
  flavor::RegistryLoadOptions reg_options;
  reg_options.error_policy = ErrorPolicy::kBestEffort;
  reg_options.error_sink = &registry_sink;
  reg_options.stats = &registry_stats;
  auto registry = flavor::LoadRegistryCsv(*prefix_ + "_reg", reg_options);
  ASSERT_TRUE(registry.ok()) << registry.status().ToString();
  EXPECT_GT(registry_stats.records_quarantined, 0u);
  EXPECT_GT(registry_stats.coverage(), 0.9);

  // Recipe corpus under skip-and-report.
  ErrorSink sink;
  recipe::IngestOptions options;
  options.error_policy = ErrorPolicy::kSkipAndReport;
  options.error_sink = &sink;
  recipe::IngestReport report;
  auto db = recipe::RecipeDatabase::LoadCsv(*prefix_ + "_recipes.csv",
                                            &registry.value(), options,
                                            &report);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_GT(report.records.records_quarantined + report.rows_quarantined, 0u);
  EXPECT_GT(report.coverage(), 0.9) << report.Summary();
  EXPECT_FALSE(sink.empty());

  // The ingestion report renders with quarantine counts and coverage.
  std::string rendered = analysis::RenderIngestReport("soak corpus", report,
                                                      &sink);
  EXPECT_NE(rendered.find("coverage"), std::string::npos);
  EXPECT_NE(rendered.find("quarantined"), std::string::npos);

  // --- The paper's experiment suite over the degraded world. ---
  recipe::Cuisine world_cuisine = db->WorldCuisine();
  ASSERT_GT(world_cuisine.num_recipes(), 0u);

  // Table 1 / Fig 2: category composition and recipe-size distribution.
  auto shares = analysis::CategoryComposition(world_cuisine, *registry);
  double share_sum = 0.0;
  for (double s : shares) share_sum += s;
  EXPECT_NEAR(share_sum, 1.0, 1e-9);
  auto pmf = analysis::RecipeSizePmf(world_cuisine);
  EXPECT_FALSE(pmf.empty());

  // Fig 3: ingredient popularity follows Zipf-Mandelbrot.
  auto popularity = analysis::NormalizedPopularity(world_cuisine);
  EXPECT_FALSE(popularity.empty());
  auto [zipf_a, zipf_b] = analysis::FitZipfMandelbrot(world_cuisine);
  EXPECT_TRUE(std::isfinite(zipf_a));
  EXPECT_TRUE(std::isfinite(zipf_b));

  // Fig 4: food pairing against the random null model.
  recipe::Cuisine italy = db->CuisineFor(Region::kItaly);
  ASSERT_GT(italy.num_recipes(), 0u);
  analysis::PairingCache cache(*registry, italy.unique_ingredients());
  analysis::NullModelOptions null_options;
  null_options.num_recipes = 500;
  auto pairing = analysis::CompareAgainstNullModel(
      cache, italy, *registry, analysis::NullModelKind::kRandom, null_options);
  ASSERT_TRUE(pairing.ok()) << pairing.status().ToString();
  EXPECT_TRUE(std::isfinite(pairing->z_score));

  // Fig 5: top contributing ingredients.
  auto top = analysis::TopContributors(cache, italy, 3, true);
  EXPECT_FALSE(top.empty());
}

TEST_F(ChaosSoakTest, BestEffortKeepsAtLeastAsMuchAsSkip) {
  auto load = [&](ErrorPolicy policy) {
    recipe::IngestOptions options;
    options.error_policy = policy;
    recipe::IngestReport report;
    auto db = recipe::RecipeDatabase::LoadCsv(*prefix_ + "_recipes.csv",
                                              &world_->registry(), options,
                                              &report);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    return report.rows_loaded;
  };
  size_t skip = load(ErrorPolicy::kSkipAndReport);
  size_t best = load(ErrorPolicy::kBestEffort);
  EXPECT_GE(best, skip);
  EXPECT_GT(skip, 0u);
}

/// FNV-1a over `lines`, each newline-terminated, as 16 hex digits.
std::string DigestLines(const std::vector<std::string>& lines) {
  uint64_t hash = snapshot::kFnvOffsetBasis;
  for (const std::string& line : lines) {
    hash = snapshot::Fnv64Continue(hash, line.data(), line.size());
    hash = snapshot::Fnv64Continue(hash, "\n", 1);
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016" PRIx64, hash);
  return hex;
}

/// The sink's diagnostics in sorted order: the CSV layer may report a
/// file's tokenizer and width errors in either order.
std::string SortedDiagnosticsDigest(const ErrorSink& sink) {
  std::vector<std::string> lines;
  for (const robustness::Diagnostic& d : sink.diagnostics()) {
    lines.push_back(d.ToString());
  }
  std::sort(lines.begin(), lines.end());
  return DigestLines(lines);
}

std::string CountsByCode(const ErrorSink& sink) {
  std::string out;
  for (const auto& [code, count] : sink.counts_by_code()) {
    out += std::string(StatusCodeToString(code)) + "=" +
           std::to_string(count) + " ";
  }
  return out;
}

/// Every molecule and every ingredient slot (tombstones included) with the
/// fields the registry CSV carries.
std::string RegistryDigest(const flavor::FlavorRegistry& registry) {
  std::vector<std::string> lines;
  for (size_t m = 0; m < registry.num_molecules(); ++m) {
    auto mol = registry.GetMolecule(static_cast<flavor::MoleculeId>(m));
    lines.push_back(std::to_string(m) + "," + mol->name);
  }
  for (size_t i = 0; i < registry.num_ingredient_slots(); ++i) {
    auto ing = registry.GetIngredient(static_cast<flavor::IngredientId>(i),
                                      /*include_removed=*/true);
    std::ostringstream os;
    os << ing->id << ',' << ing->name << ','
       << flavor::CategoryToString(ing->category) << ','
       << static_cast<int>(ing->kind) << ',' << ing->removed << ',';
    for (flavor::MoleculeId m : ing->profile.ids()) os << m << ';';
    os << ',';
    for (flavor::IngredientId c : ing->constituents) os << c << ';';
    lines.push_back(os.str());
  }
  return DigestLines(lines);
}

std::string RecipesDigest(const recipe::RecipeDatabase& db) {
  std::vector<std::string> lines;
  for (const recipe::Recipe& r : db.recipes()) {
    std::string line(recipe::RegionCode(r.region));
    for (flavor::IngredientId id : r.ingredients) {
      line += "," + std::to_string(id);
    }
    lines.push_back(std::move(line));
  }
  return DigestLines(lines);
}

/// What the degraded loaders return on the soak corpus, per policy.
struct PinnedIngest {
  ErrorPolicy policy;
  // Registry: merged IngestStats over both files, then the sink.
  size_t registry_total, registry_ok, registry_quarantined;
  size_t registry_diagnostics;
  const char* registry_codes;
  const char* registry_diagnostics_digest;
  const char* registry_digest;
  // Recipes, loaded against that registry: IngestReport, then the sink.
  size_t records_total, records_ok, records_quarantined;
  size_t rows_loaded, rows_quarantined, names_dropped;
  size_t recipe_diagnostics;
  const char* recipe_codes;
  const char* recipe_diagnostics_digest;
  const char* recipes_digest;
};

TEST_F(ChaosSoakTest, DegradedLoadsReturnPinnedRecordsAndDiagnostics) {
  const PinnedIngest kPins[] = {
      {ErrorPolicy::kSkipAndReport, 880, 841, 39, 39, "ParseError=39 ",
       "a479f49c2632b784", "7581ae7ccb77bae0", 1996, 1952, 44, 1949, 3, 441,
       47, "ParseError=47 ", "5b521198b2261f12", "e3006b14533dea3f"},
      {ErrorPolicy::kBestEffort, 880, 869, 11, 41, "ParseError=41 ",
       "3d8066e8ada33290", "d623226ab28fbb06", 1996, 1995, 1, 1979, 16, 85,
       60, "ParseError=60 ", "c40009e70ddd92e8", "66ced4520674b973"},
  };
  for (const PinnedIngest& pin : kPins) {
    SCOPED_TRACE(std::string(robustness::ErrorPolicyToString(pin.policy)));
    ErrorSink registry_sink(1 << 20);
    robustness::IngestStats registry_stats;
    flavor::RegistryLoadOptions reg_options;
    reg_options.error_policy = pin.policy;
    reg_options.error_sink = &registry_sink;
    reg_options.stats = &registry_stats;
    auto registry = flavor::LoadRegistryCsv(*prefix_ + "_reg", reg_options);
    ASSERT_TRUE(registry.ok()) << registry.status().ToString();
    EXPECT_EQ(registry_stats.records_total, pin.registry_total);
    EXPECT_EQ(registry_stats.records_ok, pin.registry_ok);
    EXPECT_EQ(registry_stats.records_quarantined, pin.registry_quarantined);
    EXPECT_EQ(registry_sink.dropped(), 0u);
    EXPECT_EQ(registry_sink.total(), pin.registry_diagnostics);
    EXPECT_EQ(CountsByCode(registry_sink), pin.registry_codes);
    EXPECT_EQ(SortedDiagnosticsDigest(registry_sink),
              pin.registry_diagnostics_digest);
    EXPECT_EQ(RegistryDigest(*registry), pin.registry_digest);

    ErrorSink recipe_sink(1 << 20);
    recipe::IngestOptions options;
    options.error_policy = pin.policy;
    options.error_sink = &recipe_sink;
    recipe::IngestReport report;
    auto db = recipe::RecipeDatabase::LoadCsv(
        *prefix_ + "_recipes.csv", &registry.value(), options, &report);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_EQ(report.records.records_total, pin.records_total);
    EXPECT_EQ(report.records.records_ok, pin.records_ok);
    EXPECT_EQ(report.records.records_quarantined, pin.records_quarantined);
    EXPECT_EQ(report.rows_loaded, pin.rows_loaded);
    EXPECT_EQ(report.rows_quarantined, pin.rows_quarantined);
    EXPECT_EQ(report.ingredient_names_dropped, pin.names_dropped);
    EXPECT_EQ(recipe_sink.dropped(), 0u);
    EXPECT_EQ(recipe_sink.total(), pin.recipe_diagnostics);
    EXPECT_EQ(CountsByCode(recipe_sink), pin.recipe_codes);
    EXPECT_EQ(SortedDiagnosticsDigest(recipe_sink),
              pin.recipe_diagnostics_digest);
    EXPECT_EQ(RecipesDigest(*db), pin.recipes_digest);
  }
}

}  // namespace
}  // namespace culinary
