#ifndef CULINARYLAB_RECIPE_DATABASE_H_
#define CULINARYLAB_RECIPE_DATABASE_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "flavor/registry.h"
#include "recipe/cuisine.h"
#include "recipe/parser.h"
#include "recipe/recipe.h"
#include "recipe/region.h"
#include "robustness/error_sink.h"

namespace culinary::recipe {

/// Controls degraded-mode loading of a recipe CSV (see LoadCsv below).
struct IngestOptions {
  /// Applies to both the CSV layer (malformed records) and the resolution
  /// layer (unknown regions / ingredient names). kStrict fails fast with a
  /// located ParseError; kSkipAndReport quarantines bad rows; kBestEffort
  /// additionally salvages ragged CSV rows.
  robustness::ErrorPolicy error_policy =
      robustness::ErrorPolicy::kSkipAndReport;
  /// Receives per-row diagnostics under the degraded policies (may be null).
  robustness::ErrorSink* error_sink = nullptr;
};

/// Accounting for one recipe-CSV ingestion: how much of the corpus
/// survived, and where the losses happened. Experiment drivers surface
/// `coverage()` next to their results whenever they ran on degraded data.
struct IngestReport {
  /// CSV-record-level accounting (malformed / quarantined records).
  robustness::IngestStats records;
  /// Recipes actually added to the database.
  size_t rows_loaded = 0;
  /// Structurally valid rows dropped at resolution time (unknown region,
  /// no resolvable ingredient, rejected by AddRecipe).
  size_t rows_quarantined = 0;
  /// Unknown ingredient names dropped inside otherwise-kept rows.
  size_t ingredient_names_dropped = 0;

  /// Recipes loaded over data records seen; 1.0 for an empty input.
  double coverage() const {
    return records.records_total == 0
               ? 1.0
               : static_cast<double>(rows_loaded) /
                     static_cast<double>(records.records_total);
  }

  /// One-line roll-up for logs and reports.
  std::string Summary() const;
};

/// The project's CulinaryDB equivalent: the full repertoire of recipes
/// across all regions, with region grouping, the WORLD aggregate, and CSV
/// persistence (ingredients serialized by canonical name against a
/// `FlavorRegistry`).
///
/// The registry is borrowed and must outlive the database.
class RecipeDatabase {
 public:
  /// `registry` must be non-null and outlive the database.
  explicit RecipeDatabase(const flavor::FlavorRegistry* registry)
      : registry_(registry) {}

  /// Adds a recipe. Ingredient ids are canonicalized; ids unknown to the
  /// registry are rejected with InvalidArgument; a recipe with an empty
  /// (post-canonicalization) ingredient list is rejected, matching the
  /// paper's inclusion rule. Returns the assigned recipe id.
  culinary::Result<RecipeId> AddRecipe(std::string name, Region region,
                                       std::vector<flavor::IngredientId> ids);

  /// Adds a recipe from raw ingredient phrases, running the aliasing
  /// protocol of `parser` (which must target this database's registry).
  /// Phrases that do not fully match are reported through
  /// `*partial_or_unrecognized` (may be null); the recipe is accepted as
  /// long as at least one ingredient resolves.
  culinary::Result<RecipeId> AddRecipeFromPhrases(
      std::string name, Region region,
      const std::vector<std::string>& phrases,
      const IngredientPhraseParser& parser,
      std::vector<std::string>* partial_or_unrecognized = nullptr);

  size_t num_recipes() const { return recipes_.size(); }
  const std::vector<Recipe>& recipes() const { return recipes_; }
  const flavor::FlavorRegistry& registry() const { return *registry_; }

  /// Number of recipes attributed to `region`.
  size_t CountForRegion(Region region) const;

  /// The cuisine of one region (copies the region's recipes).
  Cuisine CuisineFor(Region region) const;

  /// The WORLD aggregate cuisine over every recipe.
  Cuisine WorldCuisine() const;

  /// All 22 regional cuisines, in `AllRegions()` order.
  std::vector<Cuisine> AllCuisines() const;

  // --- Persistence --------------------------------------------------------
  //
  // CSV schema: id,name,region,ingredients — `ingredients` is a
  // ';'-separated list of canonical ingredient names.

  /// Writes the database to a CSV file crash-safely (temp file + rename).
  culinary::Status SaveCsv(const std::string& path) const;

  /// Loads a database from CSV, resolving ingredient names through
  /// `registry`. Rows with an unknown region are skipped and counted in
  /// `*skipped_rows` (may be null); unknown ingredient names within a row
  /// are dropped; rows left with no ingredients are skipped. Malformed CSV
  /// (ragged rows, broken quoting) is a ParseError; use the `IngestOptions`
  /// overload to survive corrupt corpora.
  static culinary::Result<RecipeDatabase> LoadCsv(
      const std::string& path, const flavor::FlavorRegistry* registry,
      size_t* skipped_rows = nullptr);

  /// Degraded-mode load: `options.error_policy` governs both malformed CSV
  /// records and unresolvable rows (see IngestOptions). `report` (may be
  /// null) receives quarantine counts and the data-coverage fraction;
  /// `options.error_sink` receives per-row diagnostics.
  static culinary::Result<RecipeDatabase> LoadCsv(
      const std::string& path, const flavor::FlavorRegistry* registry,
      const IngestOptions& options, IngestReport* report = nullptr);

 private:
  const flavor::FlavorRegistry* registry_;
  std::vector<Recipe> recipes_;
};

}  // namespace culinary::recipe

#endif  // CULINARYLAB_RECIPE_DATABASE_H_
