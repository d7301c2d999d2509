#include "recipe/database.h"

#include <algorithm>
#include <sstream>

#include "common/string_util.h"
#include "dataframe/csv.h"
#include "dataframe/table.h"
#include "obs/obs.h"

namespace culinary::recipe {

std::string IngestReport::Summary() const {
  std::ostringstream os;
  os << rows_loaded << "/" << records.records_total << " recipes loaded"
     << " (coverage " << culinary::FormatDouble(coverage(), 3) << ", csv "
     << records.records_quarantined << " quarantined, rows "
     << rows_quarantined << " quarantined, " << ingredient_names_dropped
     << " unknown ingredient names dropped)";
  return os.str();
}

culinary::Result<RecipeId> RecipeDatabase::AddRecipe(
    std::string name, Region region, std::vector<flavor::IngredientId> ids) {
  if (region == Region::kWorld) {
    return culinary::Status::InvalidArgument(
        "recipes must be attributed to a proper region, not WORLD");
  }
  CanonicalizeIngredients(ids);
  for (flavor::IngredientId id : ids) {
    if (registry_->Find(id) == nullptr) {
      return culinary::Status::InvalidArgument(
          "ingredient id " + std::to_string(id) + " unknown to registry");
    }
  }
  if (ids.empty()) {
    return culinary::Status::InvalidArgument(
        "recipe has no ingredients after canonicalization");
  }
  Recipe r;
  r.id = static_cast<RecipeId>(recipes_.size());
  r.name = std::move(name);
  r.region = region;
  r.ingredients = std::move(ids);
  recipes_.push_back(std::move(r));
  CULINARY_OBS_COUNT("ingest.recipes_added", 1);
  return recipes_.back().id;
}

culinary::Result<RecipeId> RecipeDatabase::AddRecipeFromPhrases(
    std::string name, Region region, const std::vector<std::string>& phrases,
    const IngredientPhraseParser& parser,
    std::vector<std::string>* partial_or_unrecognized) {
  std::vector<flavor::IngredientId> ids =
      parser.ParsePhrases(phrases, partial_or_unrecognized);
  if (ids.empty()) {
    return culinary::Status::FailedPrecondition(
        "no ingredient phrase resolved for recipe '" + name + "'");
  }
  return AddRecipe(std::move(name), region, std::move(ids));
}

size_t RecipeDatabase::CountForRegion(Region region) const {
  size_t n = 0;
  for (const Recipe& r : recipes_) {
    if (r.region == region) ++n;
  }
  return n;
}

Cuisine RecipeDatabase::CuisineFor(Region region) const {
  std::vector<Recipe> selected;
  for (const Recipe& r : recipes_) {
    if (r.region == region) selected.push_back(r);
  }
  return Cuisine(region, std::move(selected));
}

Cuisine RecipeDatabase::WorldCuisine() const {
  return Cuisine(Region::kWorld, recipes_);
}

std::vector<Cuisine> RecipeDatabase::AllCuisines() const {
  std::vector<Cuisine> out;
  out.reserve(kNumRegions);
  for (int i = 0; i < kNumRegions; ++i) {
    out.push_back(CuisineFor(AllRegions()[i]));
  }
  return out;
}

culinary::Status RecipeDatabase::SaveCsv(const std::string& path) const {
  df::Schema schema({{"id", df::DataType::kInt64},
                     {"name", df::DataType::kString},
                     {"region", df::DataType::kString},
                     {"ingredients", df::DataType::kString}});
  CULINARY_ASSIGN_OR_RETURN(df::Table table, df::Table::Make(schema));
  for (const Recipe& r : recipes_) {
    std::vector<std::string> names;
    names.reserve(r.ingredients.size());
    for (flavor::IngredientId id : r.ingredients) {
      const flavor::Ingredient* ing = registry_->Find(id);
      if (ing != nullptr) names.push_back(ing->name);
    }
    CULINARY_RETURN_IF_ERROR(table.AppendRow(
        {df::Value::Int(r.id), df::Value::Str(r.name),
         df::Value::Str(std::string(RegionCode(r.region))),
         df::Value::Str(culinary::Join(names, ";"))}));
  }
  df::CsvWriteOptions write_options;
  write_options.atomic_write = true;
  return df::WriteCsvFile(table, path, write_options)
      .WithContext("saving recipe database to " + path);
}

namespace {

/// Shared row-resolution loop. `csv_policy` governs the CSV layer,
/// `row_policy` the resolution layer — the legacy LoadCsv entry point is
/// strict about CSV damage but always skipped unresolvable rows.
culinary::Result<RecipeDatabase> LoadCsvImpl(
    const std::string& path, const flavor::FlavorRegistry* registry,
    robustness::ErrorPolicy csv_policy, robustness::ErrorPolicy row_policy,
    robustness::ErrorSink* sink, IngestReport* report) {
  if (registry == nullptr) {
    return culinary::Status::InvalidArgument("registry must not be null");
  }
  CULINARY_OBS_SPAN(ingest_span, "ingest.load_recipes", "ingest");
  IngestReport local;
  df::CsvReadOptions read_options;
  read_options.error_policy = csv_policy;
  read_options.error_sink = sink;
  read_options.stats = &local.records;
  auto table_read = df::ReadCsvFile(path, read_options);
  if (!table_read.ok()) {
    return table_read.status().WithContext("loading recipe database from " +
                                           path);
  }
  df::Table table = std::move(table_read).value();
  for (const char* col : {"name", "region", "ingredients"}) {
    if (!table.schema().HasField(col)) {
      return culinary::Status::ParseError(std::string("missing column '") +
                                          col + "' in " + path);
    }
  }
  const bool strict_rows = row_policy == robustness::ErrorPolicy::kStrict;
  auto quarantine = [&](size_t row, std::string message,
                        std::string snippet) -> culinary::Status {
    if (strict_rows) {
      return culinary::Status::ParseError("row " + std::to_string(row) +
                                          " of " + path + ": " + message);
    }
    if (sink != nullptr) {
      sink->Report(/*line=*/0, /*column=*/0, StatusCode::kParseError,
                   "row " + std::to_string(row) + ": " + std::move(message),
                   std::move(snippet));
    }
    ++local.rows_quarantined;
    return culinary::Status::OK();
  };

  RecipeDatabase db(registry);
  for (size_t r = 0; r < table.num_rows(); ++r) {
    CULINARY_ASSIGN_OR_RETURN(df::Value name_v, table.GetValueChecked(r, "name"));
    CULINARY_ASSIGN_OR_RETURN(df::Value region_v,
                              table.GetValueChecked(r, "region"));
    CULINARY_ASSIGN_OR_RETURN(df::Value ing_v,
                              table.GetValueChecked(r, "ingredients"));
    if (region_v.is_null() || ing_v.is_null()) {
      CULINARY_RETURN_IF_ERROR(
          quarantine(r, "null region or ingredients", std::string()));
      continue;
    }
    auto region = RegionFromCode(region_v.as_string());
    if (!region.has_value() || *region == Region::kWorld) {
      CULINARY_RETURN_IF_ERROR(quarantine(
          r, "unknown region '" + region_v.as_string() + "'",
          region_v.as_string()));
      continue;
    }
    std::vector<flavor::IngredientId> ids;
    size_t dropped_names = 0;
    for (const std::string& raw : culinary::Split(ing_v.as_string(), ';')) {
      std::string_view trimmed = culinary::Trim(raw);
      if (trimmed.empty()) continue;
      flavor::IngredientId id = registry->FindByName(trimmed);
      if (id != flavor::kInvalidIngredient) {
        ids.push_back(id);
      } else {
        if (strict_rows) {
          return culinary::Status::ParseError(
              "row " + std::to_string(r) + " of " + path +
              ": unknown ingredient '" + std::string(trimmed) + "'");
        }
        ++dropped_names;
      }
    }
    local.ingredient_names_dropped += dropped_names;
    if (ids.empty()) {
      CULINARY_RETURN_IF_ERROR(quarantine(
          r, "no resolvable ingredient", ing_v.as_string()));
      continue;
    }
    std::string name = name_v.is_null() ? "" : name_v.as_string();
    auto added = db.AddRecipe(std::move(name), *region, std::move(ids));
    if (!added.ok()) {
      CULINARY_RETURN_IF_ERROR(
          quarantine(r, added.status().message(), std::string()));
      continue;
    }
    ++local.rows_loaded;
  }
  // Ingestion accounting mirrors IngestReport, so --metrics-out shows how
  // much of a degraded corpus actually survived.
  CULINARY_OBS_COUNT("ingest.csv.records_read", local.records.records_total);
  CULINARY_OBS_COUNT("ingest.csv.records_quarantined",
                     local.records.records_quarantined);
  CULINARY_OBS_COUNT("ingest.recipes.rows_loaded", local.rows_loaded);
  CULINARY_OBS_COUNT("ingest.recipes.rows_quarantined",
                     local.rows_quarantined);
  CULINARY_OBS_COUNT("ingest.recipes.ingredient_names_dropped",
                     local.ingredient_names_dropped);
  if (report != nullptr) *report = local;
  return db;
}

}  // namespace

culinary::Result<RecipeDatabase> RecipeDatabase::LoadCsv(
    const std::string& path, const flavor::FlavorRegistry* registry,
    size_t* skipped_rows) {
  IngestReport report;
  CULINARY_ASSIGN_OR_RETURN(
      RecipeDatabase db,
      LoadCsvImpl(path, registry,
                  /*csv_policy=*/robustness::ErrorPolicy::kStrict,
                  /*row_policy=*/robustness::ErrorPolicy::kSkipAndReport,
                  /*sink=*/nullptr, &report));
  if (skipped_rows != nullptr) *skipped_rows = report.rows_quarantined;
  return db;
}

culinary::Result<RecipeDatabase> RecipeDatabase::LoadCsv(
    const std::string& path, const flavor::FlavorRegistry* registry,
    const IngestOptions& options, IngestReport* report) {
  return LoadCsvImpl(path, registry, options.error_policy,
                     options.error_policy, options.error_sink, report);
}

}  // namespace culinary::recipe
