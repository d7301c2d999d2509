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
  const bool strict_rows = row_policy == robustness::ErrorPolicy::kStrict;
  enum Column { kName, kRegion, kIngredients };
  std::vector<size_t> columns;  // empty until the header is read
  size_t row = 0;   // index of the data record being resolved
  size_t line = 0;  // the source line that record starts on
  auto quarantine = [&](std::string message,
                        std::string_view snippet) -> culinary::Status {
    message = "row " + std::to_string(row) + ": " + message;
    if (strict_rows) return culinary::Status::ParseError(std::move(message));
    if (sink != nullptr) {
      sink->Report(line, /*column=*/0, StatusCode::kParseError,
                   std::move(message), std::string(snippet));
    }
    ++local.rows_quarantined;
    return culinary::Status::OK();
  };

  RecipeDatabase db(registry);
  auto load_row =
      [&](std::span<const df::CsvField> fields) -> culinary::Status {
    const df::CsvField& region_code = fields[columns[kRegion]];
    const df::CsvField& ingredients = fields[columns[kIngredients]];
    if (!region_code || !ingredients) {
      return quarantine("null region or ingredients", {});
    }
    auto region = RegionFromCode(*region_code);
    if (!region.has_value() || *region == Region::kWorld) {
      return quarantine("unknown region '" + std::string(*region_code) + "'",
                        *region_code);
    }
    std::vector<flavor::IngredientId> ids;
    for (std::string_view raw : culinary::SplitParts(*ingredients, ';')) {
      std::string_view trimmed = culinary::Trim(raw);
      if (trimmed.empty()) continue;
      flavor::IngredientId id = registry->FindByName(trimmed);
      if (id != flavor::kInvalidIngredient) {
        ids.push_back(id);
      } else if (strict_rows) {
        return culinary::Status::ParseError(
            "row " + std::to_string(row) + ": unknown ingredient '" +
            std::string(trimmed) + "'");
      } else {
        ++local.ingredient_names_dropped;
      }
    }
    if (ids.empty()) {
      return quarantine("no resolvable ingredient", *ingredients);
    }
    auto added = db.AddRecipe(std::string(fields[columns[kName]].value_or("")),
                              *region, std::move(ids));
    if (!added.ok()) return quarantine(added.status().message(), {});
    ++local.rows_loaded;
    return culinary::Status::OK();
  };
  culinary::Status read = df::ForEachCsvFileRecord(
      path, read_options,
      [&](size_t record_line,
          std::span<const df::CsvField> fields) -> culinary::Status {
        if (columns.empty()) {
          CULINARY_ASSIGN_OR_RETURN(
              columns,
              df::FindCsvColumns(fields, {"name", "region", "ingredients"}));
          return culinary::Status::OK();
        }
        line = record_line;
        culinary::Status status = load_row(fields);
        ++row;
        return status;
      });
  if (!read.ok()) {
    return read.WithContext("loading recipe database from " + path);
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
