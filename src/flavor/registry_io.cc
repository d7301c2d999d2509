#include "flavor/registry_io.h"

#include <charconv>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "dataframe/csv.h"
#include "dataframe/table.h"
#include "obs/obs.h"

namespace culinary::flavor {

namespace {

using robustness::ErrorPolicy;
using robustness::ErrorSink;
using robustness::IngestStats;

std::string_view KindToString(IngredientKind kind) {
  switch (kind) {
    case IngredientKind::kBasic:
      return "basic";
    case IngredientKind::kCompound:
      return "compound";
    case IngredientKind::kBundle:
      return "bundle";
  }
  return "basic";
}

culinary::Result<IngredientKind> KindFromString(std::string_view s) {
  if (s == "basic") return IngredientKind::kBasic;
  if (s == "compound") return IngredientKind::kCompound;
  if (s == "bundle") return IngredientKind::kBundle;
  return culinary::Status::ParseError("unknown ingredient kind '" +
                                      std::string(s) + "'");
}

/// ';'-joins a list of integer ids.
template <typename T>
std::string JoinIds(const std::vector<T>& ids) {
  std::string out;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out.push_back(';');
    out += std::to_string(ids[i]);
  }
  return out;
}

/// Parses the whole of `text` as a decimal integer of type T; false on any
/// other text, including a number outside T's range.
template <typename T>
bool ParseWholeInt(std::string_view text, T* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

/// Parses a ';'-separated id list; empty string yields an empty list. With
/// `lenient`, unparseable or out-of-range parts are dropped (count returned
/// via `*dropped`) instead of failing the list.
culinary::Result<std::vector<int32_t>> ParseIds(std::string_view text,
                                                bool lenient = false,
                                                size_t* dropped = nullptr) {
  std::vector<int32_t> out;
  if (culinary::Trim(text).empty()) return out;
  for (const std::string& part : culinary::Split(text, ';')) {
    std::string_view trimmed = culinary::Trim(part);
    if (trimmed.empty()) continue;
    int32_t id = 0;
    if (!ParseWholeInt(trimmed, &id)) {
      if (lenient) {
        if (dropped != nullptr) ++*dropped;
        continue;
      }
      return culinary::Status::ParseError("bad id '" + std::string(part) +
                                          "'");
    }
    out.push_back(id);
  }
  return out;
}

std::string JoinStrings(const std::vector<std::string>& parts) {
  return culinary::Join(parts, ";");
}

std::vector<std::string> SplitNonEmpty(std::string_view text) {
  std::vector<std::string> out;
  for (const std::string& part : culinary::Split(text, ';')) {
    std::string_view trimmed = culinary::Trim(part);
    if (!trimmed.empty()) out.emplace_back(trimmed);
  }
  return out;
}

}  // namespace

culinary::Status SaveRegistryCsv(const FlavorRegistry& registry,
                                 const std::string& prefix) {
  df::CsvWriteOptions write_options;
  write_options.atomic_write = true;

  // Molecules.
  df::Schema mol_schema({{"id", df::DataType::kInt64},
                         {"name", df::DataType::kString},
                         {"descriptors", df::DataType::kString}});
  CULINARY_ASSIGN_OR_RETURN(df::Table molecules, df::Table::Make(mol_schema));
  for (size_t m = 0; m < registry.num_molecules(); ++m) {
    CULINARY_ASSIGN_OR_RETURN(Molecule mol,
                              registry.GetMolecule(static_cast<MoleculeId>(m)));
    CULINARY_RETURN_IF_ERROR(molecules.AppendRow(
        {df::Value::Int(mol.id), df::Value::Str(mol.name),
         df::Value::Str(JoinStrings(mol.descriptors))}));
  }
  const std::string mol_path = prefix + "_molecules.csv";
  CULINARY_RETURN_IF_ERROR(
      df::WriteCsvFile(molecules, mol_path, write_options)
          .WithContext("saving registry molecules to " + mol_path));

  // Entities (including tombstones, so ids reload exactly).
  df::Schema ent_schema({{"id", df::DataType::kInt64},
                         {"name", df::DataType::kString},
                         {"category", df::DataType::kString},
                         {"kind", df::DataType::kString},
                         {"removed", df::DataType::kInt64},
                         {"synonyms", df::DataType::kString},
                         {"profile", df::DataType::kString},
                         {"constituents", df::DataType::kString}});
  CULINARY_ASSIGN_OR_RETURN(df::Table entities, df::Table::Make(ent_schema));
  for (size_t i = 0; i < registry.num_ingredient_slots(); ++i) {
    CULINARY_ASSIGN_OR_RETURN(
        Ingredient ing,
        registry.GetIngredient(static_cast<IngredientId>(i),
                               /*include_removed=*/true));
    CULINARY_RETURN_IF_ERROR(entities.AppendRow(
        {df::Value::Int(ing.id), df::Value::Str(ing.name),
         df::Value::Str(std::string(CategoryToString(ing.category))),
         df::Value::Str(std::string(KindToString(ing.kind))),
         df::Value::Int(ing.removed ? 1 : 0),
         df::Value::Str(JoinStrings(ing.synonyms)),
         df::Value::Str(JoinIds(ing.profile.ids())),
         df::Value::Str(JoinIds(ing.constituents))}));
  }
  const std::string ent_path = prefix + "_entities.csv";
  return df::WriteCsvFile(entities, ent_path, write_options)
      .WithContext("saving registry entities to " + ent_path);
}

namespace {

/// Parses an integer cell read with type inference disabled into T; a
/// number outside T's range is an error, never a wrapped id.
template <typename T>
culinary::Result<T> CellToInt(const df::Value& v) {
  int64_t wide = 0;
  if (v.is_int()) {
    wide = v.as_int();
  } else if (!v.is_string() ||
             !ParseWholeInt(culinary::Trim(v.as_string()), &wide)) {
    return culinary::Status::ParseError("expected integer cell, got " +
                                        v.ToString());
  }
  if (!std::in_range<T>(wide)) {
    return culinary::Status::ParseError("integer cell " +
                                        std::to_string(wide) +
                                        " out of range");
  }
  return static_cast<T>(wide);
}

/// Shared state for the degraded registry loader: quarantined rows are
/// replaced by placeholder slots so that every later id in the file still
/// resolves to the same slot (profiles and constituents reference ids).
struct LoadContext {
  FlavorRegistry registry;
  ErrorPolicy policy = ErrorPolicy::kStrict;
  ErrorSink* sink = nullptr;
  IngestStats row_stats;

  bool strict() const { return policy == ErrorPolicy::kStrict; }
  bool best_effort() const { return policy == ErrorPolicy::kBestEffort; }

  void Report(size_t row, const culinary::Status& why, std::string snippet,
              std::string_view file) {
    if (sink != nullptr) {
      sink->Report(/*line=*/row + 2, /*column=*/0, why.code(),
                   std::string(file) + " row " + std::to_string(row) + ": " +
                       why.message(),
                   std::move(snippet));
    }
  }

  /// Fills the molecule id space up to (excluding) `target` with
  /// placeholders.
  culinary::Status PadMolecules(int64_t target) {
    while (static_cast<int64_t>(registry.num_molecules()) < target) {
      CULINARY_RETURN_IF_ERROR(
          registry
              .AddMolecule("__quarantined_molecule_" +
                           std::to_string(registry.num_molecules()))
              .status());
    }
    return culinary::Status::OK();
  }

  /// Fills the entity id space up to (excluding) `target` with tombstoned
  /// placeholders (tombstones do not index their names, so placeholder
  /// names cannot collide with real data).
  culinary::Status PadEntities(int64_t target) {
    while (static_cast<int64_t>(registry.num_ingredient_slots()) < target) {
      Ingredient placeholder;
      placeholder.id =
          static_cast<IngredientId>(registry.num_ingredient_slots());
      placeholder.name =
          "__quarantined_entity_" + std::to_string(placeholder.id);
      placeholder.category = Category::kAdditive;
      placeholder.kind = IngredientKind::kBasic;
      placeholder.removed = true;
      CULINARY_RETURN_IF_ERROR(registry.RestoreIngredient(placeholder));
    }
    return culinary::Status::OK();
  }
};

/// Parses and restores one molecule row; the returned status is the row's
/// verdict (the caller quarantines on error in degraded mode).
culinary::Status LoadMoleculeRow(LoadContext& ctx, const df::Table& molecules,
                                 size_t r) {
  CULINARY_ASSIGN_OR_RETURN(df::Value id_v, molecules.GetValueChecked(r, "id"));
  CULINARY_ASSIGN_OR_RETURN(df::Value name_v,
                            molecules.GetValueChecked(r, "name"));
  if (id_v.is_null() || name_v.is_null()) {
    return culinary::Status::ParseError("null molecule row");
  }
  CULINARY_ASSIGN_OR_RETURN(MoleculeId mol_id, CellToInt<MoleculeId>(id_v));
  std::vector<std::string> descriptors;
  auto desc_v = molecules.GetValueChecked(r, "descriptors");
  if (desc_v.ok() && !desc_v->is_null() && desc_v->is_string()) {
    descriptors = SplitNonEmpty(desc_v->as_string());
  }
  const auto next_id = static_cast<int64_t>(ctx.registry.num_molecules());
  if (mol_id != next_id) {
    if (ctx.strict()) {
      return culinary::Status::ParseError(
          "molecule ids are not contiguous from zero");
    }
    if (mol_id < next_id) {
      // Duplicate / out-of-order row: its slot already exists; drop it.
      return culinary::Status::ParseError(
          "duplicate molecule id " + std::to_string(mol_id) +
          " (next slot is " + std::to_string(next_id) + ")");
    }
    // Gap: earlier rows were lost; keep the id space aligned.
    CULINARY_RETURN_IF_ERROR(ctx.PadMolecules(mol_id));
  }
  return ctx.registry.AddMolecule(name_v.as_string(), std::move(descriptors))
      .status();
}

/// Parses and restores one entity row. In best-effort mode, dangling
/// profile / constituent ids are dropped (with diagnostics) and an unknown
/// kind defaults to basic; everything else fails the row.
culinary::Status LoadEntityRow(LoadContext& ctx, const df::Table& entities,
                               size_t r, int32_t num_molecules) {
  Ingredient ing;
  CULINARY_ASSIGN_OR_RETURN(df::Value id_v, entities.GetValueChecked(r, "id"));
  CULINARY_ASSIGN_OR_RETURN(df::Value name_v,
                            entities.GetValueChecked(r, "name"));
  CULINARY_ASSIGN_OR_RETURN(df::Value cat_v,
                            entities.GetValueChecked(r, "category"));
  CULINARY_ASSIGN_OR_RETURN(df::Value kind_v,
                            entities.GetValueChecked(r, "kind"));
  CULINARY_ASSIGN_OR_RETURN(df::Value removed_v,
                            entities.GetValueChecked(r, "removed"));
  if (id_v.is_null() || name_v.is_null() || cat_v.is_null() ||
      kind_v.is_null() || removed_v.is_null()) {
    return culinary::Status::ParseError("null entity field in row " +
                                        std::to_string(r));
  }
  CULINARY_ASSIGN_OR_RETURN(IngredientId ing_id,
                            CellToInt<IngredientId>(id_v));
  ing.id = ing_id;
  ing.name = name_v.as_string();
  auto category = CategoryFromString(cat_v.as_string());
  if (!category.has_value()) {
    return culinary::Status::ParseError("unknown category '" +
                                        cat_v.as_string() + "'");
  }
  ing.category = *category;
  auto kind = KindFromString(kind_v.as_string());
  if (kind.ok()) {
    ing.kind = kind.value();
  } else if (ctx.best_effort()) {
    ctx.Report(r, kind.status(), kind_v.as_string(), "entities");
    ing.kind = IngredientKind::kBasic;
  } else {
    return kind.status();
  }
  CULINARY_ASSIGN_OR_RETURN(int64_t removed_flag,
                            CellToInt<int64_t>(removed_v));
  ing.removed = removed_flag != 0;

  auto syn_v = entities.GetValueChecked(r, "synonyms");
  if (syn_v.ok() && !syn_v->is_null() && syn_v->is_string()) {
    ing.synonyms = SplitNonEmpty(syn_v->as_string());
  }
  auto prof_v = entities.GetValueChecked(r, "profile");
  if (prof_v.ok() && !prof_v->is_null() && prof_v->is_string()) {
    size_t dropped_parts = 0;
    CULINARY_ASSIGN_OR_RETURN(
        std::vector<int32_t> mol_ids,
        ParseIds(prof_v->as_string(), ctx.best_effort(), &dropped_parts));
    std::vector<int32_t> valid_ids;
    valid_ids.reserve(mol_ids.size());
    for (int32_t m : mol_ids) {
      if (m < 0 || m >= num_molecules) {
        if (!ctx.best_effort()) {
          return culinary::Status::ParseError("dangling molecule id " +
                                              std::to_string(m));
        }
        ++dropped_parts;
        continue;
      }
      valid_ids.push_back(m);
    }
    if (dropped_parts > 0) {
      ctx.Report(r,
                 culinary::Status::ParseError(
                     std::to_string(dropped_parts) +
                     " unusable profile molecule id(s) dropped"),
                 prof_v->as_string(), "entities");
    }
    ing.profile = FlavorProfile(std::move(valid_ids));
  }
  auto cons_v = entities.GetValueChecked(r, "constituents");
  if (cons_v.ok() && !cons_v->is_null() && cons_v->is_string()) {
    size_t dropped_parts = 0;
    CULINARY_ASSIGN_OR_RETURN(
        std::vector<int32_t> cons,
        ParseIds(cons_v->as_string(), ctx.best_effort(), &dropped_parts));
    std::vector<int32_t> valid_cons;
    valid_cons.reserve(cons.size());
    for (int32_t c : cons) {
      if (c < 0 || c >= ing.id) {
        if (!ctx.best_effort()) {
          return culinary::Status::ParseError(
              "constituent id " + std::to_string(c) +
              " does not precede entity " + std::to_string(ing.id));
        }
        ++dropped_parts;
        continue;
      }
      valid_cons.push_back(c);
    }
    if (dropped_parts > 0) {
      ctx.Report(r,
                 culinary::Status::ParseError(
                     std::to_string(dropped_parts) +
                     " unusable constituent id(s) dropped"),
                 cons_v->as_string(), "entities");
    }
    ing.constituents = std::move(valid_cons);
  }

  const auto next_slot =
      static_cast<int64_t>(ctx.registry.num_ingredient_slots());
  if (ing_id != next_slot && !ctx.strict()) {
    if (ing_id < next_slot) {
      return culinary::Status::ParseError(
          "duplicate entity id " + std::to_string(ing_id) +
          " (next slot is " + std::to_string(next_slot) + ")");
    }
    CULINARY_RETURN_IF_ERROR(ctx.PadEntities(ing_id));
  }
  return ctx.registry.RestoreIngredient(ing);
}

}  // namespace

culinary::Result<FlavorRegistry> LoadRegistryCsv(const std::string& prefix) {
  return LoadRegistryCsv(prefix, RegistryLoadOptions{});
}

culinary::Result<FlavorRegistry> LoadRegistryCsv(
    const std::string& prefix, const RegistryLoadOptions& options) {
  CULINARY_OBS_SPAN(load_span, "ingest.load_registry", "ingest");
  LoadContext ctx;
  ctx.policy = options.error_policy;
  ctx.sink = options.error_sink;

  // Lists like "5" would otherwise be inferred as numbers; read raw.
  df::CsvReadOptions raw_options;
  raw_options.infer_types = false;
  raw_options.error_policy = options.error_policy;
  raw_options.error_sink = options.error_sink;
  IngestStats csv_stats;
  IngestStats file_stats;

  const std::string mol_path = prefix + "_molecules.csv";
  raw_options.stats = &csv_stats;
  auto mol_read = df::ReadCsvFile(mol_path, raw_options);
  if (!mol_read.ok()) {
    return mol_read.status().WithContext("loading registry molecules from " +
                                         mol_path);
  }
  file_stats.Merge(csv_stats);
  df::Table molecules = std::move(mol_read).value();
  for (const char* col : {"id", "name"}) {
    if (!molecules.schema().HasField(col)) {
      return culinary::Status::ParseError(
          std::string("molecules csv missing column '") + col + "'");
    }
  }
  for (size_t r = 0; r < molecules.num_rows(); ++r) {
    culinary::Status row_status = LoadMoleculeRow(ctx, molecules, r);
    if (row_status.ok()) continue;
    if (ctx.strict()) return row_status.WithContext("loading " + mol_path);
    ctx.Report(r, row_status, std::string(), "molecules");
    ++ctx.row_stats.records_quarantined;
    // No padding here: the next well-formed row's explicit id re-aligns
    // the slot space via PadMolecules (padding now would double-allocate
    // when the quarantined row was a duplicate).
  }

  const std::string ent_path = prefix + "_entities.csv";
  raw_options.stats = &csv_stats;
  auto ent_read = df::ReadCsvFile(ent_path, raw_options);
  if (!ent_read.ok()) {
    return ent_read.status().WithContext("loading registry entities from " +
                                         ent_path);
  }
  file_stats.Merge(csv_stats);
  df::Table entities = std::move(ent_read).value();
  for (const char* col : {"id", "name", "category", "kind", "removed",
                          "synonyms", "profile", "constituents"}) {
    if (!entities.schema().HasField(col)) {
      return culinary::Status::ParseError(
          std::string("entities csv missing column '") + col + "'");
    }
  }
  const auto num_molecules = static_cast<int32_t>(ctx.registry.num_molecules());
  for (size_t r = 0; r < entities.num_rows(); ++r) {
    culinary::Status row_status = LoadEntityRow(ctx, entities, r, num_molecules);
    if (row_status.ok()) continue;
    if (ctx.strict()) return row_status.WithContext("loading " + ent_path);
    ctx.Report(r, row_status, std::string(), "entities");
    ++ctx.row_stats.records_quarantined;
    // As with molecules: the next well-formed row's id re-aligns the slot
    // space, so a quarantined row needs no placeholder of its own.
  }

  CULINARY_OBS_COUNT("ingest.registry.records_read", file_stats.records_total);
  CULINARY_OBS_COUNT("ingest.registry.records_quarantined",
                     file_stats.records_quarantined +
                         ctx.row_stats.records_quarantined);
  CULINARY_OBS_COUNT("ingest.registry.molecules_loaded",
                     ctx.registry.num_molecules());
  CULINARY_OBS_COUNT("ingest.registry.ingredients_loaded",
                     ctx.registry.LiveIngredients().size());
  if (options.stats != nullptr) {
    options.stats->records_total = file_stats.records_total;
    options.stats->records_quarantined =
        file_stats.records_quarantined + ctx.row_stats.records_quarantined;
    options.stats->records_ok =
        options.stats->records_total >= options.stats->records_quarantined
            ? options.stats->records_total -
                  options.stats->records_quarantined
            : 0;
  }
  return std::move(ctx.registry);
}

}  // namespace culinary::flavor
