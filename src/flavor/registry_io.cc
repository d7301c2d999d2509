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
  for (std::string_view part : culinary::SplitParts(text, ';')) {
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
  for (std::string_view part : culinary::SplitParts(text, ';')) {
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

/// Parses a whole cell (surrounding blanks aside) as a T; a number outside
/// T's range is an error, never a wrapped id.
template <typename T>
culinary::Result<T> CellToInt(std::string_view cell) {
  int64_t wide = 0;
  if (!ParseWholeInt(culinary::Trim(cell), &wide)) {
    return culinary::Status::ParseError("expected integer cell, got " +
                                        std::string(cell));
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
  size_t rows_quarantined = 0;
  // The file being read: its name in diagnostics, its columns in lookup
  // order, the index of the data row being loaded among its records, the
  // line that row starts on, and the line of the last row loaded (or of
  // the header).
  std::string_view file;
  std::vector<size_t> columns;
  size_t row = 0;
  size_t line = 0;
  size_t loaded_line = 0;

  bool strict() const { return policy == ErrorPolicy::kStrict; }
  bool best_effort() const { return policy == ErrorPolicy::kBestEffort; }

  void Report(const culinary::Status& why, std::string_view snippet) {
    if (sink != nullptr) {
      sink->Report(line, /*column=*/0, why.code(),
                   std::string(file) + " row " + std::to_string(row) + ": " +
                       why.message(),
                   std::string(snippet));
    }
  }

  /// A gap before id `target` can only come from rows lost before it, and
  /// each lost row took at least one source line. So a gap wider than the
  /// lines since the last loaded row is refused: one damaged id must not
  /// size the registry.
  culinary::Status CheckGap(int64_t target, size_t slots) const {
    const auto gap = static_cast<size_t>(target) - slots;
    const size_t lost_lines = line - loaded_line - 1;
    if (gap <= lost_lines) return culinary::Status::OK();
    return culinary::Status::ParseError(
        "id " + std::to_string(target) + " skips " + std::to_string(gap) +
        " ids after " + std::to_string(lost_lines) + " lost lines");
  }

  /// Fills the molecule id space up to (excluding) `target` with
  /// placeholders.
  culinary::Status PadMolecules(int64_t target) {
    CULINARY_RETURN_IF_ERROR(CheckGap(target, registry.num_molecules()));
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
    CULINARY_RETURN_IF_ERROR(CheckGap(target, registry.num_ingredient_slots()));
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

/// Each file's columns, in the order `LoadRegistryCsv` looks them up.
enum MoleculeColumn { kMoleculeId, kMoleculeName, kDescriptors };
enum EntityColumn {
  kId, kName, kCategory, kKind, kRemoved, kSynonyms, kProfile, kConstituents
};

/// Parses and restores one molecule row; the returned status is the row's
/// verdict (the caller quarantines on error in degraded mode).
culinary::Status LoadMoleculeRow(LoadContext& ctx,
                                 std::span<const df::CsvField> fields) {
  auto cell = [&](MoleculeColumn c) -> const df::CsvField& {
    return fields[ctx.columns[c]];
  };
  if (!cell(kMoleculeId) || !cell(kMoleculeName)) {
    return culinary::Status::ParseError("null molecule row");
  }
  CULINARY_ASSIGN_OR_RETURN(MoleculeId mol_id,
                            CellToInt<MoleculeId>(*cell(kMoleculeId)));
  std::vector<std::string> descriptors;
  if (cell(kDescriptors)) descriptors = SplitNonEmpty(*cell(kDescriptors));
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
  return ctx.registry
      .AddMolecule(std::string(*cell(kMoleculeName)), std::move(descriptors))
      .status();
}

/// Parses a ';'-separated id list cell into ids in [0, `limit`). Under
/// best effort, unparseable or out-of-range ids are dropped with one
/// diagnostic naming `what`; otherwise the first unparseable id fails the
/// row, and the first out-of-range one fails it with `out_of_range(id)`.
template <typename OutOfRange>
culinary::Result<std::vector<int32_t>> ParseIdCell(LoadContext& ctx,
                                                   const df::CsvField& cell,
                                                   int32_t limit,
                                                   std::string_view what,
                                                   OutOfRange out_of_range) {
  std::vector<int32_t> valid;
  if (!cell) return valid;
  size_t dropped_parts = 0;
  CULINARY_ASSIGN_OR_RETURN(
      std::vector<int32_t> ids,
      ParseIds(*cell, ctx.best_effort(), &dropped_parts));
  valid.reserve(ids.size());
  for (int32_t id : ids) {
    if (id >= 0 && id < limit) {
      valid.push_back(id);
    } else if (ctx.best_effort()) {
      ++dropped_parts;
    } else {
      return out_of_range(id);
    }
  }
  if (dropped_parts > 0) {
    ctx.Report(culinary::Status::ParseError(std::to_string(dropped_parts) +
                                            " unusable " + std::string(what) +
                                            " id(s) dropped"),
               *cell);
  }
  return valid;
}

/// Parses and restores one entity row. In best-effort mode, dangling
/// profile / constituent ids are dropped (with diagnostics) and an unknown
/// kind defaults to basic; everything else fails the row.
culinary::Status LoadEntityRow(LoadContext& ctx,
                               std::span<const df::CsvField> fields) {
  auto cell = [&](EntityColumn c) -> const df::CsvField& {
    return fields[ctx.columns[c]];
  };
  for (EntityColumn c : {kId, kName, kCategory, kKind, kRemoved}) {
    if (!cell(c)) {
      return culinary::Status::ParseError("null entity field in row " +
                                          std::to_string(ctx.row));
    }
  }
  Ingredient ing;
  CULINARY_ASSIGN_OR_RETURN(ing.id, CellToInt<IngredientId>(*cell(kId)));
  ing.name = *cell(kName);
  auto category = CategoryFromString(*cell(kCategory));
  if (!category.has_value()) {
    return culinary::Status::ParseError("unknown category '" +
                                        std::string(*cell(kCategory)) + "'");
  }
  ing.category = *category;
  auto kind = KindFromString(*cell(kKind));
  if (kind.ok()) {
    ing.kind = kind.value();
  } else if (ctx.best_effort()) {
    ctx.Report(kind.status(), *cell(kKind));
    ing.kind = IngredientKind::kBasic;
  } else {
    return kind.status();
  }
  CULINARY_ASSIGN_OR_RETURN(int64_t removed_flag,
                            CellToInt<int64_t>(*cell(kRemoved)));
  ing.removed = removed_flag != 0;
  if (cell(kSynonyms)) ing.synonyms = SplitNonEmpty(*cell(kSynonyms));
  CULINARY_ASSIGN_OR_RETURN(
      std::vector<int32_t> profile,
      ParseIdCell(ctx, cell(kProfile),
                  static_cast<int32_t>(ctx.registry.num_molecules()),
                  "profile molecule", [](int32_t m) {
                    return culinary::Status::ParseError(
                        "dangling molecule id " + std::to_string(m));
                  }));
  ing.profile = FlavorProfile(std::move(profile));
  CULINARY_ASSIGN_OR_RETURN(
      ing.constituents,
      ParseIdCell(ctx, cell(kConstituents), ing.id, "constituent",
                  [&ing](int32_t c) {
                    return culinary::Status::ParseError(
                        "constituent id " + std::to_string(c) +
                        " does not precede entity " + std::to_string(ing.id));
                  }));

  const auto next_slot =
      static_cast<int64_t>(ctx.registry.num_ingredient_slots());
  if (ing.id != next_slot && !ctx.strict()) {
    if (ing.id < next_slot) {
      return culinary::Status::ParseError(
          "duplicate entity id " + std::to_string(ing.id) +
          " (next slot is " + std::to_string(next_slot) + ")");
    }
    CULINARY_RETURN_IF_ERROR(ctx.PadEntities(ing.id));
  }
  return ctx.registry.RestoreIngredient(ing);
}

/// Reads the registry file at `path`, finding `names` in its header and
/// loading each data row with `load_row`. A failed row fails the load
/// under kStrict and is quarantined with a report otherwise; the next
/// well-formed row's explicit id re-aligns the slot space, so a quarantined
/// row needs no placeholder of its own (padding now would double-allocate
/// when it was a duplicate). `stats` receives the file's CSV accounting.
culinary::Status LoadRegistryFile(
    LoadContext& ctx, const std::string& path, std::string_view file,
    std::initializer_list<std::string_view> names, IngestStats* stats,
    culinary::Status (*load_row)(LoadContext&,
                                 std::span<const df::CsvField>)) {
  df::CsvReadOptions read_options;
  read_options.error_policy = ctx.policy;
  read_options.error_sink = ctx.sink;
  read_options.stats = stats;
  ctx.file = file;
  ctx.columns.clear();
  ctx.row = 0;
  return df::ForEachCsvFileRecord(
      path, read_options,
      [&](size_t line,
          std::span<const df::CsvField> fields) -> culinary::Status {
        if (ctx.columns.empty()) {
          CULINARY_ASSIGN_OR_RETURN(ctx.columns,
                                    df::FindCsvColumns(fields, names));
          ctx.loaded_line = line;
          return culinary::Status::OK();
        }
        ctx.line = line;
        culinary::Status status = load_row(ctx, fields);
        if (status.ok()) {
          ctx.loaded_line = line;
        } else if (!ctx.strict()) {
          ctx.Report(status, {});
          ++ctx.rows_quarantined;
          status = culinary::Status::OK();
        }
        ++ctx.row;
        return status;
      });
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

  IngestStats file_stats;
  IngestStats entity_stats;
  const std::string mol_path = prefix + "_molecules.csv";
  CULINARY_RETURN_IF_ERROR(
      LoadRegistryFile(ctx, mol_path, "molecules",
                       {"id", "name", "descriptors"}, &file_stats,
                       LoadMoleculeRow)
          .WithContext("loading registry molecules from " + mol_path));
  const std::string ent_path = prefix + "_entities.csv";
  CULINARY_RETURN_IF_ERROR(
      LoadRegistryFile(ctx, ent_path, "entities",
                       {"id", "name", "category", "kind", "removed",
                        "synonyms", "profile", "constituents"},
                       &entity_stats, LoadEntityRow)
          .WithContext("loading registry entities from " + ent_path));
  file_stats.Merge(entity_stats);

  CULINARY_OBS_COUNT("ingest.registry.records_read", file_stats.records_total);
  CULINARY_OBS_COUNT("ingest.registry.records_quarantined",
                     file_stats.records_quarantined + ctx.rows_quarantined);
  CULINARY_OBS_COUNT("ingest.registry.molecules_loaded",
                     ctx.registry.num_molecules());
  CULINARY_OBS_COUNT("ingest.registry.ingredients_loaded",
                     ctx.registry.LiveIngredients().size());
  if (options.stats != nullptr) {
    options.stats->records_total = file_stats.records_total;
    options.stats->records_quarantined =
        file_stats.records_quarantined + ctx.rows_quarantined;
    options.stats->records_ok =
        options.stats->records_total >= options.stats->records_quarantined
            ? options.stats->records_total -
                  options.stats->records_quarantined
            : 0;
  }
  return std::move(ctx.registry);
}

}  // namespace culinary::flavor
