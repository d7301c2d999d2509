// culinary — command-line front end to the CulinaryLab library.
//
// Subcommands, all over the deterministic synthetic world unless `analyze`
// is given a recipe CSV:
//
//   culinary stats                    Table-1-style dataset summary
//   culinary export                   write the world as CSVs:
//                                     <PREFIX>_{recipes,ingredients,
//                                     molecules,entities}.csv
//   culinary pairing                  food-pairing Z-scores (Fig 4)
//   culinary partners NAME            best flavor partners of NAME
//   culinary parse PHRASE...          run the aliasing protocol
//   culinary classify                 leave-one-out fingerprinting
//   culinary similar                  nearest culinary neighbors
//   culinary authentic --region=CODE  most authentic ingredients
//   culinary analyze --recipes=FILE   food pairing over an external recipe
//                                     CSV; names resolve against a saved
//                                     registry or the generated one
//
// The metrics and trace exports only record; results are unchanged. A
// snapshot whose world-inputs digest no longer matches the requested
// inputs, or that is corrupt, is quarantined and the world rebuilt from
// source, after which the snapshot is refreshed.
//
// Lifecycle (pairing, analyze): an ensemble that overruns the deadline
// stops at the next block boundary and the command exits 3; a resumed run
// recomputes only the blocks its checkpoints lack, with bit-identical
// results. Other exits: 0 done, 1 failed, 2 usage error.

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "analysis/fingerprint.h"
#include "analysis/null_models.h"
#include "analysis/pairing.h"
#include "analysis/report.h"
#include "common/cancellation.h"
#include "common/flags.h"
#include "common/string_util.h"
#include "analysis/similarity.h"
#include "datagen/world.h"
#include "flavor/registry_io.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "recipe/database.h"
#include "network/flavor_network.h"
#include "recipe/parser.h"
#include "robustness/error_sink.h"
#include "snapshot/snapshot.h"

/// Binds the value of a Result or prints the error and exits the command.
#define CULINARY_ASSIGN_OR_RETURN_FOR_MAIN(var, expr)          \
  auto var##_result = (expr);                                  \
  if (!var##_result.ok()) {                                    \
    std::fprintf(stderr, "error: %s\n",                        \
                 var##_result.status().ToString().c_str());    \
    return 1;                                                  \
  }                                                            \
  const auto& var = var##_result.value()

namespace {

using namespace culinary;  // NOLINT(build/namespaces)

struct GlobalArgs {
  bool small = false;
  uint64_t seed = 0;
  size_t null_recipes = 20000;
  std::string region;
  std::string out = "culinary_world";
  std::string recipes_file;
  std::string registry_prefix;
  size_t top = 10;
  size_t probes = 10;
  std::string metrics_out;
  std::string trace_out;
  /// Load the world from this binary snapshot instead of rebuilding it;
  /// corruption or a stale digest degrades to a rebuild + auto-refresh.
  std::string snapshot_in;
  /// Write the world as a binary snapshot after building it.
  std::string snapshot_out;
  double deadline_ms = 0.0;  ///< 0 = no deadline
  std::string checkpoint;
  bool resume = false;
  /// The command-wide deadline, started once at process start so every
  /// sweep in the command shares one budget (resolved in main()).
  culinary::Deadline deadline;
  std::vector<std::string> positional;
};

Result<datagen::SyntheticWorld> BuildWorld(const GlobalArgs& args) {
  const datagen::WorldSpec spec =
      datagen::WorldSpec::For(args.small, args.seed);
  std::fprintf(stderr, "generating %s world (seed %llu)...\n",
               args.small ? "small" : "default",
               static_cast<unsigned long long>(spec.seed));
  return datagen::GenerateWorld(spec);
}

/// Digest of the inputs the generated world is a pure function of.
uint64_t GeneratedWorldDigest(const GlobalArgs& args) {
  return snapshot::DigestGeneratedWorld(
      datagen::WorldSpec::For(args.small, args.seed).seed, args.small);
}

/// Acquires a world for `digest`-pinned inputs: straight rebuild without
/// `--snapshot-in`, otherwise snapshot load with kBestEffort degradation
/// (quarantine + rebuild + auto-refresh) and a stderr account of what
/// happened. `--snapshot-out` always publishes a fresh snapshot.
Result<snapshot::LoadedWorld> AcquireWorldWith(
    const GlobalArgs& args, uint64_t digest,
    const snapshot::WorldRebuildFn& rebuild) {
  Result<snapshot::LoadedWorld> world = Status::Internal("unset");
  if (args.snapshot_in.empty()) {
    world = rebuild();
  } else {
    snapshot::SnapshotFallbackReport report;
    world = snapshot::LoadWorldSnapshotOrRebuild(
        args.snapshot_in, digest, robustness::ErrorPolicy::kBestEffort,
        rebuild, /*rewrite_snapshot=*/true, &report);
    if (report.snapshot_used) {
      std::fprintf(stderr, "world loaded from snapshot %s\n",
                   args.snapshot_in.c_str());
    } else if (report.fell_back) {
      std::fprintf(stderr,
                   "warning: snapshot %s unusable (%s); rebuilt from source%s\n",
                   args.snapshot_in.c_str(), report.note.c_str(),
                   report.rewrote ? " and refreshed the snapshot" : "");
      if (!report.quarantine_path.empty()) {
        std::fprintf(stderr, "warning: corrupt snapshot quarantined at %s\n",
                     report.quarantine_path.c_str());
      }
    } else if (report.snapshot_missing) {
      std::fprintf(stderr, "no snapshot at %s; built from source%s\n",
                   args.snapshot_in.c_str(),
                   report.rewrote ? " and wrote one" : "");
    }
  }
  if (world.ok() && !args.snapshot_out.empty() &&
      args.snapshot_out != args.snapshot_in) {
    Status wrote = snapshot::WriteSnapshotForWorld(world.value(), digest,
                                                   args.snapshot_out);
    if (!wrote.ok()) {
      return wrote.WithContext("writing snapshot " + args.snapshot_out);
    }
    std::fprintf(stderr, "snapshot written to %s\n", args.snapshot_out.c_str());
  }
  return world;
}

/// The standard path for subcommands over the generated world.
Result<snapshot::LoadedWorld> AcquireWorld(const GlobalArgs& args) {
  return AcquireWorldWith(
      args, GeneratedWorldDigest(args),
      [&args]() -> Result<snapshot::LoadedWorld> {
        CULINARY_ASSIGN_OR_RETURN(datagen::SyntheticWorld generated,
                                  BuildWorld(args));
        snapshot::LoadedWorld world;
        world.registry_ptr = std::move(generated.universe.registry);
        world.database = std::move(generated.database);
        return world;
      });
}

int CmdStats(const GlobalArgs& args) {
  CULINARY_ASSIGN_OR_RETURN_FOR_MAIN(world, AcquireWorld(args));
  analysis::TextTable table({"Region", "Code", "Recipes", "Ingredients",
                             "Mean size"});
  for (int i = 0; i < recipe::kNumRegions; ++i) {
    recipe::Region region = recipe::AllRegions()[i];
    recipe::Cuisine cuisine = world.db().CuisineFor(region);
    table.AddRow({std::string(recipe::RegionName(region)),
                  std::string(recipe::RegionCode(region)),
                  std::to_string(cuisine.num_recipes()),
                  std::to_string(cuisine.unique_ingredients().size()),
                  FormatDouble(cuisine.MeanRecipeSize(), 2)});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf("total: %zu recipes, %zu live ingredients, %zu molecules\n",
              world.db().num_recipes(),
              world.registry().num_live_ingredients(),
              world.registry().num_molecules());
  return 0;
}

int CmdExport(const GlobalArgs& args) {
  CULINARY_ASSIGN_OR_RETURN_FOR_MAIN(world, BuildWorld(args));
  Status s = datagen::ExportWorldCsv(world, args.out);
  if (!s.ok()) {
    std::fprintf(stderr, "export failed: %s\n", s.ToString().c_str());
    return 1;
  }
  s = flavor::SaveRegistryCsv(world.registry(), args.out);
  if (!s.ok()) {
    std::fprintf(stderr, "registry export failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s_{recipes,ingredients,molecules,entities}.csv\n",
              args.out.c_str());
  if (!args.snapshot_out.empty()) {
    analysis::PairingCache cache(world.registry(),
                                 world.db().WorldCuisine().unique_ingredients());
    s = snapshot::WriteWorldSnapshot(world.registry(), world.db(), &cache,
                                     GeneratedWorldDigest(args),
                                     args.snapshot_out);
    if (!s.ok()) {
      std::fprintf(stderr, "snapshot export failed: %s\n",
                   s.ToString().c_str());
      return 1;
    }
    std::printf("wrote snapshot %s\n", args.snapshot_out.c_str());
  }
  return 0;
}

/// Builds the null-model options for one cuisine from the command line:
/// shared deadline, plus a per-region checkpoint prefix (the library adds
/// the per-model suffix) so one --checkpoint=PREFIX serves a whole
/// multi-region run without collisions.
analysis::NullModelOptions EnsembleOptions(const GlobalArgs& args,
                                           const recipe::Cuisine& cuisine,
                                           analysis::EnsembleProgress* progress) {
  analysis::NullModelOptions options;
  options.num_recipes = args.null_recipes;
  options.exec.deadline = args.deadline;
  options.progress = progress;
  if (!args.checkpoint.empty()) {
    options.checkpoint_prefix =
        args.checkpoint + "." + std::string(recipe::RegionCode(cuisine.region()));
    options.resume = args.resume;
  }
  return options;
}

/// Reports a stopped / failed ensemble, including how far it got (so the
/// operator knows a --resume is worthwhile). Exit code 3 for lifecycle
/// stops (deadline/cancel) — retryable with --resume — versus 1 for real
/// analysis failures.
int ReportEnsembleFailure(const culinary::Status& status,
                          const analysis::EnsembleProgress& progress) {
  std::fprintf(stderr, "analysis failed: %s\n", status.ToString().c_str());
  if (progress.blocks_total > 0) {
    std::fprintf(stderr, "  progress: %zu/%zu blocks completed (%zu resumed)\n",
                 progress.blocks_completed, progress.blocks_total,
                 progress.blocks_resumed);
  }
  if (!progress.checkpoint_note.empty()) {
    std::fprintf(stderr, "  note: %s\n", progress.checkpoint_note.c_str());
  }
  return status.IsDeadlineExceeded() || status.IsCancelled() ? 3 : 1;
}

void ReportCheckpointUse(const GlobalArgs& args,
                         const analysis::EnsembleProgress& progress) {
  if (args.checkpoint.empty()) return;
  if (!progress.checkpoint_note.empty()) {
    std::fprintf(stderr, "note: %s\n", progress.checkpoint_note.c_str());
  }
  if (progress.blocks_resumed > 0) {
    std::fprintf(stderr, "resumed %zu of %zu blocks from checkpoint\n",
                 progress.blocks_resumed, progress.blocks_total);
  }
}

int PairingReport(const flavor::FlavorRegistry& registry,
                  const recipe::Cuisine& cuisine, const GlobalArgs& args) {
  analysis::PairingCache cache(registry, cuisine.unique_ingredients());
  analysis::EnsembleProgress progress;
  analysis::NullModelOptions options = EnsembleOptions(args, cuisine,
                                                       &progress);
  auto results =
      analysis::CompareAgainstAllModels(cache, cuisine, registry, options);
  if (!results.ok()) {
    return ReportEnsembleFailure(results.status(), progress);
  }
  ReportCheckpointUse(args, progress);
  std::printf("%-22s N_s(real)=%.3f\n",
              std::string(recipe::RegionName(cuisine.region())).c_str(),
              (*results)[0].real_mean);
  for (const auto& r : *results) {
    std::printf("  vs %-20s null mean %.3f  Z = %+.1f\n",
                std::string(analysis::NullModelKindToString(r.kind)).c_str(),
                r.null_mean, r.z_score);
  }
  return 0;
}

int CmdPairing(const GlobalArgs& args) {
  CULINARY_ASSIGN_OR_RETURN_FOR_MAIN(world, AcquireWorld(args));
  if (!args.region.empty()) {
    auto region = recipe::RegionFromCode(args.region);
    if (!region.has_value() || *region == recipe::Region::kWorld) {
      std::fprintf(stderr, "unknown region '%s'\n", args.region.c_str());
      return 1;
    }
    return PairingReport(world.registry(), world.db().CuisineFor(*region),
                         args);
  }
  for (int i = 0; i < recipe::kNumRegions; ++i) {
    int rc = PairingReport(world.registry(),
                           world.db().CuisineFor(recipe::AllRegions()[i]),
                           args);
    if (rc != 0) return rc;
  }
  return 0;
}

int CmdPartners(const GlobalArgs& args) {
  if (args.positional.empty()) {
    std::fprintf(stderr, "usage: culinary partners NAME [--top=K]\n");
    return 2;
  }
  CULINARY_ASSIGN_OR_RETURN_FOR_MAIN(world, AcquireWorld(args));
  const flavor::FlavorRegistry& reg = world.registry();
  flavor::IngredientId id = reg.FindByName(args.positional[0]);
  if (id == flavor::kInvalidIngredient) {
    std::fprintf(stderr, "unknown ingredient '%s'\n",
                 args.positional[0].c_str());
    return 1;
  }
  const flavor::Ingredient* target = reg.Find(id);
  struct Partner {
    const flavor::Ingredient* ing;
    size_t shared;
  };
  std::vector<Partner> partners;
  for (flavor::IngredientId other : reg.LiveIngredients()) {
    if (other == id) continue;
    const flavor::Ingredient* ing = reg.Find(other);
    partners.push_back({ing, target->profile.SharedCompounds(ing->profile)});
  }
  std::sort(partners.begin(), partners.end(),
            [](const Partner& a, const Partner& b) {
              return a.shared > b.shared;
            });
  std::printf("%s (%zu molecules) — top %zu partners by shared compounds:\n",
              target->name.c_str(), target->profile.size(), args.top);
  for (size_t i = 0; i < args.top && i < partners.size(); ++i) {
    std::printf("  %2zu. %-24s %zu shared\n", i + 1,
                partners[i].ing->name.c_str(), partners[i].shared);
  }
  return 0;
}

int CmdParse(const GlobalArgs& args) {
  if (args.positional.empty()) {
    std::fprintf(stderr, "usage: culinary parse PHRASE...\n");
    return 2;
  }
  CULINARY_ASSIGN_OR_RETURN_FOR_MAIN(world, AcquireWorld(args));
  recipe::IngredientPhraseParser parser(&world.registry());
  for (const std::string& phrase : args.positional) {
    recipe::PhraseMatch m = parser.Parse(phrase);
    const char* status = m.status == recipe::MatchStatus::kMatched
                             ? "MATCHED"
                             : (m.status == recipe::MatchStatus::kPartial
                                    ? "PARTIAL"
                                    : "UNRECOGNIZED");
    std::printf("%s: %s%s\n", status, phrase.c_str(),
                m.used_fuzzy ? " (fuzzy)" : "");
    for (flavor::IngredientId id : m.ids) {
      std::printf("  -> %s\n", world.registry().Find(id)->name.c_str());
    }
    for (const std::string& t : m.leftover_tokens) {
      std::printf("  ?? %s\n", t.c_str());
    }
  }
  return 0;
}

int CmdClassify(const GlobalArgs& args) {
  CULINARY_ASSIGN_OR_RETURN_FOR_MAIN(world, AcquireWorld(args));
  analysis::CuisineClassifier classifier(world.db().AllCuisines());
  auto eval = classifier.EvaluateLeaveOneOut(args.probes);
  analysis::TextTable table({"Region", "LOO accuracy"});
  for (const auto& [region, acc] : eval.per_region_accuracy) {
    table.AddRow({std::string(recipe::RegionCode(region)),
                  FormatDouble(100.0 * acc, 1) + "%"});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf("overall: %.1f%% over %zu probes\n", 100.0 * eval.accuracy(),
              eval.total);
  return 0;
}

/// Digest of everything `analyze` consumes: the recipe CSV bytes plus
/// either the saved registry CSVs or the generated-world inputs. Any byte
/// change in any file makes dependent snapshots stale.
Result<uint64_t> AnalyzeInputsDigest(const GlobalArgs& args) {
  if (!args.registry_prefix.empty()) {
    return snapshot::DigestFiles({args.registry_prefix + "_molecules.csv",
                                  args.registry_prefix + "_entities.csv",
                                  args.recipes_file});
  }
  CULINARY_ASSIGN_OR_RETURN(uint64_t recipes_digest,
                            snapshot::DigestFiles({args.recipes_file}));
  return snapshot::CombineDigests(GeneratedWorldDigest(args), recipes_digest);
}

int CmdAnalyze(const GlobalArgs& args) {
  if (args.recipes_file.empty()) {
    std::fprintf(stderr,
                 "usage: culinary analyze --recipes=FILE [--registry=PREFIX]\n");
    return 2;
  }
  auto rebuild = [&args]() -> Result<snapshot::LoadedWorld> {
    snapshot::LoadedWorld world;
    if (!args.registry_prefix.empty()) {
      // Self-contained mode: resolve names against a saved registry instead
      // of regenerating the synthetic world.
      CULINARY_ASSIGN_OR_RETURN(flavor::FlavorRegistry registry,
                                flavor::LoadRegistryCsv(args.registry_prefix));
      world.registry_ptr =
          std::make_unique<flavor::FlavorRegistry>(std::move(registry));
    } else {
      CULINARY_ASSIGN_OR_RETURN(datagen::SyntheticWorld generated,
                                BuildWorld(args));
      world.registry_ptr = std::move(generated.universe.registry);
    }
    size_t skipped = 0;
    auto db = recipe::RecipeDatabase::LoadCsv(
        args.recipes_file, world.registry_ptr.get(), &skipped);
    if (!db.ok()) {
      return db.status().WithContext("loading " + args.recipes_file);
    }
    std::fprintf(stderr, "loaded %zu recipes (%zu rows skipped) from %s\n",
                 db->num_recipes(), skipped, args.recipes_file.c_str());
    world.database =
        std::make_unique<recipe::RecipeDatabase>(std::move(db).value());
    return world;
  };
  CULINARY_ASSIGN_OR_RETURN_FOR_MAIN(digest, AnalyzeInputsDigest(args));
  CULINARY_ASSIGN_OR_RETURN_FOR_MAIN(world,
                                     AcquireWorldWith(args, digest, rebuild));
  for (int i = 0; i < recipe::kNumRegions; ++i) {
    recipe::Cuisine cuisine = world.db().CuisineFor(recipe::AllRegions()[i]);
    if (cuisine.num_recipes() < 10) continue;  // too small to analyze
    if (int rc = PairingReport(world.registry(), cuisine, args); rc != 0) {
      return rc;
    }
  }
  return 0;
}

int CmdSimilar(const GlobalArgs& args) {
  CULINARY_ASSIGN_OR_RETURN_FOR_MAIN(world, AcquireWorld(args));
  std::vector<recipe::Cuisine> cuisines = world.db().AllCuisines();
  auto show = [&](size_t target) -> int {
    auto nearest = analysis::NearestCuisines(
        cuisines, target, args.top, analysis::CuisineSimilarity::kUsageCosine);
    if (!nearest.ok()) {
      std::fprintf(stderr, "similarity failed\n");
      return 1;
    }
    std::printf("%s nearest cuisines (usage cosine):\n",
                std::string(recipe::RegionCode(cuisines[target].region()))
                    .c_str());
    for (const auto& [region, score] : *nearest) {
      std::printf("  %-5s %.3f\n",
                  std::string(recipe::RegionCode(region)).c_str(), score);
    }
    return 0;
  };
  if (!args.region.empty()) {
    auto region = recipe::RegionFromCode(args.region);
    if (!region.has_value()) {
      std::fprintf(stderr, "unknown region '%s'\n", args.region.c_str());
      return 1;
    }
    for (size_t c = 0; c < cuisines.size(); ++c) {
      if (cuisines[c].region() == *region) return show(c);
    }
    return 1;
  }
  for (size_t c = 0; c < cuisines.size(); ++c) {
    if (int rc = show(c); rc != 0) return rc;
  }
  return 0;
}

int CmdAuthentic(const GlobalArgs& args) {
  if (args.region.empty()) {
    std::fprintf(stderr, "usage: culinary authentic --region=CODE [--top=K]\n");
    return 2;
  }
  auto region = recipe::RegionFromCode(args.region);
  if (!region.has_value() || *region == recipe::Region::kWorld) {
    std::fprintf(stderr, "unknown region '%s'\n", args.region.c_str());
    return 1;
  }
  CULINARY_ASSIGN_OR_RETURN_FOR_MAIN(world, AcquireWorld(args));
  std::vector<recipe::Cuisine> cuisines = world.db().AllCuisines();
  size_t target = 0;
  for (size_t c = 0; c < cuisines.size(); ++c) {
    if (cuisines[c].region() == *region) target = c;
  }
  CULINARY_ASSIGN_OR_RETURN_FOR_MAIN(
      authentic,
      network::MostAuthenticIngredients(cuisines, target, args.top));
  std::printf("most authentic ingredients of %s:\n", args.region.c_str());
  for (const auto& ai : authentic) {
    const flavor::Ingredient* ing = world.registry().Find(ai.id);
    std::printf("  %-26s prevalence %.2f  authenticity %+.2f\n",
                ing != nullptr ? ing->name.c_str() : "?", ai.prevalence,
                ai.authenticity);
  }
  return 0;
}

/// Writes the metrics / trace dumps requested on the command line. Failures
/// here degrade the observability artifact, not the analysis, so they warn
/// and turn the command's exit code into 1 only if it was otherwise clean.
int WriteObservabilityOutputs(const GlobalArgs& args, int rc) {
  if (!args.metrics_out.empty()) {
    std::string error;
    if (obs::WriteMetricsJsonFile(obs::MetricsRegistry::Default(),
                                  args.metrics_out, &error)) {
      std::fprintf(stderr, "metrics written to %s\n",
                   args.metrics_out.c_str());
    } else {
      std::fprintf(stderr, "warning: metrics dump failed: %s\n",
                   error.c_str());
      if (rc == 0) rc = 1;
    }
  }
  if (!args.trace_out.empty()) {
    std::string error;
    if (obs::WriteTraceJsonFile(obs::TraceSink::Default(), args.trace_out,
                                &error)) {
      std::fprintf(stderr, "trace written to %s\n", args.trace_out.c_str());
    } else {
      std::fprintf(stderr, "warning: trace dump failed: %s\n", error.c_str());
      if (rc == 0) rc = 1;
    }
  }
  return rc;
}

constexpr int kUnknownCommand = -1;

int RunCommand(const std::string& cmd, const GlobalArgs& args) {
  if (cmd == "stats") return CmdStats(args);
  if (cmd == "export") return CmdExport(args);
  if (cmd == "pairing") return CmdPairing(args);
  if (cmd == "partners") return CmdPartners(args);
  if (cmd == "parse") return CmdParse(args);
  if (cmd == "classify") return CmdClassify(args);
  if (cmd == "similar") return CmdSimilar(args);
  if (cmd == "authentic") return CmdAuthentic(args);
  if (cmd == "analyze") return CmdAnalyze(args);
  return kUnknownCommand;
}

}  // namespace

int main(int argc, char** argv) {
  GlobalArgs args;
  const std::vector<flags::Flag> table = {
      flags::Presence("small", &args.small, "the miniature world"),
      flags::Unsigned("seed", &args.seed, "world seed, 0 = the spec's own"),
      flags::Unsigned("null-recipes", &args.null_recipes,
                      "pairing, analyze: null recipes per model", 2),
      flags::String("region", &args.region, "CODE",
                    "pairing, similar, authentic: one region"),
      flags::String("out", &args.out, "PREFIX", "export: CSV file prefix"),
      flags::String("recipes", &args.recipes_file, "FILE",
                    "analyze: the recipe CSV"),
      flags::String("registry", &args.registry_prefix, "PREFIX",
                    "analyze: saved registry the recipe names resolve "
                    "against"),
      flags::Unsigned("top", &args.top,
                      "partners, similar, authentic: entries to list"),
      flags::Unsigned("probes", &args.probes,
                      "classify: leave-one-out probes per region"),
      flags::String("metrics-out", &args.metrics_out, "FILE",
                    "write the metrics as JSON after the command"),
      flags::String("trace-out", &args.trace_out, "FILE",
                    "write the recorded spans in chrome://tracing format"),
      flags::String("snapshot-in", &args.snapshot_in, "FILE",
                    "load the world from this snapshot"),
      flags::String("snapshot-out", &args.snapshot_out, "FILE",
                    "save the built world as a snapshot"),
      flags::Double("deadline-ms", &args.deadline_ms,
                    "pairing, analyze: wall-clock budget of the whole "
                    "command, 0 = none",
                    0.0, std::numeric_limits<double>::infinity()),
      flags::String("checkpoint", &args.checkpoint, "PREFIX",
                    "pairing, analyze: persist ensemble blocks to "
                    "PREFIX.<region>.<model>.ckpt"),
      flags::Presence("resume", &args.resume,
                      "pairing, analyze: restore the checkpointed "
                      "blocks first")};
  const flags::Positionals command{
      "<stats|export|pairing|partners|parse|classify|similar|authentic|"
      "analyze> [ARG...]",
      1, std::numeric_limits<size_t>::max(), &args.positional};
  if (!flags::ParseCommandLine(argc, argv, table, command)) return 2;
  const std::string cmd = args.positional.front();
  args.positional.erase(args.positional.begin());
  // The deadline clock starts here, once: world generation, cache builds
  // and all four ensembles share the one wall-clock budget the operator
  // asked for, rather than each sweep restarting it.
  if (args.deadline_ms > 0.0) {
    args.deadline = culinary::Deadline::After(args.deadline_ms);
  }
  if (!args.metrics_out.empty() || !args.trace_out.empty()) {
    obs::SetEnabled(true);
  }
  const int rc = RunCommand(cmd, args);
  if (rc == kUnknownCommand) {
    std::fprintf(stderr, "culinary: unknown command %s\n%s", cmd.c_str(),
                 flags::Usage(argv[0], table, command).c_str());
    return 2;
  }
  return WriteObservabilityOutputs(args, rc);
}
