#include "flavor/registry_io.h"

#include <unistd.h>

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "datagen/registry_gen.h"
#include "datagen/spec.h"
#include "robustness/error_sink.h"
#include "robustness/fault_injector.h"

namespace culinary::flavor {
namespace {

std::string TempPrefix(const char* tag) {
  return ::testing::TempDir() + "/culinary_regio_" + tag;
}

void Cleanup(const std::string& prefix) {
  std::remove((prefix + "_molecules.csv").c_str());
  std::remove((prefix + "_entities.csv").c_str());
}

FlavorRegistry MakeHandBuilt() {
  FlavorRegistry reg;
  MoleculeId m1 = reg.AddMolecule("linalool", {"floral", "citrus"}).value();
  MoleculeId m2 = reg.AddMolecule("vanillin").value();
  MoleculeId m3 = reg.AddMolecule("sotolon, the \"curry\" one").value();
  IngredientId tomato =
      reg.AddIngredient("tomato", Category::kVegetable, FlavorProfile({m1, m2}))
          .value();
  reg.AddSynonym(tomato, "love apple").ToString();
  IngredientId basil =
      reg.AddIngredient("basil", Category::kHerb, FlavorProfile({m2, m3}))
          .value();
  reg.AddCompoundIngredient("pesto base", Category::kDish, {tomato, basil})
      .status();
  IngredientId doomed =
      reg.AddIngredient("noisy entity", Category::kPlant, FlavorProfile({m1}))
          .value();
  reg.RemoveIngredient(doomed).ToString();
  reg.AddIngredient("profile less additive", Category::kAdditive,
                    FlavorProfile())
      .status();
  return reg;
}

void ExpectEqualRegistries(const FlavorRegistry& a, const FlavorRegistry& b) {
  ASSERT_EQ(a.num_molecules(), b.num_molecules());
  for (size_t m = 0; m < a.num_molecules(); ++m) {
    auto ma = a.GetMolecule(static_cast<MoleculeId>(m));
    auto mb = b.GetMolecule(static_cast<MoleculeId>(m));
    ASSERT_TRUE(ma.ok());
    ASSERT_TRUE(mb.ok());
    EXPECT_EQ(ma->name, mb->name);
    EXPECT_EQ(ma->descriptors, mb->descriptors);
  }
  ASSERT_EQ(a.num_ingredient_slots(), b.num_ingredient_slots());
  EXPECT_EQ(a.num_live_ingredients(), b.num_live_ingredients());
  for (size_t i = 0; i < a.num_ingredient_slots(); ++i) {
    auto ia = a.GetIngredient(static_cast<IngredientId>(i), true);
    auto ib = b.GetIngredient(static_cast<IngredientId>(i), true);
    ASSERT_TRUE(ia.ok());
    ASSERT_TRUE(ib.ok());
    EXPECT_EQ(ia->name, ib->name);
    EXPECT_EQ(ia->category, ib->category);
    EXPECT_EQ(ia->kind, ib->kind);
    EXPECT_EQ(ia->removed, ib->removed);
    EXPECT_EQ(ia->synonyms, ib->synonyms);
    EXPECT_EQ(ia->profile, ib->profile);
    EXPECT_EQ(ia->constituents, ib->constituents);
  }
}

TEST(RegistryIoTest, HandBuiltRoundTrip) {
  FlavorRegistry reg = MakeHandBuilt();
  std::string prefix = TempPrefix("hand");
  ASSERT_TRUE(SaveRegistryCsv(reg, prefix).ok());
  auto loaded = LoadRegistryCsv(prefix);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectEqualRegistries(reg, *loaded);
  // Lookup behaviour preserved.
  EXPECT_EQ(loaded->FindByName("love apple"), reg.FindByName("love apple"));
  EXPECT_EQ(loaded->FindByName("noisy entity"), kInvalidIngredient);
  Cleanup(prefix);
}

TEST(RegistryIoTest, GeneratedUniverseRoundTrip) {
  auto universe = datagen::GenerateFlavorUniverse(datagen::WorldSpec::Small());
  ASSERT_TRUE(universe.ok());
  std::string prefix = TempPrefix("gen");
  ASSERT_TRUE(SaveRegistryCsv(*universe->registry, prefix).ok());
  auto loaded = LoadRegistryCsv(prefix);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectEqualRegistries(*universe->registry, *loaded);
  // Pairing-relevant behaviour: shared compounds preserved for a sample.
  auto live = universe->registry->LiveIngredients();
  for (size_t i = 0; i + 7 < live.size(); i += 7) {
    EXPECT_EQ(universe->registry->SharedCompounds(live[i], live[i + 7]),
              loaded->SharedCompounds(live[i], live[i + 7]));
  }
  Cleanup(prefix);
}

TEST(RegistryIoTest, MissingFilesAreIOError) {
  auto loaded = LoadRegistryCsv("/no/such/prefix");
  EXPECT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsIOError());
}

TEST(RegistryIoTest, DanglingMoleculeIdRejected) {
  std::string prefix = TempPrefix("dangling");
  {
    std::ofstream mols(prefix + "_molecules.csv");
    mols << "id,name,descriptors\n0,linalool,\n";
    std::ofstream ents(prefix + "_entities.csv");
    ents << "id,name,category,kind,removed,synonyms,profile,constituents\n"
         << "0,tomato,Vegetable,basic,0,,5,\n";  // molecule 5 missing
  }
  auto loaded = LoadRegistryCsv(prefix);
  EXPECT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsParseError());
  Cleanup(prefix);
}

TEST(RegistryIoTest, BadKindRejected) {
  std::string prefix = TempPrefix("badkind");
  {
    std::ofstream mols(prefix + "_molecules.csv");
    mols << "id,name,descriptors\n0,linalool,\n";
    std::ofstream ents(prefix + "_entities.csv");
    ents << "id,name,category,kind,removed,synonyms,profile,constituents\n"
         << "0,tomato,Vegetable,quantum,0,,0,\n";
  }
  EXPECT_TRUE(LoadRegistryCsv(prefix).status().IsParseError());
  Cleanup(prefix);
}

TEST(RegistryIoTest, BadCategoryRejected) {
  std::string prefix = TempPrefix("badcat");
  {
    std::ofstream mols(prefix + "_molecules.csv");
    mols << "id,name,descriptors\n0,linalool,\n";
    std::ofstream ents(prefix + "_entities.csv");
    ents << "id,name,category,kind,removed,synonyms,profile,constituents\n"
         << "0,tomato,Protein,basic,0,,0,\n";
  }
  EXPECT_TRUE(LoadRegistryCsv(prefix).status().IsParseError());
  Cleanup(prefix);
}

TEST(RegistryIoTest, NonContiguousIdsRejected) {
  std::string prefix = TempPrefix("gap");
  {
    std::ofstream mols(prefix + "_molecules.csv");
    mols << "id,name,descriptors\n0,linalool,\n";
    std::ofstream ents(prefix + "_entities.csv");
    ents << "id,name,category,kind,removed,synonyms,profile,constituents\n"
         << "1,tomato,Vegetable,basic,0,,0,\n";  // id 0 missing
  }
  EXPECT_TRUE(LoadRegistryCsv(prefix).status().IsInvalidArgument());
  Cleanup(prefix);
}

TEST(RegistryIoTest, ForwardConstituentRejected) {
  std::string prefix = TempPrefix("fwd");
  {
    std::ofstream mols(prefix + "_molecules.csv");
    mols << "id,name,descriptors\n0,linalool,\n";
    std::ofstream ents(prefix + "_entities.csv");
    ents << "id,name,category,kind,removed,synonyms,profile,constituents\n"
         << "0,mix,Dish,compound,0,,0,1\n"  // constituent 1 not yet defined
         << "1,tomato,Vegetable,basic,0,,0,\n";
  }
  EXPECT_TRUE(LoadRegistryCsv(prefix).status().IsParseError());
  Cleanup(prefix);
}

// Ids past int32_t are malformed ids, not wrapped ones: an entity id of
// 4294967296 used to load as entity 0, and a profile id of 4294967296 as
// molecule 0.
TEST(RegistryIoTest, StrictRejectsIdsPastInt32) {
  std::string prefix = TempPrefix("wide_ids");
  const char* const kRows[][2] = {
      {"0,linalool,\n", "4294967296,tomato,Vegetable,basic,0,,0,\n"},
      {"0,linalool,\n", "0,tomato,Vegetable,basic,0,,4294967296,\n"},
      {"0,linalool,\n", "0,tomato,Vegetable,basic,0,,-2147483649,\n"},
      {"4294967296,linalool,\n", "0,tomato,Vegetable,basic,0,,,\n"}};
  for (const auto& [molecule, entity] : kRows) {
    {
      std::ofstream mols(prefix + "_molecules.csv");
      mols << "id,name,descriptors\n" << molecule;
      std::ofstream ents(prefix + "_entities.csv");
      ents << "id,name,category,kind,removed,synonyms,profile,constituents\n"
           << entity;
    }
    EXPECT_TRUE(LoadRegistryCsv(prefix).status().IsParseError())
        << molecule << entity;
  }
  Cleanup(prefix);
}

TEST(RestoreIngredientTest, OutOfOrderIdRejected) {
  FlavorRegistry reg;
  Ingredient ing;
  ing.id = 5;
  ing.name = "x";
  EXPECT_TRUE(reg.RestoreIngredient(ing).IsInvalidArgument());
}

TEST(RestoreIngredientTest, RemovedSlotDoesNotResolve) {
  FlavorRegistry reg;
  Ingredient ghost;
  ghost.id = 0;
  ghost.name = "ghost";
  ghost.removed = true;
  ASSERT_TRUE(reg.RestoreIngredient(ghost).ok());
  EXPECT_EQ(reg.FindByName("ghost"), kInvalidIngredient);
  EXPECT_EQ(reg.num_live_ingredients(), 0u);
  EXPECT_EQ(reg.num_ingredient_slots(), 1u);
  // The name is free for a live entity.
  Ingredient live;
  live.id = 1;
  live.name = "ghost";
  ASSERT_TRUE(reg.RestoreIngredient(live).ok());
  EXPECT_EQ(reg.FindByName("ghost"), 1);
}

// --- Crash-safe saves --------------------------------------------------------

class RegistrySaveFaultTest : public ::testing::Test {
 protected:
  void TearDown() override {
    robustness::FaultInjector::Global().Reset();
    Cleanup(prefix_);
    std::remove((prefix_ + "_molecules.csv.tmp").c_str());
    std::remove((prefix_ + "_entities.csv.tmp").c_str());
  }
  // Per-process prefix: ctest runs the two cases of this fixture as
  // concurrent processes, which must not share files.
  std::string prefix_ =
      TempPrefix(("crash_" + std::to_string(getpid())).c_str());
};

TEST_F(RegistrySaveFaultTest, CrashMidWriteLeavesPreviousDumpLoadable) {
  FlavorRegistry reg = MakeHandBuilt();
  ASSERT_TRUE(SaveRegistryCsv(reg, prefix_).ok());

  // Grow the registry and crash the re-save after the temp file's bytes
  // are written but before the rename.
  MoleculeId extra = reg.AddMolecule("eugenol").value();
  reg.AddIngredient("clove", Category::kSpice, FlavorProfile({extra}))
      .status();
  {
    robustness::ScopedFault fault(robustness::kFaultCsvWrite,
                                  robustness::FaultInjector::Plan::Nth(1));
    culinary::Status status = SaveRegistryCsv(reg, prefix_);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find("_molecules.csv"), std::string::npos)
        << status.ToString();
  }

  // The previous dump is untouched and still loads; the aborted temp
  // file is removed by the shared atomic-write helper, so the crash
  // leaves no residue.
  auto loaded = LoadRegistryCsv(prefix_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->FindByName("clove"), kInvalidIngredient);
  EXPECT_FALSE(
      std::ifstream(prefix_ + "_molecules.csv.tmp").good());
}

TEST_F(RegistrySaveFaultTest, RenameFailureLeavesPreviousDumpLoadable) {
  FlavorRegistry reg = MakeHandBuilt();
  ASSERT_TRUE(SaveRegistryCsv(reg, prefix_).ok());
  {
    robustness::ScopedFault fault(robustness::kFaultCsvRename,
                                  robustness::FaultInjector::Plan::Always());
    EXPECT_FALSE(SaveRegistryCsv(reg, prefix_).ok());
  }
  EXPECT_TRUE(LoadRegistryCsv(prefix_).ok());
}

// --- Degraded-mode loading ---------------------------------------------------

TEST(RegistryDegradedTest, QuarantinedEntityRowPreservesIdSpace) {
  std::string prefix = TempPrefix("degraded_ids");
  {
    std::ofstream mols(prefix + "_molecules.csv");
    mols << "id,name,descriptors\n0,linalool,\n1,vanillin,\n";
    std::ofstream ents(prefix + "_entities.csv");
    ents << "id,name,category,kind,removed,synonyms,profile,constituents\n"
         << "0,tomato,Vegetable,basic,0,,0,\n"
         << "1,broken,Protein,basic,0,,0,\n"  // unknown category: quarantined
         << "2,basil,Herb,basic,0,,1,\n";     // id 2 must stay id 2
  }
  robustness::ErrorSink sink;
  robustness::IngestStats stats;
  RegistryLoadOptions options;
  options.error_policy = robustness::ErrorPolicy::kSkipAndReport;
  options.error_sink = &sink;
  options.stats = &stats;
  auto loaded = LoadRegistryCsv(prefix, options);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_ingredient_slots(), 3u);
  EXPECT_EQ(loaded->FindByName("basil"), 2);  // id space preserved
  EXPECT_EQ(loaded->FindByName("broken"), kInvalidIngredient);
  EXPECT_EQ(stats.records_quarantined, 1u);
  EXPECT_FALSE(sink.empty());
  Cleanup(prefix);
}

TEST(RegistryDegradedTest, DuplicateIdDroppedWithoutExtraSlot) {
  std::string prefix = TempPrefix("degraded_dup");
  {
    std::ofstream mols(prefix + "_molecules.csv");
    mols << "id,name,descriptors\n0,linalool,\n";
    std::ofstream ents(prefix + "_entities.csv");
    ents << "id,name,category,kind,removed,synonyms,profile,constituents\n"
         << "0,tomato,Vegetable,basic,0,,0,\n"
         << "0,tomato,Vegetable,basic,0,,0,\n"  // duplicated line
         << "1,basil,Herb,basic,0,,0,\n";
  }
  RegistryLoadOptions options;
  options.error_policy = robustness::ErrorPolicy::kSkipAndReport;
  auto loaded = LoadRegistryCsv(prefix, options);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_ingredient_slots(), 2u);
  EXPECT_EQ(loaded->FindByName("basil"), 1);
  Cleanup(prefix);
}

TEST(RegistryDegradedTest, BestEffortSalvagesDanglingProfileIds) {
  std::string prefix = TempPrefix("degraded_salvage");
  {
    std::ofstream mols(prefix + "_molecules.csv");
    mols << "id,name,descriptors\n0,linalool,\n";
    std::ofstream ents(prefix + "_entities.csv");
    ents << "id,name,category,kind,removed,synonyms,profile,constituents\n"
         << "0,tomato,Vegetable,basic,0,,0;5,\n";  // molecule 5 dangling
  }
  // Skip-and-report quarantines the row ...
  RegistryLoadOptions skip;
  skip.error_policy = robustness::ErrorPolicy::kSkipAndReport;
  auto quarantined = LoadRegistryCsv(prefix, skip);
  ASSERT_TRUE(quarantined.ok());
  EXPECT_EQ(quarantined->FindByName("tomato"), kInvalidIngredient);

  // ... best-effort keeps it minus the dangling molecule.
  robustness::ErrorSink sink;
  RegistryLoadOptions best;
  best.error_policy = robustness::ErrorPolicy::kBestEffort;
  best.error_sink = &sink;
  auto salvaged = LoadRegistryCsv(prefix, best);
  ASSERT_TRUE(salvaged.ok()) << salvaged.status().ToString();
  IngredientId tomato = salvaged->FindByName("tomato");
  ASSERT_NE(tomato, kInvalidIngredient);
  EXPECT_EQ(salvaged->GetIngredient(tomato)->profile.size(), 1u);
  EXPECT_FALSE(sink.empty());
  Cleanup(prefix);
}

TEST(RegistryDegradedTest, BestEffortQuarantinesIdsPastInt32) {
  std::string prefix = TempPrefix("degraded_wide_ids");
  {
    std::ofstream mols(prefix + "_molecules.csv");
    mols << "id,name,descriptors\n4294967296,wide,\n1,vanillin,\n";
    std::ofstream ents(prefix + "_entities.csv");
    ents << "id,name,category,kind,removed,synonyms,profile,constituents\n"
         << "4294967296,tomato,Vegetable,basic,0,,1,\n"  // quarantined
         << "1,basil,Herb,basic,0,,1;4294967297,\n";     // id dropped
  }
  robustness::ErrorSink sink;
  robustness::IngestStats stats;
  RegistryLoadOptions options;
  options.error_policy = robustness::ErrorPolicy::kBestEffort;
  options.error_sink = &sink;
  options.stats = &stats;
  auto loaded = LoadRegistryCsv(prefix, options);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_molecules(), 2u);  // vanillin keeps id 1
  EXPECT_EQ(loaded->GetMolecule(1)->name, "vanillin");
  EXPECT_EQ(loaded->FindByName("tomato"), kInvalidIngredient);
  IngredientId basil = loaded->FindByName("basil");
  EXPECT_EQ(basil, 1);
  EXPECT_EQ(loaded->GetIngredient(basil)->profile, FlavorProfile({1}));
  EXPECT_EQ(stats.records_quarantined, 2u);  // the molecule and tomato rows
  EXPECT_EQ(sink.total(), 3u);               // ... and basil's dropped id
  Cleanup(prefix);
}

/// Loads `molecules` and `entities` (data rows under the standard headers)
/// under `policy`, expecting exactly one quarantined row whose diagnostic
/// names the id gap.
culinary::Result<FlavorRegistry> LoadWithOneGapQuarantined(
    const std::string& prefix, robustness::ErrorPolicy policy,
    const std::string& molecules, const std::string& entities) {
  {
    std::ofstream mols(prefix + "_molecules.csv");
    mols << "id,name,descriptors\n" << molecules;
    std::ofstream ents(prefix + "_entities.csv");
    ents << "id,name,category,kind,removed,synonyms,profile,constituents\n"
         << entities;
  }
  robustness::ErrorSink sink;
  robustness::IngestStats stats;
  RegistryLoadOptions options;
  options.error_policy = policy;
  options.error_sink = &sink;
  options.stats = &stats;
  auto loaded = LoadRegistryCsv(prefix, options);
  Cleanup(prefix);
  EXPECT_EQ(stats.records_quarantined, 1u);
  EXPECT_EQ(sink.total(), 1u);
  if (!sink.diagnostics().empty()) {
    EXPECT_NE(sink.diagnostics()[0].message.find("lost lines"),
              std::string::npos)
        << sink.diagnostics()[0].ToString();
  }
  return loaded;
}

TEST(RegistryDegradedTest, LoneEntityIdPastItsLinesIsQuarantined) {
  // One row with id 400000 right after the header: no row was lost before
  // it, so it cannot claim 400,000 placeholder slots.
  for (auto policy : {robustness::ErrorPolicy::kSkipAndReport,
                      robustness::ErrorPolicy::kBestEffort}) {
    auto loaded = LoadWithOneGapQuarantined(
        TempPrefix("gap_entity"), policy, "0,linalool,\n",
        "400000,tomato,Vegetable,basic,0,,0,\n");
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->num_ingredient_slots(), 0u);
    EXPECT_EQ(loaded->FindByName("tomato"), kInvalidIngredient);
  }
}

TEST(RegistryDegradedTest, LoneMoleculeIdNearInt32MaxIsQuarantined) {
  for (auto policy : {robustness::ErrorPolicy::kSkipAndReport,
                      robustness::ErrorPolicy::kBestEffort}) {
    auto loaded = LoadWithOneGapQuarantined(
        TempPrefix("gap_molecule"), policy, "2147483647,wide,\n", "");
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->num_molecules(), 0u);
  }
}

TEST(RegistryDegradedTest, GapWithinLostLinesIsPadded) {
  // Two lines lost between ids 0 and 3 may account for ids 1 and 2.
  std::string prefix = TempPrefix("gap_padded");
  {
    std::ofstream mols(prefix + "_molecules.csv");
    mols << "id,name,descriptors\n0,linalool,\n1,\"broken\"x,\n"
         << "garbage\n3,vanillin,\n";
    std::ofstream ents(prefix + "_entities.csv");
    ents << "id,name,category,kind,removed,synonyms,profile,constituents\n"
         << "0,tomato,Vegetable,basic,0,,3,\n";
  }
  RegistryLoadOptions options;
  options.error_policy = robustness::ErrorPolicy::kSkipAndReport;
  auto loaded = LoadRegistryCsv(prefix, options);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_molecules(), 4u);
  EXPECT_EQ(loaded->GetMolecule(3)->name, "vanillin");
  Cleanup(prefix);
}

TEST(RegistryDegradedTest, DiagnosticsCarryTheRecordsSourceLine) {
  // The tomato record spans lines 2-3 (a quoted synonym with a line break),
  // so the bad row after it starts on line 4, not at its row index + 2.
  std::string prefix = TempPrefix("diag_line");
  {
    std::ofstream mols(prefix + "_molecules.csv");
    mols << "id,name,descriptors\n0,linalool,\n";
    std::ofstream ents(prefix + "_entities.csv");
    ents << "id,name,category,kind,removed,synonyms,profile,constituents\n"
         << "0,tomato,Vegetable,basic,0,\"love\napple\",0,\n"
         << "1,basil,Protein,oddkind,0,,0,\n";
  }
  // Skip-and-report quarantines the row (unknown category) after loading
  // it; best effort reports its unknown kind from inside the row first.
  for (auto policy : {robustness::ErrorPolicy::kSkipAndReport,
                      robustness::ErrorPolicy::kBestEffort}) {
    SCOPED_TRACE(std::string(robustness::ErrorPolicyToString(policy)));
    robustness::ErrorSink sink;
    RegistryLoadOptions options;
    options.error_policy = policy;
    options.error_sink = &sink;
    auto loaded = LoadRegistryCsv(prefix, options);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->FindByName("tomato"), 0);
    ASSERT_FALSE(sink.diagnostics().empty());
    for (const robustness::Diagnostic& diagnostic : sink.diagnostics()) {
      EXPECT_EQ(diagnostic.line, 4u) << diagnostic.ToString();
    }
  }
  Cleanup(prefix);
}

TEST(RegistryDegradedTest, StrictOptionsMatchLegacyBehaviour) {
  std::string prefix = TempPrefix("degraded_strict");
  {
    std::ofstream mols(prefix + "_molecules.csv");
    mols << "id,name,descriptors\n0,linalool,\n";
    std::ofstream ents(prefix + "_entities.csv");
    ents << "id,name,category,kind,removed,synonyms,profile,constituents\n"
         << "0,tomato,Vegetable,quantum,0,,0,\n";
  }
  RegistryLoadOptions options;  // default policy is strict
  EXPECT_TRUE(LoadRegistryCsv(prefix, options).status().IsParseError());
  Cleanup(prefix);
}

}  // namespace
}  // namespace culinary::flavor
