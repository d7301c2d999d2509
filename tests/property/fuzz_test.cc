// Deterministic pseudo-random property tests ("fuzzing with a seed"):
// invariants that must hold for arbitrary inputs, exercised over many
// randomly generated cases. Failures print the case seed for replay.

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/pairing.h"
#include "common/random.h"
#include "common/string_util.h"
#include "dataframe/csv.h"
#include "dataframe/aggregate.h"
#include "flavor/registry.h"
#include "flavor/registry_io.h"
#include "recipe/database.h"
#include "recipe/parser.h"
#include "recipe/region.h"
#include "text/edit_distance.h"
#include "text/inflect.h"
#include "text/normalize.h"
#include "text/tokenizer.h"

namespace culinary {
namespace {

/// Random printable string including CSV-hostile characters.
std::string RandomCsvString(Rng& rng, size_t max_len) {
  static const char kAlphabet[] =
      "abcXYZ019 ,\"\n\r;\t'!-_./\\()";
  size_t len = rng.NextBounded(max_len + 1);
  std::string out;
  out.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    out.push_back(kAlphabet[rng.NextBounded(sizeof(kAlphabet) - 1)]);
  }
  return out;
}

TEST(CsvFuzzTest, ArbitraryStringTablesRoundTrip) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    df::Schema schema({{"a", df::DataType::kString},
                       {"b", df::DataType::kString},
                       {"c", df::DataType::kString}});
    auto table = df::Table::Make(schema);
    ASSERT_TRUE(table.ok());
    size_t rows = 1 + rng.NextBounded(20);
    for (size_t r = 0; r < rows; ++r) {
      std::vector<df::Value> row;
      for (int c = 0; c < 3; ++c) {
        // An empty field reads back as missing: force non-empty content by
        // prefixing a letter.
        row.push_back(
            df::Value::Str(std::string("x").append(RandomCsvString(rng, 24))));
      }
      ASSERT_TRUE(table->AppendRow(row).ok());
    }
    std::string csv = df::WriteCsvString(*table);
    size_t records = 0;  // the header included
    culinary::Status read = df::ForEachCsvRecord(
        csv, {}, [&](size_t, std::span<const df::CsvField> fields) {
          for (size_t c = 0; records > 0 && c < 3; ++c) {
            const size_t r = records - 1;
            EXPECT_EQ(fields[c], table->GetValue(r, c).as_string())
                << "seed " << seed << " cell (" << r << "," << c << ")";
          }
          ++records;
          return culinary::Status::OK();
        });
    ASSERT_TRUE(read.ok()) << "seed " << seed << ": " << read.ToString();
    ASSERT_EQ(records, rows + 1) << "seed " << seed;
  }
}

/// A cell drawn from what the loaders must survive: digits, region codes,
/// names the registry knows, empty strings, quotes, delimiters and line
/// breaks, one to three of them run together.
std::string RandomLoaderCell(Rng& rng, const std::vector<std::string>& names) {
  std::string cell;
  for (size_t piece = 1 + rng.NextBounded(3); piece > 0; --piece) {
    switch (rng.NextBounded(8)) {
      case 0:
        cell += std::to_string(rng.NextBounded(1000));
        break;
      case 1:
        cell += recipe::RegionCode(
            recipe::AllRegions()[rng.NextBounded(recipe::kNumRegions)]);
        break;
      case 2:
        cell += names[rng.NextBounded(names.size())];
        break;
      case 3:
        break;  // empty
      case 4:
        cell += '"';
        break;
      case 5:
        cell += ',';
        break;
      case 6:
        cell += ';';
        break;
      default:
        cell += rng.NextBounded(2) == 0 ? "\n" : "\r\n";
        break;
    }
  }
  return cell;
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream(path, std::ios::binary) << text;
}

std::string ReadFile(const std::string& path) {
  std::ostringstream text;
  text << std::ifstream(path, std::ios::binary).rdbuf();
  return text.str();
}

/// Writes `RandomLoaderCell`s into `text` past its header line, at one to
/// four random offsets.
std::string MutateCsv(Rng& rng, std::string text,
                      const std::vector<std::string>& names) {
  const size_t body = text.find('\n') + 1;
  for (size_t edits = 1 + rng.NextBounded(4); edits > 0; --edits) {
    const size_t at = body + rng.NextBounded(text.size() - body + 1);
    const size_t erase = rng.NextBounded(4);
    text.replace(at, erase, RandomLoaderCell(rng, names));
  }
  return text;
}

TEST(CsvFuzzTest, GarbageInputNeverCrashes) {
  // Damaged recipe and registry CSVs through both loaders under every
  // policy: each load returns a status and never aborts.
  flavor::FlavorRegistry registry;
  const flavor::MoleculeId linalool =
      registry.AddMolecule("linalool", {"floral"}).value();
  const flavor::MoleculeId vanillin =
      registry.AddMolecule("vanillin, \"sweet\"").value();
  const flavor::IngredientId tomato =
      registry
          .AddIngredient("tomato", flavor::Category::kVegetable,
                         flavor::FlavorProfile({linalool, vanillin}))
          .value();
  const flavor::IngredientId basil =
      registry
          .AddIngredient("basil", flavor::Category::kHerb,
                         flavor::FlavorProfile({vanillin}))
          .value();
  ASSERT_TRUE(registry.AddSynonym(tomato, "love apple").ok());
  ASSERT_TRUE(registry
                  .AddCompoundIngredient("pesto base", flavor::Category::kDish,
                                         {tomato, basil})
                  .ok());
  const std::vector<std::string> names = {"tomato", "basil", "love apple",
                                          "pesto base", "linalool"};
  const std::string prefix = ::testing::TempDir() + "/culinary_loader_fuzz_" +
                             std::to_string(getpid());
  ASSERT_TRUE(flavor::SaveRegistryCsv(registry, prefix).ok());
  const std::string molecules = ReadFile(prefix + "_molecules.csv");
  const std::string entities = ReadFile(prefix + "_entities.csv");
  const std::string recipes_path = prefix + "_recipes.csv";

  using robustness::ErrorPolicy;
  size_t registries_loaded = 0;
  size_t recipes_loaded = 0;
  for (uint64_t seed = 1; seed <= 150; ++seed) {
    Rng rng(seed);
    std::string recipes = "id,name,region,ingredients\n";
    for (size_t row = 1 + rng.NextBounded(5); row > 0; --row) {
      // Two cells in three hold what their column expects, so rows also
      // get as far as resolution and AddRecipe.
      const std::string digits = std::to_string(rng.NextBounded(200));
      const std::string expected[] = {
          digits, rng.NextBounded(2) == 0 ? digits : names[0],
          std::string(recipe::RegionCode(
              recipe::AllRegions()[rng.NextBounded(recipe::kNumRegions)])),
          names[rng.NextBounded(names.size())] + ";" +
              names[rng.NextBounded(names.size())]};
      for (int c = 0; c < 4; ++c) {
        recipes += c > 0 ? "," : "";
        recipes += rng.NextBounded(3) != 0 ? expected[c]
                                           : RandomLoaderCell(rng, names);
      }
      recipes += '\n';
    }
    WriteFile(recipes_path, recipes);
    WriteFile(prefix + "_molecules.csv", MutateCsv(rng, molecules, names));
    WriteFile(prefix + "_entities.csv", MutateCsv(rng, entities, names));

    for (ErrorPolicy policy : {ErrorPolicy::kStrict,
                               ErrorPolicy::kSkipAndReport,
                               ErrorPolicy::kBestEffort}) {
      robustness::ErrorSink sink;
      flavor::RegistryLoadOptions registry_options;
      registry_options.error_policy = policy;
      registry_options.error_sink = &sink;
      auto loaded = flavor::LoadRegistryCsv(prefix, registry_options);
      registries_loaded += loaded.ok();
      const flavor::FlavorRegistry& against =
          loaded.ok() ? loaded.value() : registry;

      recipe::IngestOptions options;
      options.error_policy = policy;
      options.error_sink = &sink;
      recipe::IngestReport report;
      auto db = recipe::RecipeDatabase::LoadCsv(recipes_path, &against,
                                                options, &report);
      if (db.ok()) {
        EXPECT_EQ(report.rows_loaded, db->num_recipes()) << "seed " << seed;
        recipes_loaded += report.rows_loaded;
      }
      (void)recipe::RecipeDatabase::LoadCsv(recipes_path, &registry);
    }
  }
  EXPECT_GT(registries_loaded, 0u);
  EXPECT_GT(recipes_loaded, 0u);
  for (const char* suffix :
       {"_molecules.csv", "_entities.csv", "_recipes.csv"}) {
    std::remove((prefix + suffix).c_str());
  }
}

TEST(TokenizerFuzzTest, TokensAreCleanAndLowercase) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed);
    std::string phrase = RandomCsvString(rng, 80);
    for (const std::string& token : text::Tokenize(phrase)) {
      EXPECT_FALSE(token.empty());
      for (char c : token) {
        bool alnum_lower = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9');
        EXPECT_TRUE(alnum_lower) << "seed " << seed << " token '" << token
                                 << "'";
      }
      EXPECT_FALSE(IsDigits(token));  // numeric tokens dropped
    }
  }
}

TEST(SingularizeFuzzTest, IdempotentOnItsOwnOutput) {
  // Singularize(Singularize(w)) == Singularize(w): a singular noun must
  // not be mangled further.
  Rng rng(99);
  static const char kLetters[] = "abcdefghijklmnopqrstuvwxyz";
  for (int trial = 0; trial < 300; ++trial) {
    std::string word;
    size_t len = 3 + rng.NextBounded(8);
    for (size_t i = 0; i < len; ++i) {
      word.push_back(kLetters[rng.NextBounded(26)]);
    }
    std::string once = text::Singularize(word);
    EXPECT_EQ(text::Singularize(once), once) << "word '" << word << "'";
  }
}

TEST(EditDistanceFuzzTest, MetricProperties) {
  Rng rng(7);
  static const char kLetters[] = "abcde";  // small alphabet forces collisions
  auto random_word = [&]() {
    std::string w;
    size_t len = rng.NextBounded(9);
    for (size_t i = 0; i < len; ++i) {
      w.push_back(kLetters[rng.NextBounded(5)]);
    }
    return w;
  };
  for (int trial = 0; trial < 200; ++trial) {
    std::string a = random_word(), b = random_word(), c = random_word();
    size_t ab = text::LevenshteinDistance(a, b);
    size_t ba = text::LevenshteinDistance(b, a);
    EXPECT_EQ(ab, ba);                                  // symmetry
    EXPECT_EQ(text::LevenshteinDistance(a, a), 0u);     // identity
    size_t ac = text::LevenshteinDistance(a, c);
    size_t cb = text::LevenshteinDistance(c, b);
    EXPECT_LE(ab, ac + cb);                             // triangle
    // Damerau never exceeds Levenshtein.
    EXPECT_LE(text::DamerauLevenshteinDistance(a, b), ab);
    // Jaro-Winkler stays in [0, 1].
    double jw = text::JaroWinklerSimilarity(a, b);
    EXPECT_GE(jw, 0.0);
    EXPECT_LE(jw, 1.0);
  }
}

TEST(ParserFuzzTest, NeverCrashesAndIsDeterministic) {
  flavor::FlavorRegistry reg;
  reg.AddMolecule("m0").status();
  for (int i = 0; i < 30; ++i) {
    reg.AddIngredient("ingredient" + std::to_string(i),
                      flavor::Category::kVegetable, flavor::FlavorProfile({0}))
        .status();
  }
  recipe::IngredientPhraseParser parser(&reg);
  for (uint64_t seed = 1; seed <= 80; ++seed) {
    Rng rng(seed);
    std::string phrase = RandomCsvString(rng, 120);
    recipe::PhraseMatch a = parser.Parse(phrase);
    recipe::PhraseMatch b = parser.Parse(phrase);
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.ids, b.ids);
    EXPECT_EQ(a.leftover_tokens, b.leftover_tokens);
    // Classification consistency.
    if (a.ids.empty()) {
      EXPECT_EQ(a.status, recipe::MatchStatus::kUnrecognized);
    } else if (a.leftover_tokens.empty()) {
      EXPECT_EQ(a.status, recipe::MatchStatus::kMatched);
    } else {
      EXPECT_EQ(a.status, recipe::MatchStatus::kPartial);
    }
    // No duplicate ids.
    std::set<flavor::IngredientId> unique(a.ids.begin(), a.ids.end());
    EXPECT_EQ(unique.size(), a.ids.size());
  }
}

TEST(AliasSamplerFuzzTest, ChiSquareAgainstWeights) {
  // For random weight vectors the empirical distribution must match the
  // weights (loose chi-square bound).
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    size_t k = 2 + rng.NextBounded(12);
    std::vector<double> weights;
    double total = 0;
    for (size_t i = 0; i < k; ++i) {
      weights.push_back(0.1 + rng.NextDouble() * 5.0);
      total += weights.back();
    }
    AliasSampler sampler(weights);
    ASSERT_TRUE(sampler.valid());
    const int n = 40000;
    std::vector<int> counts(k, 0);
    for (int i = 0; i < n; ++i) ++counts[sampler.Sample(rng)];
    double chi2 = 0;
    for (size_t i = 0; i < k; ++i) {
      double expected = n * weights[i] / total;
      double diff = counts[i] - expected;
      chi2 += diff * diff / expected;
    }
    // 99.9th percentile of chi2 with 13 dof ≈ 34.5; be generous.
    EXPECT_LT(chi2, 50.0) << "seed " << seed << " k=" << k;
  }
}

TEST(PairingCacheFuzzTest, DenseAndIdLookupsAgree) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    flavor::FlavorRegistry reg;
    for (int m = 0; m < 50; ++m) {
      reg.AddMolecule("mol" + std::to_string(m) + "s" + std::to_string(seed))
          .status();
    }
    std::vector<flavor::IngredientId> ids;
    size_t n = 5 + rng.NextBounded(20);
    for (size_t i = 0; i < n; ++i) {
      std::vector<int32_t> mols;
      for (int32_t m = 0; m < 50; ++m) {
        if (rng.NextBernoulli(0.25)) mols.push_back(m);
      }
      std::string name = "i";
      name += std::to_string(i);
      ids.push_back(reg.AddIngredient(name, flavor::Category::kPlant,
                                      flavor::FlavorProfile(mols))
                        .value());
    }
    analysis::PairingCache cache(reg, ids);
    for (size_t a = 0; a < n; ++a) {
      for (size_t b = 0; b < n; ++b) {
        EXPECT_EQ(cache.SharedByDense(a, b), cache.Shared(ids[a], ids[b]));
        EXPECT_EQ(cache.SharedByDense(a, b), cache.SharedByDense(b, a));
      }
    }
  }
}

TEST(GroupByFuzzTest, CountsSumToTableRows) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    df::Schema schema({{"k", df::DataType::kString},
                       {"v", df::DataType::kDouble},
                       {"all", df::DataType::kString}});
    auto table = df::Table::Make(schema);
    size_t rows = 1 + rng.NextBounded(200);
    double expected = 0.0;
    for (size_t r = 0; r < rows; ++r) {
      const double v = rng.NextDouble();
      expected += v;
      std::string key = "k";
      key += std::to_string(rng.NextBounded(7));
      ASSERT_TRUE(table
                      ->AppendRow({df::Value::Str(std::move(key)),
                                   df::Value::Real(v), df::Value::Str("y")})
                      .ok());
    }
    auto grouped = df::GroupByAggregateWhere(
        *table, "k",
        {{df::AggKind::kCount, "", "n"}, {df::AggKind::kSum, "v", "s"}},
        {"all", "y"});
    ASSERT_TRUE(grouped.ok());
    int64_t total = 0;
    double sum = 0.0;
    for (size_t g = 0; g < grouped->num_rows(); ++g) {
      total += grouped->GetValue(g, 1).as_int();
      sum += grouped->GetValue(g, 2).as_double();
    }
    EXPECT_EQ(total, static_cast<int64_t>(rows)) << "seed " << seed;
    // Sum of group sums equals the overall sum.
    EXPECT_NEAR(sum, expected, 1e-9) << "seed " << seed;
  }
}

}  // namespace
}  // namespace culinary
