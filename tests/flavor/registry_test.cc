#include "flavor/registry.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "datagen/world.h"

namespace culinary::flavor {
namespace {

class RegistryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    m1_ = reg_.AddMolecule("linalool").value();
    m2_ = reg_.AddMolecule("limonene").value();
    m3_ = reg_.AddMolecule("vanillin").value();
    tomato_ = reg_.AddIngredient("Tomato", Category::kVegetable,
                                 FlavorProfile({m1_, m2_}))
                  .value();
    basil_ = reg_.AddIngredient("basil", Category::kHerb,
                                FlavorProfile({m2_, m3_}))
                 .value();
  }

  FlavorRegistry reg_;
  MoleculeId m1_, m2_, m3_;
  IngredientId tomato_, basil_;
};

TEST_F(RegistryTest, MoleculeAccounting) {
  EXPECT_EQ(reg_.num_molecules(), 3u);
  auto m = reg_.GetMolecule(m1_);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->name, "linalool");
  EXPECT_TRUE(reg_.GetMolecule(99).status().IsOutOfRange());
  EXPECT_TRUE(reg_.GetMolecule(-1).status().IsOutOfRange());
}

TEST_F(RegistryTest, DuplicateMoleculeRejected) {
  EXPECT_TRUE(reg_.AddMolecule("linalool").status().IsAlreadyExists());
  EXPECT_TRUE(reg_.AddMolecule("  LINALOOL ").status().IsAlreadyExists());
  EXPECT_TRUE(reg_.AddMolecule("").status().IsInvalidArgument());
}

TEST_F(RegistryTest, IngredientLookupIsNormalized) {
  EXPECT_EQ(reg_.FindByName("tomato"), tomato_);
  EXPECT_EQ(reg_.FindByName("  Tomato  "), tomato_);
  EXPECT_EQ(reg_.FindByName("TOMATO"), tomato_);
  EXPECT_EQ(reg_.FindByName("cucumber"), kInvalidIngredient);
}

TEST_F(RegistryTest, NameCollisionRejected) {
  auto dup = reg_.AddIngredient("tomato", Category::kFruit, FlavorProfile());
  EXPECT_TRUE(dup.status().IsAlreadyExists());
  EXPECT_TRUE(reg_.AddIngredient("", Category::kFruit, FlavorProfile())
                  .status()
                  .IsInvalidArgument());
}

TEST_F(RegistryTest, GetIngredient) {
  auto ing = reg_.GetIngredient(tomato_);
  ASSERT_TRUE(ing.ok());
  EXPECT_EQ(ing->name, "tomato");  // normalized at insertion
  EXPECT_EQ(ing->category, Category::kVegetable);
  EXPECT_EQ(ing->kind, IngredientKind::kBasic);
  EXPECT_EQ(ing->profile.size(), 2u);
  EXPECT_TRUE(reg_.GetIngredient(99).status().IsOutOfRange());
}

TEST_F(RegistryTest, SynonymsResolve) {
  ASSERT_TRUE(reg_.AddSynonym(tomato_, "love apple").ok());
  EXPECT_EQ(reg_.FindByName("love apple"), tomato_);
  EXPECT_EQ(reg_.FindByName("Love  Apple"), tomato_);
  // Synonym collision with existing name rejected.
  EXPECT_TRUE(reg_.AddSynonym(basil_, "tomato").IsAlreadyExists());
  EXPECT_TRUE(reg_.AddSynonym(99, "x").IsNotFound());
}

TEST_F(RegistryTest, SharedCompounds) {
  EXPECT_EQ(reg_.SharedCompounds(tomato_, basil_), 1u);  // limonene
  EXPECT_EQ(reg_.SharedCompounds(tomato_, tomato_), 2u);
  EXPECT_EQ(reg_.SharedCompounds(tomato_, 99), 0u);
}

TEST_F(RegistryTest, CompoundIngredientPoolsProfiles) {
  auto sauce = reg_.AddCompoundIngredient("tomato basil sauce",
                                          Category::kDish, {tomato_, basil_});
  ASSERT_TRUE(sauce.ok());
  auto ing = reg_.GetIngredient(*sauce);
  ASSERT_TRUE(ing.ok());
  EXPECT_EQ(ing->kind, IngredientKind::kCompound);
  EXPECT_EQ(ing->profile.size(), 3u);  // union of {m1,m2} and {m2,m3}
  EXPECT_EQ(ing->constituents, (std::vector<IngredientId>{tomato_, basil_}));
}

TEST_F(RegistryTest, CompoundValidation) {
  EXPECT_TRUE(reg_.AddCompoundIngredient("x", Category::kDish, {})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(reg_.AddCompoundIngredient("x", Category::kDish, {99})
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(reg_.AddCompoundIngredient("tomato", Category::kDish, {basil_})
                  .status()
                  .IsAlreadyExists());
}

TEST_F(RegistryTest, RemoveTombstones) {
  ASSERT_TRUE(reg_.RemoveIngredient(basil_).ok());
  EXPECT_EQ(reg_.FindByName("basil"), kInvalidIngredient);
  EXPECT_EQ(reg_.Find(basil_), nullptr);
  EXPECT_TRUE(reg_.GetIngredient(basil_).status().IsNotFound());
  // Still reachable with include_removed.
  auto ghost = reg_.GetIngredient(basil_, /*include_removed=*/true);
  ASSERT_TRUE(ghost.ok());
  EXPECT_TRUE(ghost->removed);
  // Double remove fails.
  EXPECT_TRUE(reg_.RemoveIngredient(basil_).IsNotFound());
  // Live count updated; ids unchanged for the survivor.
  EXPECT_EQ(reg_.num_live_ingredients(), 1u);
  EXPECT_EQ(reg_.FindByName("tomato"), tomato_);
}

TEST_F(RegistryTest, NameReusableAfterRemoval) {
  ASSERT_TRUE(reg_.RemoveIngredient(basil_).ok());
  auto again =
      reg_.AddIngredient("basil", Category::kHerb, FlavorProfile({m1_}));
  ASSERT_TRUE(again.ok());
  EXPECT_NE(*again, basil_);
  EXPECT_EQ(reg_.FindByName("basil"), *again);
}

TEST_F(RegistryTest, BundleRemovesConstituents) {
  // black/polar/brown bear → "bear" (paper §III.B).
  auto black = reg_.AddIngredient("black bear", Category::kMeat,
                                  FlavorProfile({m1_}))
                   .value();
  auto polar = reg_.AddIngredient("polar bear", Category::kMeat,
                                  FlavorProfile({m2_}))
                   .value();
  auto bear = reg_.BundleIngredients("bear", Category::kMeat, {black, polar});
  ASSERT_TRUE(bear.ok());
  auto ing = reg_.GetIngredient(*bear);
  ASSERT_TRUE(ing.ok());
  EXPECT_EQ(ing->kind, IngredientKind::kBundle);
  EXPECT_EQ(ing->profile.size(), 2u);
  EXPECT_EQ(reg_.FindByName("black bear"), kInvalidIngredient);
  EXPECT_EQ(reg_.FindByName("polar bear"), kInvalidIngredient);
  EXPECT_EQ(reg_.FindByName("bear"), *bear);
}

TEST_F(RegistryTest, LiveIngredientsAscending) {
  auto live = reg_.LiveIngredients();
  EXPECT_EQ(live, (std::vector<IngredientId>{tomato_, basil_}));
  reg_.RemoveIngredient(tomato_).ToString();
  EXPECT_EQ(reg_.LiveIngredients(), (std::vector<IngredientId>{basil_}));
}

TEST_F(RegistryTest, AllNamesIncludesSynonyms) {
  ASSERT_TRUE(reg_.AddSynonym(tomato_, "love apple").ok());
  auto names = reg_.AllNames();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0].first, "tomato");
  EXPECT_EQ(names[1].first, "love apple");
  EXPECT_EQ(names[1].second, tomato_);
  EXPECT_EQ(names[2].first, "basil");
}

/// `text` with every space replaced by `by`.
std::string ReplaceSpaces(const std::string& text, const std::string& by) {
  std::string out;
  for (char c : text) {
    if (c == ' ') {
      out += by;
    } else {
      out += c;
    }
  }
  return out;
}

TEST(FindByNameTest, EverySpellingResolvesLikeItsNormalizedForm) {
  auto world = datagen::GenerateWorld(datagen::WorldSpec::Small());
  ASSERT_TRUE(world.ok()) << world.status().ToString();
  FlavorRegistry registry = world->registry();
  const auto names = registry.AllNames();
  ASSERT_FALSE(names.empty());
  for (const auto& [name, id] : names) {
    const size_t half = name.size() / 2;
    for (const std::string& variant :
         {name, culinary::ToUpper(name), ReplaceSpaces(name, "\t"),
          ReplaceSpaces(name, "  "), " " + name, name + " ", "\r" + name,
          name + "\r", "\v" + name, name + "\v", std::string(),
          name.substr(0, half) + std::string(1, '\0') + name.substr(half),
          name + std::string(1, '\0')}) {
      SCOPED_TRACE("name '" + name + "', variant '" + variant + "'");
      const std::string normalized = NormalizeEntityName(variant);
      const IngredientId found = registry.FindByName(variant);
      EXPECT_EQ(found, registry.FindByName(normalized));
      if (normalized == name) {
        EXPECT_EQ(found, id);
      }
    }
  }
  // A removed ingredient resolves under no spelling.
  const auto& [name, id] = names.front();
  ASSERT_TRUE(registry.RemoveIngredient(id).ok());
  EXPECT_EQ(registry.FindByName(name), kInvalidIngredient);
  EXPECT_EQ(registry.FindByName(culinary::ToUpper(name)), kInvalidIngredient);
  EXPECT_EQ(registry.FindByName(" " + name), kInvalidIngredient);
}

TEST(NormalizeEntityNameTest, TrimsLowersCollapses) {
  EXPECT_EQ(NormalizeEntityName("  Olive   Oil  "), "olive oil");
  EXPECT_EQ(NormalizeEntityName("BASIL"), "basil");
  EXPECT_EQ(NormalizeEntityName("a\tb"), "a b");
  EXPECT_EQ(NormalizeEntityName(""), "");
}

}  // namespace
}  // namespace culinary::flavor
