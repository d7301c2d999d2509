#ifndef CULINARYLAB_FLAVOR_REGISTRY_H_
#define CULINARYLAB_FLAVOR_REGISTRY_H_

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "flavor/ingredient.h"
#include "flavor/profile.h"

namespace culinary::flavor {

/// The project's FlavorDB equivalent: the authoritative store of flavor
/// molecules and ingredient entities, plus the curation operations the
/// paper applies on top of FlavorDB (§III.B):
///
///  * remove generic/noisy entities,
///  * add synonyms and spelling variants,
///  * add new specific ingredients with profiles,
///  * add additives with or without flavor profiles,
///  * create compound ingredients whose profile pools their constituents,
///  * bundle sparse entities into one.
///
/// Name lookup is case-insensitive over canonical names and synonyms.
/// Tombstoned (removed) ingredients keep their ids but are invisible.
class FlavorRegistry {
 public:
  FlavorRegistry() = default;

  FlavorRegistry(const FlavorRegistry&) = default;
  FlavorRegistry& operator=(const FlavorRegistry&) = default;
  FlavorRegistry(FlavorRegistry&&) noexcept = default;
  FlavorRegistry& operator=(FlavorRegistry&&) noexcept = default;

  // --- Molecules ---------------------------------------------------------

  /// Registers a molecule; fails on duplicate name.
  culinary::Result<MoleculeId> AddMolecule(
      std::string name, std::vector<std::string> descriptors = {});

  /// Number of molecules.
  size_t num_molecules() const { return molecules_.size(); }

  /// Molecule by id; OutOfRange for invalid ids.
  culinary::Result<Molecule> GetMolecule(MoleculeId id) const;

  // --- Ingredients -------------------------------------------------------

  /// Registers a basic ingredient. Fails when the (normalized) name already
  /// names a live ingredient or synonym.
  culinary::Result<IngredientId> AddIngredient(std::string_view name,
                                               Category category,
                                               FlavorProfile profile);

  /// Registers a compound ingredient whose profile is the union of its
  /// constituents' profiles. Fails on unknown/removed constituents, fewer
  /// than one constituent, or a name collision.
  culinary::Result<IngredientId> AddCompoundIngredient(
      std::string_view name, Category category,
      const std::vector<IngredientId>& constituents);

  /// Bundles existing entities into a new one (union profile) and removes
  /// the constituents (black/polar/brown bear → "bear").
  culinary::Result<IngredientId> BundleIngredients(
      std::string_view name, Category category,
      const std::vector<IngredientId>& constituents);

  /// Adds a synonym for an existing ingredient; fails when the synonym
  /// already resolves somewhere.
  culinary::Status AddSynonym(IngredientId id, std::string_view synonym);

  /// Tombstones an ingredient; its name/synonyms stop resolving.
  culinary::Status RemoveIngredient(IngredientId id);

  /// Low-level restore hook for persistence (see flavor/registry_io.h):
  /// appends one ingredient slot with explicit kind, synonyms,
  /// constituents, profile and removed state. `ingredient.id` must equal
  /// `num_ingredient_slots()` (slots are restored in order); names and
  /// synonyms of live entities must not collide.
  culinary::Status RestoreIngredient(const Ingredient& ingredient);

  /// Resolves a name or synonym as `NormalizeEntityName` spells it, so case,
  /// surrounding whitespace and runs of spaces or tabs do not matter;
  /// `kInvalidIngredient` when no live ingredient matches. The name is
  /// looked up as given first, and normalized and looked up again only on
  /// a miss that normalizing changes.
  IngredientId FindByName(std::string_view name) const;

  /// Ingredient by id; OutOfRange for invalid ids (including tombstones
  /// when `include_removed` is false).
  culinary::Result<Ingredient> GetIngredient(IngredientId id,
                                             bool include_removed = false) const;

  /// Borrowing accessor for hot paths; nullptr on invalid/removed ids.
  const Ingredient* Find(IngredientId id) const;

  /// Total ingredients ever added (ids are < this bound).
  size_t num_ingredient_slots() const { return ingredients_.size(); }

  /// Live (non-removed) ingredient count.
  size_t num_live_ingredients() const { return live_count_; }

  /// Ids of all live ingredients, ascending.
  std::vector<IngredientId> LiveIngredients() const;

  /// Every resolvable (normalized name, id) pair — canonical names and
  /// synonyms of live ingredients. Used by fuzzy matching in the aliasing
  /// protocol. Order: ascending id, canonical name before synonyms.
  std::vector<std::pair<std::string, IngredientId>> AllNames() const;

  // --- Pairing primitives -------------------------------------------------

  /// |F_a ∩ F_b|: shared flavor compounds of two ingredients (0 when either
  /// id is invalid or removed).
  size_t SharedCompounds(IngredientId a, IngredientId b) const;

 private:
  culinary::Status CheckNameFree(const std::string& normalized) const;

  std::vector<Molecule> molecules_;
  std::unordered_map<std::string, MoleculeId> molecule_index_;
  std::vector<Ingredient> ingredients_;
  /// Hashes a key as a string_view, so a lookup builds no std::string.
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view name) const {
      return std::hash<std::string_view>{}(name);
    }
  };
  /// normalized name or synonym → ingredient id.
  std::unordered_map<std::string, IngredientId, NameHash, std::equal_to<>>
      name_index_;
  size_t live_count_ = 0;
};

/// Normalizes an entity name for indexing: lowercase, trimmed, inner
/// whitespace collapsed to single spaces.
std::string NormalizeEntityName(std::string_view name);

}  // namespace culinary::flavor

#endif  // CULINARYLAB_FLAVOR_REGISTRY_H_
