#include "flavor/registry.h"

#include <algorithm>

#include "common/string_util.h"

namespace culinary::flavor {

std::string NormalizeEntityName(std::string_view name) {
  std::string lower = culinary::ToLower(culinary::Trim(name));
  std::string out;
  out.reserve(lower.size());
  bool last_space = false;
  for (char c : lower) {
    bool is_space = (c == ' ' || c == '\t');
    if (is_space) {
      if (!last_space && !out.empty()) out.push_back(' ');
    } else {
      out.push_back(c);
    }
    last_space = is_space;
  }
  if (!out.empty() && out.back() == ' ') out.pop_back();
  return out;
}

culinary::Result<MoleculeId> FlavorRegistry::AddMolecule(
    std::string name, std::vector<std::string> descriptors) {
  std::string key = NormalizeEntityName(name);
  if (key.empty()) {
    return culinary::Status::InvalidArgument("molecule name is empty");
  }
  if (molecule_index_.count(key) > 0) {
    return culinary::Status::AlreadyExists("molecule '" + key + "' exists");
  }
  Molecule m;
  m.id = static_cast<MoleculeId>(molecules_.size());
  m.name = std::move(name);
  m.descriptors = std::move(descriptors);
  molecule_index_.emplace(std::move(key), m.id);
  molecules_.push_back(std::move(m));
  return molecules_.back().id;
}

culinary::Result<Molecule> FlavorRegistry::GetMolecule(MoleculeId id) const {
  if (id < 0 || static_cast<size_t>(id) >= molecules_.size()) {
    return culinary::Status::OutOfRange("invalid molecule id " +
                                        std::to_string(id));
  }
  return molecules_[static_cast<size_t>(id)];
}

culinary::Status FlavorRegistry::CheckNameFree(
    const std::string& normalized) const {
  if (normalized.empty()) {
    return culinary::Status::InvalidArgument("ingredient name is empty");
  }
  auto it = name_index_.find(normalized);
  if (it != name_index_.end() &&
      !ingredients_[static_cast<size_t>(it->second)].removed) {
    return culinary::Status::AlreadyExists("name '" + normalized +
                                           "' already resolves");
  }
  return culinary::Status::OK();
}

culinary::Result<IngredientId> FlavorRegistry::AddIngredient(
    std::string_view name, Category category, FlavorProfile profile) {
  std::string key = NormalizeEntityName(name);
  CULINARY_RETURN_IF_ERROR(CheckNameFree(key));
  Ingredient ing;
  ing.id = static_cast<IngredientId>(ingredients_.size());
  ing.name = key;
  ing.category = category;
  ing.kind = IngredientKind::kBasic;
  ing.profile = std::move(profile);
  name_index_[key] = ing.id;
  ingredients_.push_back(std::move(ing));
  ++live_count_;
  return ingredients_.back().id;
}

culinary::Result<IngredientId> FlavorRegistry::AddCompoundIngredient(
    std::string_view name, Category category,
    const std::vector<IngredientId>& constituents) {
  if (constituents.empty()) {
    return culinary::Status::InvalidArgument(
        "compound ingredient needs constituents");
  }
  FlavorProfile pooled;
  for (IngredientId cid : constituents) {
    const Ingredient* c = Find(cid);
    if (c == nullptr) {
      return culinary::Status::NotFound("constituent id " +
                                        std::to_string(cid) + " not found");
    }
    pooled = pooled.Union(c->profile);
  }
  std::string key = NormalizeEntityName(name);
  CULINARY_RETURN_IF_ERROR(CheckNameFree(key));
  Ingredient ing;
  ing.id = static_cast<IngredientId>(ingredients_.size());
  ing.name = key;
  ing.category = category;
  ing.kind = IngredientKind::kCompound;
  ing.profile = std::move(pooled);
  ing.constituents = constituents;
  name_index_[key] = ing.id;
  ingredients_.push_back(std::move(ing));
  ++live_count_;
  return ingredients_.back().id;
}

culinary::Result<IngredientId> FlavorRegistry::BundleIngredients(
    std::string_view name, Category category,
    const std::vector<IngredientId>& constituents) {
  CULINARY_ASSIGN_OR_RETURN(IngredientId id,
                            AddCompoundIngredient(name, category, constituents));
  ingredients_[static_cast<size_t>(id)].kind = IngredientKind::kBundle;
  for (IngredientId cid : constituents) {
    CULINARY_RETURN_IF_ERROR(RemoveIngredient(cid));
  }
  return id;
}

culinary::Status FlavorRegistry::AddSynonym(IngredientId id,
                                            std::string_view synonym) {
  Ingredient* ing = nullptr;
  if (id >= 0 && static_cast<size_t>(id) < ingredients_.size() &&
      !ingredients_[static_cast<size_t>(id)].removed) {
    ing = &ingredients_[static_cast<size_t>(id)];
  }
  if (ing == nullptr) {
    return culinary::Status::NotFound("ingredient id " + std::to_string(id) +
                                      " not found");
  }
  std::string key = NormalizeEntityName(synonym);
  CULINARY_RETURN_IF_ERROR(CheckNameFree(key));
  name_index_[key] = id;
  ing->synonyms.push_back(key);
  return culinary::Status::OK();
}

culinary::Status FlavorRegistry::RemoveIngredient(IngredientId id) {
  if (id < 0 || static_cast<size_t>(id) >= ingredients_.size() ||
      ingredients_[static_cast<size_t>(id)].removed) {
    return culinary::Status::NotFound("ingredient id " + std::to_string(id) +
                                      " not found");
  }
  ingredients_[static_cast<size_t>(id)].removed = true;
  --live_count_;
  return culinary::Status::OK();
}

culinary::Status FlavorRegistry::RestoreIngredient(
    const Ingredient& ingredient) {
  if (ingredient.id != static_cast<IngredientId>(ingredients_.size())) {
    return culinary::Status::InvalidArgument(
        "restore id " + std::to_string(ingredient.id) +
        " out of order (expected " + std::to_string(ingredients_.size()) + ")");
  }
  Ingredient copy = ingredient;
  copy.name = NormalizeEntityName(copy.name);
  if (!copy.removed) {
    CULINARY_RETURN_IF_ERROR(CheckNameFree(copy.name));
    for (std::string& syn : copy.synonyms) {
      syn = NormalizeEntityName(syn);
      CULINARY_RETURN_IF_ERROR(CheckNameFree(syn));
    }
    name_index_[copy.name] = copy.id;
    for (const std::string& syn : copy.synonyms) {
      name_index_[syn] = copy.id;
    }
    ++live_count_;
  }
  ingredients_.push_back(std::move(copy));
  return culinary::Status::OK();
}

IngredientId FlavorRegistry::FindByName(std::string_view name) const {
  // Every key is normalized, and normalizing a normalized name leaves it
  // as it is: a hit on `name` as given is the hit its normalized form gets.
  auto it = name_index_.find(name);
  if (it == name_index_.end()) {
    const std::string normalized = NormalizeEntityName(name);
    if (normalized == name) return kInvalidIngredient;
    it = name_index_.find(normalized);
    if (it == name_index_.end()) return kInvalidIngredient;
  }
  if (ingredients_[static_cast<size_t>(it->second)].removed) {
    return kInvalidIngredient;
  }
  return it->second;
}

culinary::Result<Ingredient> FlavorRegistry::GetIngredient(
    IngredientId id, bool include_removed) const {
  if (id < 0 || static_cast<size_t>(id) >= ingredients_.size()) {
    return culinary::Status::OutOfRange("invalid ingredient id " +
                                        std::to_string(id));
  }
  const Ingredient& ing = ingredients_[static_cast<size_t>(id)];
  if (ing.removed && !include_removed) {
    return culinary::Status::NotFound("ingredient id " + std::to_string(id) +
                                      " was removed");
  }
  return ing;
}

const Ingredient* FlavorRegistry::Find(IngredientId id) const {
  if (id < 0 || static_cast<size_t>(id) >= ingredients_.size()) return nullptr;
  const Ingredient& ing = ingredients_[static_cast<size_t>(id)];
  return ing.removed ? nullptr : &ing;
}

std::vector<IngredientId> FlavorRegistry::LiveIngredients() const {
  std::vector<IngredientId> out;
  out.reserve(live_count_);
  for (const Ingredient& ing : ingredients_) {
    if (!ing.removed) out.push_back(ing.id);
  }
  return out;
}

std::vector<std::pair<std::string, IngredientId>> FlavorRegistry::AllNames()
    const {
  std::vector<std::pair<std::string, IngredientId>> out;
  for (const Ingredient& ing : ingredients_) {
    if (ing.removed) continue;
    out.emplace_back(ing.name, ing.id);
    for (const std::string& syn : ing.synonyms) out.emplace_back(syn, ing.id);
  }
  return out;
}

size_t FlavorRegistry::SharedCompounds(IngredientId a, IngredientId b) const {
  const Ingredient* ia = Find(a);
  const Ingredient* ib = Find(b);
  if (ia == nullptr || ib == nullptr) return 0;
  return ia->profile.SharedCompounds(ib->profile);
}

}  // namespace culinary::flavor
