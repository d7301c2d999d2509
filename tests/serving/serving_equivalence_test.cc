// Serving/batch equivalence property: every serving endpoint must be
// bit-identical to running the analysis layer directly on the same world
// (across ≥3 datagen seeds), suggest must match a brute-force ranking over
// the pairing triangle, and the suggest top-K must be deterministic under
// score ties and across 1/4/16 serving threads.

#include <algorithm>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/fingerprint.h"
#include "analysis/pairing.h"
#include "analysis/similarity.h"
#include "datagen/world.h"
#include "flavor/registry.h"
#include "recipe/database.h"
#include "serving/engine.h"
#include "serving/protocol.h"
#include "serving/queries.h"
#include "serving/snapshot.h"

namespace culinary::serving {
namespace {

using flavor::Category;
using flavor::FlavorProfile;
using flavor::FlavorRegistry;
using flavor::IngredientId;
using recipe::RecipeDatabase;
using recipe::Region;

/// One arbitrary seed, a different arbitrary seed, and the calibrated
/// default-world vintage (the repo's ≥3-seed property-test convention).
constexpr uint64_t kSeeds[] = {1, 7, 20180416};

datagen::SyntheticWorld GenerateSmall(uint64_t seed) {
  datagen::WorldSpec spec = datagen::WorldSpec::Small();
  spec.seed = seed;
  auto world = datagen::GenerateWorld(spec);
  EXPECT_TRUE(world.ok()) << world.status().ToString();
  return std::move(world).value();
}

/// Brute-force suggest reference, independent of the serving sweep: every
/// cache ingredient outside the request set, ranked by its mean
/// `PairingCache::Shared` count with the set members (gain descending, then
/// id ascending) and cut to `k`. `Shared` reads the triangle, not the
/// `shared_matrix()` mirror the sweep streams.
std::vector<std::pair<double, IngredientId>> BruteForceSuggest(
    const analysis::PairingCache& cache, const std::vector<IngredientId>& ids,
    size_t k) {
  std::vector<IngredientId> set;
  for (IngredientId id : ids) {
    if (cache.DenseIndex(id) >= 0) set.push_back(id);
  }
  std::sort(set.begin(), set.end());
  set.erase(std::unique(set.begin(), set.end()), set.end());
  std::vector<std::pair<double, IngredientId>> ranked;
  for (size_t c = 0; c < cache.num_ingredients(); ++c) {
    const IngredientId candidate = cache.IdAt(c);
    if (std::binary_search(set.begin(), set.end(), candidate)) continue;
    uint64_t total = 0;
    for (IngredientId member : set) total += cache.Shared(candidate, member);
    ranked.emplace_back(
        static_cast<double>(total) / static_cast<double>(set.size()),
        candidate);
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  if (ranked.size() > k) ranked.resize(k);
  return ranked;
}

TEST(ServingEquivalenceTest, EndpointsMatchBatchPathAcrossSeeds) {
  for (uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    // GenerateWorld is a pure function of its spec, so generating twice
    // yields the same world: one copy feeds the serving snapshot, the
    // other is analyzed directly through the batch entry points.
    auto built = ServingSnapshot::FromSyntheticWorld(GenerateSmall(seed), {});
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    const ServingSnapshot& snapshot = **built;

    datagen::SyntheticWorld batch = GenerateSmall(seed);
    const FlavorRegistry& registry = batch.registry();
    const recipe::Cuisine world_cuisine = batch.db().WorldCuisine();
    const analysis::PairingCache cache(registry,
                                       world_cuisine.unique_ingredients());
    const std::vector<recipe::Cuisine> cuisines = batch.db().AllCuisines();
    const analysis::CuisineClassifier classifier(cuisines);

    // --- score and suggest over real recipes --------------------------------
    const std::vector<recipe::Recipe>& recipes = batch.db().recipes();
    ASSERT_FALSE(recipes.empty());
    for (size_t i = 0; i < recipes.size(); i += recipes.size() / 25 + 1) {
      const recipe::Recipe& recipe = recipes[i];
      auto served = ScoreRecipeIds(snapshot, recipe.ingredients);
      ASSERT_TRUE(served.ok()) << served.status().ToString();
      EXPECT_EQ(served->score,
                analysis::RecipePairingScore(cache, recipe.ingredients));
      EXPECT_EQ(served->classified, classifier.Classify(served->resolved));
      EXPECT_TRUE(served->unresolved.empty());

      Request suggest;
      suggest.endpoint = Endpoint::kSuggest;
      suggest.ingredient_ids = recipe.ingredients;
      suggest.k = 10;
      const Response answer =
          EvaluateQuery(snapshot, suggest, MakeContext(suggest));
      ASSERT_TRUE(answer.status.ok()) << answer.status.ToString();
      const auto& suggestions =
          std::get<std::vector<Suggestion>>(answer.payload);
      const auto expected = BruteForceSuggest(cache, recipe.ingredients, 10);
      ASSERT_EQ(suggestions.size(), expected.size());
      for (size_t j = 0; j < expected.size(); ++j) {
        EXPECT_EQ(suggestions[j].id, expected[j].second) << "rank " << j;
        EXPECT_EQ(suggestions[j].gain, expected[j].first) << "rank " << j;
      }
    }

    // --- fingerprint: per-cuisine statistics -------------------------------
    for (size_t i = 0; i < cuisines.size(); i += 5) {
      const recipe::Cuisine& cuisine = cuisines[i];
      auto served = Fingerprint(snapshot, cuisine.region(), 10);
      ASSERT_TRUE(served.ok()) << served.status().ToString();
      EXPECT_EQ(served->num_recipes, cuisine.num_recipes());
      EXPECT_EQ(served->num_unique_ingredients,
                cuisine.unique_ingredients().size());
      EXPECT_EQ(served->mean_recipe_size, cuisine.MeanRecipeSize());
      EXPECT_EQ(served->mean_pairing,
                analysis::CuisinePairingStats(cache, cuisine).mean());
      auto by_popularity = cuisine.ByPopularity();
      if (by_popularity.size() > 10) by_popularity.resize(10);
      ASSERT_EQ(served->top_ingredients.size(), by_popularity.size());
      for (size_t j = 0; j < by_popularity.size(); ++j) {
        const flavor::Ingredient* ing =
            registry.Find(by_popularity[j].first);
        ASSERT_NE(ing, nullptr);
        EXPECT_EQ(served->top_ingredients[j].first, ing->name);
        EXPECT_EQ(served->top_ingredients[j].second, by_popularity[j].second);
      }
    }

    // --- similar: nearest cuisines off the precomputed matrix -------------
    for (size_t i = 0; i < cuisines.size(); i += 7) {
      auto served = SimilarCuisines(snapshot, cuisines[i].region(), 4);
      ASSERT_TRUE(served.ok()) << served.status().ToString();
      auto batch_neighbors = analysis::NearestCuisines(
          cuisines, i, 4, analysis::CuisineSimilarity::kIngredientJaccard);
      ASSERT_TRUE(batch_neighbors.ok()) << batch_neighbors.status().ToString();
      ASSERT_EQ(served->neighbors.size(), batch_neighbors->size());
      for (size_t j = 0; j < batch_neighbors->size(); ++j) {
        EXPECT_EQ(served->neighbors[j].first, (*batch_neighbors)[j].first);
        EXPECT_EQ(served->neighbors[j].second, (*batch_neighbors)[j].second);
      }
    }
  }
}

TEST(ServingEquivalenceTest, SuggestMatchesBruteForceAtEdgesOfK) {
  // One EvaluateBatch per seed asks every sampled recipe for no suggestion,
  // one, ten, all candidates but one, exactly all, the cache size and an
  // unbounded k: the sweep must clamp k and rank the whole candidate list,
  // zero-gain ties included, exactly as the brute-force reference does.
  for (uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto built = ServingSnapshot::FromSyntheticWorld(GenerateSmall(seed), {});
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    const ServingSnapshot& snapshot = **built;

    datagen::SyntheticWorld batch = GenerateSmall(seed);
    const analysis::PairingCache cache(
        batch.registry(), batch.db().WorldCuisine().unique_ingredients());
    const size_t n = cache.num_ingredients();

    std::vector<Request> requests;
    std::vector<size_t> request_recipe;
    const std::vector<recipe::Recipe>& recipes = batch.db().recipes();
    for (size_t i = 0; i < recipes.size(); i += recipes.size() / 8 + 1) {
      const std::vector<IngredientId>& ingredients = recipes[i].ingredients;
      const size_t set_size = static_cast<size_t>(
          std::count_if(ingredients.begin(), ingredients.end(),
                        [&](IngredientId id) {
                          return cache.DenseIndex(id) >= 0;
                        }));
      const size_t candidates = n - set_size;
      for (size_t k : {size_t{0}, size_t{1}, size_t{10}, candidates - 1,
                       candidates, n, SIZE_MAX}) {
        Request suggest;
        suggest.endpoint = Endpoint::kSuggest;
        suggest.ingredient_ids = ingredients;
        suggest.k = k;
        requests.push_back(std::move(suggest));
        request_recipe.push_back(i);
      }
    }
    const std::vector<Response> answers = EvaluateBatch(snapshot, requests);
    ASSERT_EQ(answers.size(), requests.size());
    for (size_t r = 0; r < requests.size(); ++r) {
      SCOPED_TRACE("recipe " + std::to_string(request_recipe[r]) + ", k " +
                   std::to_string(requests[r].k));
      ASSERT_TRUE(answers[r].status.ok()) << answers[r].status.ToString();
      const auto& suggestions =
          std::get<std::vector<Suggestion>>(answers[r].payload);
      const auto expected = BruteForceSuggest(
          cache, requests[r].ingredient_ids, requests[r].k);
      ASSERT_EQ(suggestions.size(), expected.size());
      for (size_t j = 0; j < expected.size(); ++j) {
        EXPECT_EQ(suggestions[j].id, expected[j].second) << "rank " << j;
        EXPECT_EQ(suggestions[j].gain, expected[j].first) << "rank " << j;
      }
    }
    // A k = 0 suggest is answered without the sweep, but only once its set
    // resolves: with no resolvable name it gets the error k = 10 gets.
    std::vector<Request> unresolvable(2);
    for (size_t j = 0; j < unresolvable.size(); ++j) {
      unresolvable[j].endpoint = Endpoint::kSuggest;
      unresolvable[j].ingredient_names = {"no such ingredient"};
      unresolvable[j].k = j == 0 ? 0 : 10;
    }
    const std::vector<Response> rejected =
        EvaluateBatch(snapshot, unresolvable);
    ASSERT_EQ(rejected.size(), 2u);
    EXPECT_TRUE(rejected[0].status.IsInvalidArgument())
        << rejected[0].status.ToString();
    EXPECT_EQ(rejected[0].status.ToString(), rejected[1].status.ToString());
  }
}

TEST(ServingEquivalenceTest, SuggestBreaksTiesByAscendingId) {
  // A hand-built world where every candidate ties: base {1,2,3} and five
  // candidates with the identical profile {1,2} all share exactly two
  // compounds with the base ingredient, so the ranking must fall back to
  // ascending ingredient id — never to map order or thread interleaving.
  auto registry = std::make_unique<FlavorRegistry>();
  const IngredientId base =
      registry->AddIngredient("base", Category::kVegetable,
                              FlavorProfile({1, 2, 3}))
          .value();
  std::vector<IngredientId> candidates;
  for (int i = 0; i < 5; ++i) {
    candidates.push_back(
        registry
            ->AddIngredient("cand" + std::to_string(i), Category::kHerb,
                            FlavorProfile({1, 2}))
            .value());
  }
  auto database = std::make_unique<RecipeDatabase>(registry.get());
  std::vector<IngredientId> everything = {base};
  everything.insert(everything.end(), candidates.begin(), candidates.end());
  ASSERT_TRUE(
      database->AddRecipe("all", Region::kItaly, everything).ok());

  auto built = ServingSnapshot::Build(std::move(registry), std::move(database),
                                      std::nullopt, {});
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  Request request;
  request.endpoint = Endpoint::kSuggest;
  request.ingredient_ids = {base};
  request.k = 5;
  const Response response =
      EvaluateQuery(**built, request, MakeContext(request));
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  const auto& suggestions =
      std::get<std::vector<Suggestion>>(response.payload);
  ASSERT_EQ(suggestions.size(), 5u);
  for (size_t i = 0; i < suggestions.size(); ++i) {
    EXPECT_EQ(suggestions[i].id, candidates[i]);  // ascending id order
    EXPECT_EQ(suggestions[i].gain, 2.0);          // all tied
  }
}

TEST(ServingEquivalenceTest, SuggestTopKIdenticalAcrossThreadCounts) {
  // The satellite determinism contract: the serialized top-K answer is
  // byte-identical whether the engine runs 1, 4, or 16 worker threads, and
  // whether requests arrive serially or as a concurrent storm.
  auto snapshot_result =
      ServingSnapshot::FromSyntheticWorld(GenerateSmall(7), {});
  ASSERT_TRUE(snapshot_result.ok()) << snapshot_result.status().ToString();
  auto snapshot = std::move(snapshot_result).value();

  std::vector<Request> requests;
  const std::vector<recipe::Recipe>& recipes = snapshot->db().recipes();
  for (size_t i = 0; i < 24 && i < recipes.size(); ++i) {
    Request request;
    request.endpoint = Endpoint::kSuggest;
    request.ingredient_ids = recipes[i].ingredients;
    request.k = 8;
    requests.push_back(std::move(request));
  }

  std::vector<std::vector<std::string>> transcripts;
  for (size_t threads : {1u, 4u, 16u}) {
    QueryEngine engine(snapshot, {.num_threads = threads});
    std::vector<std::future<Response>> futures;
    futures.reserve(requests.size());
    for (const Request& request : requests) {
      futures.push_back(engine.Submit(request));
    }
    std::vector<std::string> transcript;
    transcript.reserve(futures.size());
    for (size_t i = 0; i < futures.size(); ++i) {
      transcript.push_back(
          SerializeResponse(std::string("r").append(std::to_string(i)),
                            futures[i].get()));
    }
    engine.Stop();
    transcripts.push_back(std::move(transcript));
  }
  ASSERT_EQ(transcripts.size(), 3u);
  EXPECT_EQ(transcripts[0], transcripts[1]);
  EXPECT_EQ(transcripts[0], transcripts[2]);
}

}  // namespace
}  // namespace culinary::serving
