#include "serving/queries.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "analysis/pairing.h"
#include "analysis/similarity.h"
#include "common/status.h"
#include "flavor/bitset.h"
#include "recipe/recipe.h"

namespace culinary::serving {

namespace {

/// Candidate-scan loops re-check the request lifecycle every this many
/// candidates, bounding stop latency without paying a clock read per row.
constexpr size_t kStopCheckStride = 1024;

/// Canonical display name for an id ("#<id>" for ids the registry cannot
/// name — tombstones surfaced through an old cache).
std::string NameFor(const flavor::FlavorRegistry& registry,
                    flavor::IngredientId id) {
  const flavor::Ingredient* ing = registry.Find(id);
  return ing != nullptr ? ing->name
                        : std::string("#").append(std::to_string(id));
}

/// Index of `region` within `snapshot.cuisines()`; nullopt for kWorld or a
/// region the snapshot does not carry.
std::optional<size_t> CuisineIndexFor(const ServingSnapshot& snapshot,
                                      recipe::Region region) {
  const std::vector<recipe::Cuisine>& cuisines = snapshot.cuisines();
  for (size_t i = 0; i < cuisines.size(); ++i) {
    if (cuisines[i].region() == region) return i;
  }
  return std::nullopt;
}

culinary::Result<ScoreResult> ScoreResolved(
    const ServingSnapshot& snapshot, std::vector<flavor::IngredientId> ids,
    std::vector<std::string> unresolved, const QueryContext& context) {
  CULINARY_RETURN_IF_ERROR(CheckStop(context.cancel, context.deadline));
  if (ids.empty()) {
    return culinary::Status::InvalidArgument(
        "no request ingredient resolved against the registry");
  }
  recipe::CanonicalizeIngredients(ids);  // sorted unique, like a Recipe
  ScoreResult result;
  result.score = analysis::RecipePairingScore(snapshot.world_cache(), ids);
  result.classified = snapshot.classifier().Classify(ids);
  result.resolved = std::move(ids);
  result.unresolved = std::move(unresolved);
  return result;
}

/// Largest request set the sweep accepts: each uint32 accumulator adds one
/// uint16 matrix entry per member. Sets are deduplicated dense indices, so
/// only a world of more than 2^16 ingredients can exceed it.
constexpr size_t kMaxSuggestSetSize = size_t{1} << 16;
static_assert(kMaxSuggestSetSize * std::numeric_limits<uint16_t>::max() <=
                  std::numeric_limits<uint32_t>::max(),
              "a full request set must not overflow a uint32 accumulator");

/// Resolved, canonicalized request set mapped into the cache's dense index
/// space: the preamble of every suggest, whether it arrives alone or in a
/// batch. Ingredients the corpus never used contribute no pairing
/// information, mirroring how scoring excludes them from the normalization.
culinary::Result<std::vector<int>> SuggestSetFor(
    const analysis::PairingCache& cache, std::vector<flavor::IngredientId> ids,
    const QueryContext& context) {
  CULINARY_RETURN_IF_ERROR(CheckStop(context.cancel, context.deadline));
  if (ids.empty()) {
    return culinary::Status::InvalidArgument(
        "no request ingredient resolved against the registry");
  }
  recipe::CanonicalizeIngredients(ids);
  std::vector<int> set_dense;
  set_dense.reserve(ids.size());
  for (flavor::IngredientId id : ids) {
    const int d = cache.DenseIndex(id);
    if (d >= 0) set_dense.push_back(d);
  }
  if (set_dense.empty()) {
    return culinary::Status::InvalidArgument(
        "no request ingredient appears in the serving corpus");
  }
  if (set_dense.size() > kMaxSuggestSetSize) {
    return culinary::Status::InvalidArgument(
        "request set has " + std::to_string(set_dense.size()) +
        " corpus ingredients; suggest accepts at most " +
        std::to_string(kMaxSuggestSetSize));
  }
  return set_dense;
}

/// Splits names into (resolved ids, unresolved names).
void ResolveNames(const flavor::FlavorRegistry& registry,
                  const std::vector<std::string>& names,
                  std::vector<flavor::IngredientId>* ids,
                  std::vector<std::string>* unresolved) {
  for (const std::string& name : names) {
    const flavor::IngredientId id = registry.FindByName(name);
    if (id == flavor::kInvalidIngredient) {
      unresolved->push_back(name);
    } else {
      ids->push_back(id);
    }
  }
}

/// Splits raw ids into (known ids, unresolved stringified ids).
void ResolveIds(const flavor::FlavorRegistry& registry,
                const std::vector<flavor::IngredientId>& raw,
                std::vector<flavor::IngredientId>* ids,
                std::vector<std::string>* unresolved) {
  for (flavor::IngredientId id : raw) {
    if (registry.Find(id) == nullptr) {
      unresolved->push_back(std::string("#").append(std::to_string(id)));
    } else {
      ids->push_back(id);
    }
  }
}

}  // namespace

culinary::Result<ScoreResult> ScoreRecipe(
    const ServingSnapshot& snapshot,
    const std::vector<std::string>& ingredient_names,
    const QueryContext& context) {
  std::vector<flavor::IngredientId> ids;
  std::vector<std::string> unresolved;
  ResolveNames(snapshot.registry(), ingredient_names, &ids, &unresolved);
  return ScoreResolved(snapshot, std::move(ids), std::move(unresolved),
                       context);
}

culinary::Result<ScoreResult> ScoreRecipeIds(
    const ServingSnapshot& snapshot,
    const std::vector<flavor::IngredientId>& ids,
    const QueryContext& context) {
  std::vector<flavor::IngredientId> known;
  std::vector<std::string> unresolved;
  ResolveIds(snapshot.registry(), ids, &known, &unresolved);
  return ScoreResolved(snapshot, std::move(known), std::move(unresolved),
                       context);
}

culinary::Result<FingerprintResult> Fingerprint(const ServingSnapshot& snapshot,
                                                recipe::Region region,
                                                size_t top,
                                                const QueryContext& context) {
  CULINARY_RETURN_IF_ERROR(CheckStop(context.cancel, context.deadline));
  const std::optional<size_t> index = CuisineIndexFor(snapshot, region);
  if (!index.has_value()) {
    return culinary::Status::NotFound(
        "no cuisine for region " + std::string(recipe::RegionCode(region)));
  }
  const recipe::Cuisine& cuisine = snapshot.cuisines()[*index];
  FingerprintResult result;
  result.region = region;
  result.num_recipes = cuisine.num_recipes();
  result.num_unique_ingredients = cuisine.unique_ingredients().size();
  result.mean_recipe_size = cuisine.MeanRecipeSize();
  result.mean_pairing = snapshot.PairingStatsAt(*index).mean();
  auto by_popularity = cuisine.ByPopularity();
  if (by_popularity.size() > top) by_popularity.resize(top);
  result.top_ingredients.reserve(by_popularity.size());
  for (const auto& [id, frequency] : by_popularity) {
    result.top_ingredients.emplace_back(NameFor(snapshot.registry(), id),
                                        frequency);
  }
  result.baselines = snapshot.BaselinesAt(*index);
  return result;
}

culinary::Result<SimilarResult> SimilarCuisines(const ServingSnapshot& snapshot,
                                                recipe::Region region, size_t k,
                                                const QueryContext& context) {
  CULINARY_RETURN_IF_ERROR(CheckStop(context.cancel, context.deadline));
  const std::optional<size_t> index = CuisineIndexFor(snapshot, region);
  if (!index.has_value()) {
    return culinary::Status::NotFound(
        "no cuisine for region " + std::string(recipe::RegionCode(region)));
  }
  // Read the precomputed matrix row instead of recomputing the 21 pairwise
  // similarities, replicating `analysis::NearestCuisines` exactly: same
  // candidate order, same comparator, same truncation — the matrix entries
  // themselves come from the same pure metric, so the answer is
  // bit-identical to the batch call.
  const std::vector<std::vector<double>>& matrix = snapshot.similarity();
  const std::vector<recipe::Cuisine>& cuisines = snapshot.cuisines();
  SimilarResult result;
  result.region = region;
  for (size_t c = 0; c < cuisines.size(); ++c) {
    if (c == *index) continue;
    result.neighbors.emplace_back(cuisines[c].region(), matrix[*index][c]);
  }
  std::sort(result.neighbors.begin(), result.neighbors.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  if (result.neighbors.size() > k) result.neighbors.resize(k);
  return result;
}

// --- suggest: one sweep for one request or many -----------------------------

namespace {

/// Flips the sign bit: an order-preserving map from int32 ids to uint32.
constexpr uint32_t kIdSignBit = 0x80000000u;

/// A candidate's rank within one job as one integer; a larger key is a
/// better suggestion, so key order is (gain desc, id asc), a strict total
/// order over unique ids. The high word is the gain numerator. Every gain
/// of a job divides its numerator by the same m = |set| <= 2^16, so two
/// different numerators (< 2^32) give quotients at least 2^-16 apart, far
/// more than rounding moves either; equal numerators give equal gains.
/// The low word is the complemented, order-mapped id, so the smaller id
/// wins a tie.
uint64_t SuggestKey(uint32_t numerator, flavor::IngredientId id) {
  return (uint64_t{numerator} << 32) |
         ~(static_cast<uint32_t>(id) ^ kIdSignBit);
}

flavor::IngredientId SuggestKeyId(uint64_t key) {
  return static_cast<flavor::IngredientId>(~static_cast<uint32_t>(key) ^
                                           kIdSignBit);
}

/// Replaces the root of the min-heap `heap` by `key` and sifts it down.
void ReplaceHeapRoot(std::vector<uint64_t>& heap, uint64_t key) {
  const size_t size = heap.size();
  size_t hole = 0;
  for (size_t child = 1; child < size; child = 2 * hole + 1) {
    if (child + 1 < size && heap[child + 1] < heap[child]) ++child;
    if (key < heap[child]) break;
    heap[hole] = heap[child];
    hole = child;
  }
  heap[hole] = key;
}

/// One suggest request gathered for the sweep.
struct SuggestJob {
  size_t index = 0;          ///< slot in the responses the sweep writes
  std::vector<int> set;      ///< dense request-set indices
  flavor::CompoundBitset members;  ///< membership mask over dense space
  size_t k = 0;
  QueryContext context;
  bool stoppable = false;
  bool failed = false;
  std::vector<uint32_t> acc;  ///< per-candidate gain numerator
};

/// Resolves a suggest request into a sweep job for response slot `index`
/// and appends it to `jobs`, or writes the status that rejects the request
/// into `response`.
void GatherSuggestJob(const ServingSnapshot& snapshot, const Request& request,
                      const QueryContext& context, size_t index,
                      std::vector<SuggestJob>& jobs, Response& response) {
  const analysis::PairingCache& cache = snapshot.world_cache();
  const size_t n = cache.num_ingredients();
  std::vector<flavor::IngredientId> ids;
  std::vector<std::string> unresolved;
  if (!request.ingredient_names.empty()) {
    ResolveNames(snapshot.registry(), request.ingredient_names, &ids,
                 &unresolved);
  } else {
    ResolveIds(snapshot.registry(), request.ingredient_ids, &ids,
               &unresolved);
  }
  auto set = SuggestSetFor(cache, std::move(ids), context);
  if (!set.ok()) {
    response.status = set.status();
    return;
  }
  if (request.k == 0) {  // a valid set, and nothing to rank
    response.payload = std::vector<Suggestion>();
    return;
  }
  SuggestJob job;
  job.index = index;
  job.set = std::move(set).value();
  job.members = flavor::CompoundBitset(n);
  for (int d : job.set) job.members.Set(static_cast<flavor::MoleculeId>(d));
  job.k = request.k;
  job.context = context;
  job.stoppable =
      context.cancel.cancellable() || context.deadline.has_deadline();
  job.acc.assign(n, 0);
  jobs.push_back(std::move(job));
}

/// The structure-of-arrays suggest kernel: one pass over the PairingCache
/// for every gathered job, writing each answer to `responses[job.index]`.
///
/// Phase 1 exploits symmetry of the shared-compound matrix — the gain
/// numerator of candidate c for set S is Σ_{s∈S} M[c][s] = Σ_{s∈S} M[s][c] —
/// to read it as sequential row streams instead of strided column gathers:
/// each *distinct* set-member row across the whole batch is walked once
/// (jobs sorted per row, so a row shared by several requests stays
/// cache-hot), added into each requesting job's accumulator. Integer
/// addition is order-insensitive, so the numerators, and the gains divided
/// from them, do not depend on how requests were batched. Phase 2 ranks
/// each job's candidates on `SuggestKey` in a bounded min-heap of k keys,
/// whose root is the floor a candidate must beat: one integer compare
/// rejects most candidates before the membership test, and only the kept
/// keys are divided into gains.
void SuggestSweep(const ServingSnapshot& snapshot,
                  std::vector<SuggestJob>& jobs,
                  std::span<Response> responses) {
  const analysis::PairingCache& cache = snapshot.world_cache();
  const size_t n = cache.num_ingredients();
  const std::vector<uint16_t>& full = cache.shared_matrix();

  // Phase 1: accumulate, grouped by matrix row.
  std::vector<std::pair<int, size_t>> row_users;  // (dense row, job index)
  for (size_t j = 0; j < jobs.size(); ++j) {
    for (int s : jobs[j].set) row_users.emplace_back(s, j);
  }
  std::sort(row_users.begin(), row_users.end());
  for (const auto& [s, j] : row_users) {
    SuggestJob& job = jobs[j];
    if (job.failed) continue;
    if (job.stoppable) {
      const culinary::Status stop =
          CheckStop(job.context.cancel, job.context.deadline);
      if (!stop.ok()) {
        responses[job.index].status = stop;
        job.failed = true;
        continue;
      }
    }
    const uint16_t* row = full.data() + static_cast<size_t>(s) * n;
    uint32_t* acc = job.acc.data();
    for (size_t c = 0; c < n; ++c) acc[c] += row[c];
  }

  // Phase 2: bounded top-K selection per job.
  std::vector<uint64_t> kept;  // a min-heap once it holds k keys
  for (SuggestJob& job : jobs) {
    if (job.failed) continue;
    // k is wire-controlled; the heap can never hold more than the n
    // candidates, so clamp before reserving or an absurd k would throw
    // length_error in the worker thread. A job has k >= 1 and n >= 1.
    const size_t k = std::min(job.k, n);
    kept.clear();
    kept.reserve(k);
    const uint32_t* acc = job.acc.data();
    bool stopped = false;
    for (size_t c = 0; c < n; ++c) {
      if (job.stoppable && c % kStopCheckStride == 0) {
        const culinary::Status stop =
            CheckStop(job.context.cancel, job.context.deadline);
        if (!stop.ok()) {
          responses[job.index].status = stop;
          stopped = true;
          break;
        }
      }
      const uint64_t key = SuggestKey(acc[c], cache.IdAt(c));
      const bool heap_full = kept.size() == k;
      if (heap_full && key <= kept[0]) continue;
      if (job.members.Test(static_cast<flavor::MoleculeId>(c))) continue;
      if (heap_full) {
        ReplaceHeapRoot(kept, key);
      } else {
        kept.push_back(key);
        if (kept.size() == k) {
          std::make_heap(kept.begin(), kept.end(), std::greater<>());
        }
      }
    }
    if (stopped) continue;
    std::sort(kept.begin(), kept.end(), std::greater<>());
    const double m = static_cast<double>(job.set.size());
    std::vector<Suggestion> suggestions;
    suggestions.reserve(kept.size());
    for (uint64_t key : kept) {
      Suggestion s;
      s.id = SuggestKeyId(key);
      s.name = NameFor(snapshot.registry(), s.id);
      s.gain = static_cast<double>(key >> 32) / m;
      suggestions.push_back(std::move(s));
    }
    responses[job.index].payload = std::move(suggestions);
  }
}

}  // namespace

// --- dispatch ---------------------------------------------------------------

const char* EndpointName(Endpoint endpoint) {
  switch (endpoint) {
    case Endpoint::kPing:
      return "ping";
    case Endpoint::kScore:
      return "score";
    case Endpoint::kSuggest:
      return "suggest";
    case Endpoint::kFingerprint:
      return "fingerprint";
    case Endpoint::kSimilar:
      return "similar";
  }
  return "unknown";
}

QueryContext MakeContext(const Request& request) {
  QueryContext context;
  context.cancel = request.cancel;
  if (request.deadline_ms >= 0) {
    context.deadline = culinary::Deadline::After(request.deadline_ms);
  }
  return context;
}

Response EvaluateQuery(const ServingSnapshot& snapshot, const Request& request,
                       const QueryContext& context) {
  Response response;
  response.endpoint = request.endpoint;
  const bool by_name = !request.ingredient_names.empty();
  switch (request.endpoint) {
    case Endpoint::kPing:
      response.status = culinary::Status::OK();
      break;
    case Endpoint::kScore: {
      auto result =
          by_name ? ScoreRecipe(snapshot, request.ingredient_names, context)
                  : ScoreRecipeIds(snapshot, request.ingredient_ids, context);
      if (result.ok()) {
        response.payload = std::move(result).value();
      } else {
        response.status = result.status();
      }
      break;
    }
    case Endpoint::kSuggest: {
      std::vector<SuggestJob> jobs;
      GatherSuggestJob(snapshot, request, context, 0, jobs, response);
      if (!jobs.empty()) SuggestSweep(snapshot, jobs, {&response, 1});
      break;
    }
    case Endpoint::kFingerprint: {
      auto result = Fingerprint(snapshot, request.region, request.k, context);
      if (result.ok()) {
        response.payload = std::move(result).value();
      } else {
        response.status = result.status();
      }
      break;
    }
    case Endpoint::kSimilar: {
      auto result = SimilarCuisines(snapshot, request.region, request.k,
                                    context);
      if (result.ok()) {
        response.payload = std::move(result).value();
      } else {
        response.status = result.status();
      }
      break;
    }
  }
  return response;
}

std::vector<Response> EvaluateBatch(const ServingSnapshot& snapshot,
                                    std::span<const Request> requests) {
  std::vector<Response> responses(requests.size());
  // Everything but suggest is a cheap point read dispatched per element.
  // It goes first, so a suggest's deadline counts its sweep, not the rest
  // of a mixed batch.
  for (size_t i = 0; i < requests.size(); ++i) {
    const Request& request = requests[i];
    if (request.endpoint != Endpoint::kSuggest) {
      responses[i] = EvaluateQuery(snapshot, request, MakeContext(request));
    }
  }
  // Then the suggests, gathered into one sweep.
  std::vector<SuggestJob> jobs;
  for (size_t i = 0; i < requests.size(); ++i) {
    const Request& request = requests[i];
    if (request.endpoint != Endpoint::kSuggest) continue;
    responses[i].endpoint = Endpoint::kSuggest;
    GatherSuggestJob(snapshot, request, MakeContext(request), i, jobs,
                     responses[i]);
  }
  if (!jobs.empty()) SuggestSweep(snapshot, jobs, responses);
  return responses;
}

}  // namespace culinary::serving
