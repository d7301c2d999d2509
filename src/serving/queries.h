#ifndef CULINARYLAB_SERVING_QUERIES_H_
#define CULINARYLAB_SERVING_QUERIES_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "analysis/null_models.h"
#include "common/cancellation.h"
#include "common/result.h"
#include "flavor/ingredient.h"
#include "recipe/region.h"
#include "serving/snapshot.h"

namespace culinary::serving {

/// The point-query endpoints, as pure functions of one immutable
/// `ServingSnapshot`. The engine wraps these with admission control and
/// metrics; tests call them directly to pin the batch-path equivalence
/// (every answer must be bit-identical to calling `analysis::*` on the same
/// world).
///
/// All endpoints take the per-request lifecycle pair: `cancel` / `deadline`
/// are checked at entry and, for the candidate scans, cooperatively inside
/// the loop, so one slow query cannot overstay a request budget.

/// Per-request lifecycle + paging context.
struct QueryContext {
  culinary::CancellationToken cancel{};
  culinary::Deadline deadline{};
};

// --- request / response types -----------------------------------------------
// (These live here rather than in engine.h so the batch evaluator below can
// speak the same vocabulary without a circular include; the engine re-exports
// them by including this header.)

/// The five point-query endpoints the engine serves.
enum class Endpoint {
  kPing = 0,     ///< liveness + current snapshot generation
  kScore,        ///< N_s + classification of an ingredient set
  kSuggest,      ///< top-K world-cache ingredients outside a set, by
                 ///< (`Suggestion::gain` desc, id asc)
  kFingerprint,  ///< one cuisine's culinary fingerprint
  kSimilar,      ///< nearest cuisines to one region
};

/// Stable lower-case wire/metric name of an endpoint ("score", ...).
const char* EndpointName(Endpoint endpoint);

/// One point query. `ingredient_names` wins when non-empty; otherwise
/// `ingredient_ids` is used (score/suggest only). `k` is the result budget
/// for suggest/similar and the top-ingredient count for fingerprint.
struct Request {
  Endpoint endpoint = Endpoint::kPing;
  std::vector<std::string> ingredient_names;
  std::vector<flavor::IngredientId> ingredient_ids;
  recipe::Region region = recipe::Region::kWorld;
  size_t k = 10;
  /// Per-request latency budget in milliseconds; negative = unbounded. The
  /// budget is evaluation-relative: the clock starts when evaluation starts
  /// (single or batched), not at submission.
  double deadline_ms = -1.0;
  /// Optional caller-side cancellation; a default token never cancels.
  culinary::CancellationToken cancel;
};

// --- score ------------------------------------------------------------------

struct ScoreResult {
  /// N_s of the resolved ingredient set over the world pairing cache —
  /// exactly `analysis::RecipePairingScore(world_cache, ids)`.
  double score = 0.0;
  /// Ingredient ids that resolved, ascending (deduplicated).
  std::vector<flavor::IngredientId> resolved;
  /// Request names that did not resolve against the registry.
  std::vector<std::string> unresolved;
  /// Most plausible source cuisine of the set (kWorld when the classifier
  /// is empty) — exactly `classifier().Classify(resolved)`.
  recipe::Region classified = recipe::Region::kWorld;
};

/// Scores an ingredient set given by name. At least one name must resolve
/// (kInvalidArgument otherwise).
culinary::Result<ScoreResult> ScoreRecipe(
    const ServingSnapshot& snapshot,
    const std::vector<std::string>& ingredient_names,
    const QueryContext& context = {});

/// Id-level variant (ids unknown to the registry are reported unresolved by
/// stringified id).
culinary::Result<ScoreResult> ScoreRecipeIds(
    const ServingSnapshot& snapshot,
    const std::vector<flavor::IngredientId>& ids,
    const QueryContext& context = {});

// --- suggest ----------------------------------------------------------------

struct Suggestion {
  flavor::IngredientId id = flavor::kInvalidIngredient;
  std::string name;
  /// Mean shared-compound count between the candidate and the request set:
  /// (Σ_{i ∈ set} |F_c ∩ F_i|) / |set| — the marginal flavor-sharing the
  /// candidate would add, in the paper's N_s units.
  double gain = 0.0;
};

// --- fingerprint ------------------------------------------------------------

struct FingerprintResult {
  recipe::Region region = recipe::Region::kWorld;
  size_t num_recipes = 0;
  size_t num_unique_ingredients = 0;
  double mean_recipe_size = 0.0;
  /// Mean N_s over the cuisine's pairable recipes — bit-identical to
  /// `analysis::CuisinePairingStats(world_cache, cuisine).mean()`.
  double mean_pairing = 0.0;
  /// (canonical name, frequency) of the cuisine's most-used ingredients,
  /// in `Cuisine::ByPopularity` order.
  std::vector<std::pair<std::string, int64_t>> top_ingredients;
  /// Null-model comparison, when the snapshot precomputed baselines.
  std::vector<analysis::FoodPairingResult> baselines;
};

/// The culinary fingerprint of one region (`top` popular ingredients).
/// kNotFound for a region code the snapshot does not serve.
culinary::Result<FingerprintResult> Fingerprint(
    const ServingSnapshot& snapshot, recipe::Region region, size_t top,
    const QueryContext& context = {});

// --- similar ----------------------------------------------------------------

struct SimilarResult {
  recipe::Region region = recipe::Region::kWorld;
  /// The k most similar cuisines, best first — bit-identical to
  /// `analysis::NearestCuisines` over the same cuisines and metric.
  std::vector<std::pair<recipe::Region, double>> neighbors;
};

/// Nearest cuisines to `region` by the snapshot's ingredient-Jaccard matrix.
culinary::Result<SimilarResult> SimilarCuisines(
    const ServingSnapshot& snapshot, recipe::Region region, size_t k,
    const QueryContext& context = {});

// --- dispatch: single and batched -------------------------------------------

using Payload = std::variant<std::monostate, ScoreResult,
                             std::vector<Suggestion>, FingerprintResult,
                             SimilarResult>;

struct Response {
  culinary::Status status;
  Endpoint endpoint = Endpoint::kPing;
  /// Generation of the snapshot that answered (1 = the snapshot the engine
  /// started with; bumped by every successful `Reload`). Filled by the
  /// engine; the pure evaluators below leave it 0.
  uint64_t generation = 0;
  Payload payload;
};

/// The lifecycle context for one request: the deadline clock starts now —
/// evaluation start — not at submission (queue wait is governed by the
/// deadline-aware admission estimate instead).
QueryContext MakeContext(const Request& request);

/// Evaluates one request against `snapshot` under `context`. Pure;
/// `generation` is left 0. A suggest runs the `EvaluateBatch` sweep over a
/// batch of one.
Response EvaluateQuery(const ServingSnapshot& snapshot, const Request& request,
                       const QueryContext& context);

/// Batched evaluation: answers every request against the one `snapshot`,
/// in request order, each under its own `MakeContext`. This is the engine's
/// only evaluation path; `QueryEngine::Execute` is a batch of one.
///
/// Non-suggest endpoints dispatch through `EvaluateQuery` per element (they
/// are cheap point reads). Suggest requests are gathered into one
/// structure-of-arrays sweep over the shared-compound matrix: per-request
/// ingredient sets are resolved up front (dense indices + a
/// `flavor::CompoundBitset` membership mask each), the distinct set-member
/// rows are streamed sequentially into per-request uint32 gain accumulators
/// (a row shared by B requests is read from memory once), and a final pass
/// per request keeps a bounded top-K heap under the (gain desc, id asc)
/// order. Gains are integer sums divided by the set size, so every response
/// is bit-identical to its `EvaluateQuery` answer. A resolved set of more
/// than 2^16 corpus ingredients, which only a world that large can produce,
/// is kInvalidArgument: it could overflow an accumulator.
std::vector<Response> EvaluateBatch(const ServingSnapshot& snapshot,
                                    std::span<const Request> requests);

}  // namespace culinary::serving

#endif  // CULINARYLAB_SERVING_QUERIES_H_
