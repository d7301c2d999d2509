#ifndef CULINARYLAB_ANALYSIS_NULL_MODELS_H_
#define CULINARYLAB_ANALYSIS_NULL_MODELS_H_

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "analysis/options.h"
#include "analysis/pairing.h"
#include "common/random.h"
#include "common/result.h"
#include "common/statistics.h"
#include "flavor/registry.h"
#include "recipe/cuisine.h"

namespace culinary::analysis {

/// The four randomized-cuisine models of paper §IV.B. All preserve the
/// cuisine's exact ingredient set and its recipe-size distribution.
enum class NullModelKind : int {
  /// Ingredients chosen uniformly from the cuisine's ingredient set.
  kRandom = 0,
  /// Ingredients chosen with probability proportional to their empirical
  /// frequency of use in the cuisine.
  kFrequency = 1,
  /// The category multiset of a (uniformly sampled) real recipe is kept;
  /// each slot is filled uniformly from that category's ingredients.
  kCategory = 2,
  /// Category multiset kept; each slot filled from its category with
  /// frequency-proportional probability.
  kFrequencyCategory = 3,
};

/// Display name ("Random", "Frequency", "Category", "Frequency+Category").
std::string_view NullModelKindToString(NullModelKind kind);

/// Filesystem-safe slug ("random", "frequency", "category", "freqcat");
/// names the per-model checkpoint file under a checkpoint prefix.
std::string_view NullModelKindSlug(NullModelKind kind);

/// Progress / partial-result report for one ensemble sweep, filled whether
/// the sweep completes, is stopped, or faults. The well-defined partial
/// result of an interrupted ensemble: every counted block ran to
/// completion (a stop never tears a block), and `partial_stats` merges the
/// completed blocks in block-index order.
struct EnsembleProgress {
  size_t blocks_total = 0;
  /// Blocks whose partials exist, resumed ones included.
  size_t blocks_completed = 0;
  /// Blocks restored from the checkpoint instead of recomputed.
  size_t blocks_resumed = 0;
  /// True when a checkpoint was present but unusable (signature mismatch,
  /// corrupt header) and the run restarted clean.
  bool checkpoint_discarded = false;
  /// Human-readable note about checkpoint anomalies (dropped records,
  /// discard reason); empty when nothing noteworthy happened.
  std::string checkpoint_note;
  /// Null-score accumulator over the completed blocks, merged in block
  /// order. For `CompareAgainstAllModels` this is the most recently run
  /// kind's accumulator (the kinds sample distinct null distributions and
  /// are never merged), while the block counters aggregate across all four
  /// kinds with `blocks_total` fixed up front at 4x the per-kind count.
  culinary::RunningStats partial_stats;
};

/// Options for null-model generation.
///
/// The ensemble is partitioned into fixed-size blocks; block `b` draws from
/// its own generator `Rng(DeriveStreamSeed(base, b))` and accumulates a
/// partial `RunningStats`, and the partials merge in block order. Because
/// neither the block boundaries nor the stream seeds depend on
/// `exec.num_threads`, the resulting mean/stddev/z-score are bit-identical
/// for any thread count — 1 thread simply runs the same blocks inline.
struct NullModelOptions {
  /// Number of randomized recipes ("100,000 recipes were generated for the
  /// random control and models"). At least 2, so σ is defined.
  size_t num_recipes = 100000;
  /// PRNG seed; fixed default for reproducible benches.
  uint64_t seed = 0xC0FFEE;
  /// Execution knobs for the sweep (thread count, cancellation, deadline;
  /// see AnalysisOptions).
  AnalysisOptions exec;

  /// When non-empty, completed blocks are appended to the crash-safe
  /// checkpoint file `<checkpoint_prefix>.<kind slug>.ckpt` as the sweep
  /// runs (one per model kind, so `CompareAgainstAllModels` never mixes
  /// ensembles in one file).
  std::string checkpoint_prefix;

  /// With `checkpoint_prefix` set: restore completed blocks from an
  /// existing checkpoint and recompute only the missing ones. Because each
  /// block owns a SplitMix-derived RNG stream and partials round-trip the
  /// file bit-exactly, a resumed ensemble is bit-identical to an
  /// uninterrupted one at any thread count. A missing, mismatched or
  /// corrupt checkpoint degrades to a clean restart, reported via
  /// `EnsembleProgress`. Mismatch detection covers everything that
  /// determines a block's value: the header signature pins seed, ensemble
  /// size, block granularity, model kind, region, *and* a content digest
  /// of the cuisine's recipes and the registry data they reference — so a
  /// checkpoint from a different synthetic world, recipes file, or edited
  /// registry is discarded rather than resumed.
  bool resume = false;

  /// Optional out-param: filled with the sweep's progress and partial
  /// results whether it completes or stops early.
  EnsembleProgress* progress = nullptr;
};

/// Draws randomized recipes from one null model of one cuisine.
///
/// Construction precomputes the samplers (recipe-size alias table,
/// frequency alias table, per-category pools); each `SampleRecipe` is then
/// O(recipe size) expected.
class NullModelSampler {
 public:
  /// Fails (FailedPrecondition) when the cuisine is degenerate: no recipes,
  /// fewer than two ingredients, or — for category models — empty category
  /// pools.
  static culinary::Result<NullModelSampler> Make(
      NullModelKind kind, const recipe::Cuisine& cuisine,
      const flavor::FlavorRegistry& registry);

  /// Draws one randomized recipe as dense indices into a `PairingCache`
  /// built over `cuisine.unique_ingredients()` (which is exactly the index
  /// space this sampler emits). Ingredients within one recipe are distinct.
  std::vector<int> SampleRecipe(culinary::Rng& rng) const;

  /// Allocation-free variant: writes the recipe into `out` (cleared first,
  /// capacity kept). The sweep loop reuses one buffer for its entire block
  /// instead of allocating 100,000 vectors. Thread-safe: samplers are
  /// immutable after construction, all mutable state lives in `rng`/`out`.
  void SampleRecipeInto(culinary::Rng& rng, std::vector<int>& out) const;

  NullModelKind kind() const { return kind_; }

 private:
  NullModelSampler() = default;

  /// Fills `out` with `count` distinct draws from `sampler` (alias table
  /// over all ingredients), rejecting duplicates.
  void SampleDistinct(const culinary::AliasSampler& sampler, size_t count,
                      culinary::Rng& rng, std::vector<int>& out) const;

  NullModelKind kind_ = NullModelKind::kRandom;
  size_t num_ingredients_ = 0;

  /// Sizes observed in the cuisine with their multiplicities.
  std::vector<int64_t> sizes_;
  std::optional<culinary::AliasSampler> size_sampler_;

  /// Frequency-proportional sampler over all ingredients (dense indices).
  std::optional<culinary::AliasSampler> frequency_sampler_;

  /// For category models: each real recipe's slots as category indices, and
  /// per-category ingredient pools (dense indices) with optional
  /// frequency-weighted samplers.
  std::vector<std::vector<int>> recipe_category_slots_;
  std::vector<std::vector<int>> category_pool_;
  std::vector<std::optional<culinary::AliasSampler>> category_sampler_;
};

/// Result of comparing a cuisine against one null model.
struct FoodPairingResult {
  NullModelKind kind = NullModelKind::kRandom;
  double real_mean = 0.0;        ///< N̄_s of the actual cuisine
  double null_mean = 0.0;        ///< N̄_s of the randomized cuisine
  double null_stddev = 0.0;      ///< σ over randomized recipes
  int64_t null_count = 0;        ///< number of randomized recipes
  double z_score = 0.0;          ///< (real − null) / (σ/√N)
};

/// Generates `options.num_recipes` randomized recipes for (cuisine, kind),
/// scores them against `cache` (which must be built over
/// `cuisine.unique_ingredients()`), and returns the comparison with the
/// cuisine's real N̄_s.
culinary::Result<FoodPairingResult> CompareAgainstNullModel(
    const PairingCache& cache, const recipe::Cuisine& cuisine,
    const flavor::FlavorRegistry& registry, NullModelKind kind,
    const NullModelOptions& options = {});

/// Runs all four models. Per-model failures (degenerate cuisines) propagate.
culinary::Result<std::vector<FoodPairingResult>> CompareAgainstAllModels(
    const PairingCache& cache, const recipe::Cuisine& cuisine,
    const flavor::FlavorRegistry& registry,
    const NullModelOptions& options = {});

}  // namespace culinary::analysis

#endif  // CULINARYLAB_ANALYSIS_NULL_MODELS_H_
