#include "analysis/null_models.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <string>
#include <utility>

#include "common/statistics.h"
#include "obs/obs.h"
#include "robustness/checkpoint.h"
#include "robustness/fault_injector.h"

namespace culinary::analysis {

std::string_view NullModelKindToString(NullModelKind kind) {
  switch (kind) {
    case NullModelKind::kRandom:
      return "Random";
    case NullModelKind::kFrequency:
      return "Frequency";
    case NullModelKind::kCategory:
      return "Category";
    case NullModelKind::kFrequencyCategory:
      return "Frequency+Category";
  }
  return "Unknown";
}

std::string_view NullModelKindSlug(NullModelKind kind) {
  switch (kind) {
    case NullModelKind::kRandom:
      return "random";
    case NullModelKind::kFrequency:
      return "frequency";
    case NullModelKind::kCategory:
      return "category";
    case NullModelKind::kFrequencyCategory:
      return "freqcat";
  }
  return "unknown";
}

culinary::Result<NullModelSampler> NullModelSampler::Make(
    NullModelKind kind, const recipe::Cuisine& cuisine,
    const flavor::FlavorRegistry& registry) {
  if (cuisine.num_recipes() == 0) {
    return culinary::Status::FailedPrecondition("cuisine has no recipes");
  }
  const std::vector<flavor::IngredientId>& ingredients =
      cuisine.unique_ingredients();
  if (ingredients.size() < 2) {
    return culinary::Status::FailedPrecondition(
        "cuisine has fewer than two ingredients");
  }

  NullModelSampler s;
  s.kind_ = kind;
  s.num_ingredients_ = ingredients.size();

  if (kind == NullModelKind::kRandom || kind == NullModelKind::kFrequency) {
    // Empirical recipe-size distribution.
    const culinary::Histogram& hist = cuisine.size_histogram();
    std::vector<double> weights;
    int64_t max_size = hist.max_value();
    for (int64_t v = 0; v <= max_size; ++v) {
      s.sizes_.push_back(v);
      weights.push_back(static_cast<double>(hist.CountAt(v)));
    }
    s.size_sampler_.emplace(weights);
    if (!s.size_sampler_->valid()) {
      return culinary::Status::Internal("size sampler construction failed");
    }
  }

  if (kind == NullModelKind::kFrequency) {
    std::vector<double> freq(ingredients.size(), 0.0);
    for (size_t i = 0; i < ingredients.size(); ++i) {
      freq[i] = static_cast<double>(cuisine.FrequencyOf(ingredients[i]));
    }
    s.frequency_sampler_.emplace(freq);
    if (!s.frequency_sampler_->valid()) {
      return culinary::Status::Internal("frequency sampler construction failed");
    }
  }

  if (kind == NullModelKind::kCategory ||
      kind == NullModelKind::kFrequencyCategory) {
    // Per-category pools over the cuisine's ingredient set.
    s.category_pool_.assign(flavor::kNumCategories, {});
    std::vector<std::vector<double>> pool_weights(flavor::kNumCategories);
    for (size_t i = 0; i < ingredients.size(); ++i) {
      const flavor::Ingredient* ing = registry.Find(ingredients[i]);
      if (ing == nullptr) {
        return culinary::Status::FailedPrecondition(
            "ingredient id " + std::to_string(ingredients[i]) +
            " unknown to registry");
      }
      int cat = static_cast<int>(ing->category);
      s.category_pool_[cat].push_back(static_cast<int>(i));
      pool_weights[cat].push_back(
          static_cast<double>(cuisine.FrequencyOf(ingredients[i])));
    }
    s.category_sampler_.assign(flavor::kNumCategories, std::nullopt);
    if (kind == NullModelKind::kFrequencyCategory) {
      for (int c = 0; c < flavor::kNumCategories; ++c) {
        if (!pool_weights[c].empty()) {
          s.category_sampler_[c].emplace(pool_weights[c]);
        }
      }
    }
    // Category slots of every real recipe.
    s.recipe_category_slots_.reserve(cuisine.num_recipes());
    for (const recipe::Recipe& r : cuisine.recipes()) {
      std::vector<int> slots;
      slots.reserve(r.ingredients.size());
      for (flavor::IngredientId id : r.ingredients) {
        const flavor::Ingredient* ing = registry.Find(id);
        if (ing != nullptr) slots.push_back(static_cast<int>(ing->category));
      }
      if (!slots.empty()) s.recipe_category_slots_.push_back(std::move(slots));
    }
    if (s.recipe_category_slots_.empty()) {
      return culinary::Status::FailedPrecondition(
          "no usable recipes for category model");
    }
  }
  return s;
}

void NullModelSampler::SampleDistinct(const culinary::AliasSampler& sampler,
                                      size_t count, culinary::Rng& rng,
                                      std::vector<int>& out) const {
  // Rejection sampling; recipe sizes (<~30) are far below the ingredient
  // count (hundreds), so collisions are rare. A retry cap guards degenerate
  // weight vectors (e.g. one dominant ingredient).
  const size_t max_attempts = 200 * count + 1000;
  size_t attempts = 0;
  while (out.size() < count && attempts < max_attempts) {
    ++attempts;
    int candidate = static_cast<int>(sampler.Sample(rng));
    if (std::find(out.begin(), out.end(), candidate) == out.end()) {
      out.push_back(candidate);
    }
  }
}

std::vector<int> NullModelSampler::SampleRecipe(culinary::Rng& rng) const {
  std::vector<int> out;
  SampleRecipeInto(rng, out);
  return out;
}

void NullModelSampler::SampleRecipeInto(culinary::Rng& rng,
                                        std::vector<int>& out) const {
  out.clear();
  switch (kind_) {
    case NullModelKind::kRandom: {
      size_t size = static_cast<size_t>(sizes_[size_sampler_->Sample(rng)]);
      size = std::min(size, num_ingredients_);
      if (size == 0) break;
      out.reserve(size);
      // Floyd's algorithm (same draw sequence as
      // Rng::SampleWithoutReplacement), writing dense ints directly so the
      // hot loop needs no size_t staging buffer.
      for (size_t j = num_ingredients_ - size; j < num_ingredients_; ++j) {
        int t = static_cast<int>(rng.NextBounded(j + 1));
        bool taken =
            std::find(out.begin(), out.end(), t) != out.end();
        out.push_back(taken ? static_cast<int>(j) : t);
      }
      break;
    }
    case NullModelKind::kFrequency: {
      size_t size = static_cast<size_t>(sizes_[size_sampler_->Sample(rng)]);
      size = std::min(size, num_ingredients_);
      out.reserve(size);
      SampleDistinct(*frequency_sampler_, size, rng, out);
      break;
    }
    case NullModelKind::kCategory:
    case NullModelKind::kFrequencyCategory: {
      const std::vector<int>& slots = recipe_category_slots_[static_cast<size_t>(
          rng.NextBounded(recipe_category_slots_.size()))];
      out.reserve(slots.size());
      for (int cat : slots) {
        const std::vector<int>& pool = category_pool_[static_cast<size_t>(cat)];
        if (pool.empty()) continue;
        // Draw until distinct or the pool is plausibly exhausted.
        int candidate = -1;
        for (int attempt = 0; attempt < 64; ++attempt) {
          if (kind_ == NullModelKind::kFrequencyCategory &&
              category_sampler_[static_cast<size_t>(cat)].has_value()) {
            candidate = pool[category_sampler_[static_cast<size_t>(cat)]->Sample(rng)];
          } else {
            candidate = pool[static_cast<size_t>(rng.NextBounded(pool.size()))];
          }
          if (std::find(out.begin(), out.end(), candidate) == out.end()) break;
          candidate = -1;
        }
        if (candidate >= 0) out.push_back(candidate);
      }
      break;
    }
  }
}

namespace {

/// Ensemble-block granularity. Fixed — never derived from the thread count
/// — so the block boundaries, the per-block RNG streams and the block-order
/// merge are identical whether the sweep runs on 1 thread or 64.
constexpr size_t kNullRecipesPerBlock = 2048;

}  // namespace

namespace {

/// Content digest of the data the ensemble actually samples and scores:
/// every recipe's ingredient-id list (the size distribution, usage
/// frequencies and category slots all derive from it) and, for each
/// ingredient the cuisine uses, its registry category and flavor-profile
/// molecule ids (categories steer the category models; profiles determine
/// every pairing score). A different synthetic-world seed, a different
/// recipes file, or an edited registry all change this digest.
uint64_t EnsembleInputsDigest(const recipe::Cuisine& cuisine,
                              const flavor::FlavorRegistry& registry) {
  uint64_t digest = culinary::DeriveStreamSeed(0x696e707574ULL,  // "input"
                                               cuisine.num_recipes());
  for (const recipe::Recipe& r : cuisine.recipes()) {
    digest = culinary::DeriveStreamSeed(digest, r.ingredients.size());
    for (flavor::IngredientId id : r.ingredients) {
      digest = culinary::DeriveStreamSeed(digest, static_cast<uint64_t>(id));
    }
  }
  for (flavor::IngredientId id : cuisine.unique_ingredients()) {
    digest = culinary::DeriveStreamSeed(digest, static_cast<uint64_t>(id));
    const flavor::Ingredient* ing = registry.Find(id);
    if (ing == nullptr) continue;  // Make() rejects such cuisines anyway
    digest = culinary::DeriveStreamSeed(digest,
                                        static_cast<uint64_t>(ing->category));
    digest = culinary::DeriveStreamSeed(digest, ing->profile.size());
    for (flavor::MoleculeId mol : ing->profile.ids()) {
      digest = culinary::DeriveStreamSeed(digest, static_cast<uint64_t>(mol));
    }
  }
  return digest;
}

/// The signature pinning everything that determines a block's value: a run
/// may only resume from a checkpoint written with the same seed, ensemble
/// size, block granularity, model kind, region and — via
/// `EnsembleInputsDigest` — the same cuisine and registry content;
/// otherwise the restored partials would be partials of a *different*
/// ensemble. Chained through `DeriveStreamSeed` so every ingredient
/// permutes the whole word.
uint64_t EnsembleSignature(const NullModelOptions& options, NullModelKind kind,
                           const recipe::Cuisine& cuisine,
                           const flavor::FlavorRegistry& registry) {
  uint64_t sig =
      culinary::DeriveStreamSeed(options.seed, 0x636b7074ULL);  // "ckpt"
  sig = culinary::DeriveStreamSeed(sig, options.num_recipes);
  sig = culinary::DeriveStreamSeed(sig, kNullRecipesPerBlock);
  sig = culinary::DeriveStreamSeed(sig, static_cast<uint64_t>(kind));
  sig = culinary::DeriveStreamSeed(sig,
                                   static_cast<uint64_t>(cuisine.region()));
  sig = culinary::DeriveStreamSeed(sig,
                                   EnsembleInputsDigest(cuisine, registry));
  return sig;
}

std::string CheckpointPath(const NullModelOptions& options,
                           NullModelKind kind) {
  return options.checkpoint_prefix + "." + std::string(NullModelKindSlug(kind)) +
         ".ckpt";
}

/// What the writer should do with the checkpoint file after a restore
/// attempt.
enum class RestoreOutcome {
  /// Nothing restored (missing, corrupt, or mismatched file): start fresh.
  kNoCheckpoint,
  /// Every record intact; appending in place is safe.
  kCleanAppend,
  /// Records restored, but the file ends in a torn/corrupt tail. The file
  /// must be rewritten from the restored records: appending after the torn
  /// line would glue the first new record onto it, making that record and
  /// everything after it unloadable on the *next* resume.
  kRewrite,
};

/// Restores completed blocks from `path` into `partials` / `have`. Discard
/// reasons and dropped-record counts are reported through `progress`.
RestoreOutcome RestoreFromCheckpoint(
    const std::string& path, uint64_t signature, size_t num_blocks,
    std::vector<culinary::RunningStats>& partials, std::vector<char>& have,
    EnsembleProgress& progress) {
  culinary::Result<robustness::CheckpointContents> loaded =
      robustness::LoadBlockCheckpoint(path);
  if (!loaded.ok()) {
    if (loaded.status().code() != culinary::StatusCode::kNotFound) {
      // Truncated header, corrupt file, injected read fault: degrade to a
      // clean restart rather than failing the sweep, but say so.
      progress.checkpoint_discarded = true;
      progress.checkpoint_note =
          "checkpoint discarded: " + loaded.status().message();
    }
    return RestoreOutcome::kNoCheckpoint;
  }
  const robustness::CheckpointContents& contents = loaded.value();
  if (contents.signature != signature ||
      contents.num_blocks != static_cast<uint64_t>(num_blocks)) {
    progress.checkpoint_discarded = true;
    progress.checkpoint_note =
        "checkpoint discarded: signature/shape mismatch (different seed, "
        "ensemble size, model, or input data)";
    return RestoreOutcome::kNoCheckpoint;
  }
  for (const robustness::CheckpointBlock& record : contents.blocks) {
    const size_t block = static_cast<size_t>(record.block);
    if (block >= num_blocks || have[block]) continue;
    partials[block] = record.stats;
    have[block] = 1;
    ++progress.blocks_resumed;
  }
  if (contents.records_dropped > 0) {
    progress.checkpoint_note =
        "checkpoint tail dropped: " +
        std::to_string(contents.records_dropped) +
        " torn/corrupt record(s); those blocks will be recomputed";
    return RestoreOutcome::kRewrite;
  }
  return RestoreOutcome::kCleanAppend;
}

/// Shared implementation: `real_mean` is the cuisine's N̄_s, computed once
/// by the caller (the four-model comparison reuses one value rather than
/// re-scoring every real recipe per model).
culinary::Result<FoodPairingResult> CompareWithRealMean(
    const PairingCache& cache, const recipe::Cuisine& cuisine,
    const flavor::FlavorRegistry& registry, NullModelKind kind,
    const NullModelOptions& options, double real_mean) {
  // One null recipe has no spread: σ would be 0 and the Z-score 0.
  if (options.num_recipes < 2) {
    return culinary::Status::InvalidArgument("num_recipes must be at least 2");
  }
  CULINARY_ASSIGN_OR_RETURN(NullModelSampler sampler,
                            NullModelSampler::Make(kind, cuisine, registry));
#if !defined(CULINARYLAB_OBS_DISABLED)
  // Span name carries the model kind; only built when recording.
  std::string span_name;
  if (obs::Enabled()) {
    span_name = "null_model.sweep/" + std::string(NullModelKindToString(kind));
  }
  obs::TraceSpan ensemble_span(span_name.empty() ? "null_model.sweep"
                                                 : span_name,
                               "null_model");
#endif
  CULINARY_OBS_COUNT("null_model.ensembles", 1);
  CULINARY_OBS_COUNT("null_model.samples_requested", options.num_recipes);
  const uint64_t base_seed = options.seed ^
                             (static_cast<uint64_t>(kind) << 32) ^
                             static_cast<uint64_t>(cuisine.region());
  const size_t num_blocks =
      (options.num_recipes + kNullRecipesPerBlock - 1) / kNullRecipesPerBlock;
  std::vector<culinary::RunningStats> partials(num_blocks);
  /// Per-block completion flags. Distinct slots, so concurrent block bodies
  /// never touch the same byte.
  std::vector<char> have(num_blocks, 0);

  EnsembleProgress local_progress;
  EnsembleProgress& progress =
      options.progress != nullptr ? *options.progress : local_progress;
  progress = EnsembleProgress{};
  progress.blocks_total = num_blocks;

  // ---- Checkpoint restore + writer setup -------------------------------
  std::optional<robustness::BlockCheckpointWriter> writer;
  if (!options.checkpoint_prefix.empty()) {
    const std::string path = CheckpointPath(options, kind);
    const uint64_t signature =
        EnsembleSignature(options, kind, cuisine, registry);
    RestoreOutcome restored = RestoreOutcome::kNoCheckpoint;
    if (options.resume) {
      restored = RestoreFromCheckpoint(path, signature, num_blocks, partials,
                                       have, progress);
      if (progress.blocks_resumed > 0) {
        CULINARY_OBS_COUNT("sweep.blocks_resumed", progress.blocks_resumed);
      }
    }
    if (restored == RestoreOutcome::kRewrite) {
      // Atomically publish the restored blocks as a fresh file, then append
      // to it. The atomic publish (vs re-appending into a truncating
      // `Create`) means a crash mid-rewrite keeps the previous checkpoint —
      // with its torn tail, but every intact record — instead of losing the
      // restored records altogether.
      std::vector<robustness::CheckpointBlock> restored_blocks;
      for (size_t block = 0; block < num_blocks; ++block) {
        if (!have[block]) continue;
        restored_blocks.push_back(
            robustness::CheckpointBlock{block, partials[block]});
      }
      culinary::Status published = robustness::WriteCheckpointFile(
          path, signature, num_blocks, restored_blocks);
      if (!published.ok()) {
        return published.WithContext("rewriting restored checkpoint blocks");
      }
    }
    culinary::Result<robustness::BlockCheckpointWriter> opened =
        restored == RestoreOutcome::kNoCheckpoint
            ? robustness::BlockCheckpointWriter::Create(path, signature,
                                                        num_blocks)
            : robustness::BlockCheckpointWriter::OpenForAppend(path, signature,
                                                               num_blocks);
    if (!opened.ok()) {
      return opened.status().WithContext("opening ensemble checkpoint");
    }
    writer.emplace(std::move(opened).value());
  }

  // Blocks still to compute (all of them on a fresh run). Scheduling over
  // this list instead of [0, num_blocks) is what makes resume cheap; each
  // block's RNG stream is still derived from its *original* index, so the
  // recomputed partials are bit-identical to a fresh run's.
  std::vector<size_t> pending;
  pending.reserve(num_blocks);
  for (size_t block = 0; block < num_blocks; ++block) {
    if (!have[block]) pending.push_back(block);
  }

  // First failure injected into a block (or raised appending its
  // checkpoint record). Later blocks become cheap no-ops; completed blocks
  // stay valid, which is exactly the crash the checkpoint protects.
  std::atomic<bool> faulted{false};
  std::mutex fault_mutex;
  culinary::Status fault_status;
  auto record_fault = [&](culinary::Status status) {
    std::lock_guard<std::mutex> lock(fault_mutex);
    if (fault_status.ok()) fault_status = std::move(status);
    faulted.store(true, std::memory_order_release);
  };

  AnalysisOptions sweep_exec = options.exec;
  sweep_exec.trace_label = "null_model.sweep";
  culinary::Status sweep_status =
      ForEachBlock(pending.size(), sweep_exec, [&](size_t i) {
        if (faulted.load(std::memory_order_acquire)) return;
        culinary::Status injected = robustness::FaultInjector::Global().Check(
            robustness::kFaultAnalysisBlock);
        if (!injected.ok()) {
          record_fault(std::move(injected));
          return;
        }
        const size_t block = pending[i];
        culinary::Rng rng(culinary::DeriveStreamSeed(base_seed, block));
        const size_t begin = block * kNullRecipesPerBlock;
        const size_t end =
            std::min(options.num_recipes, begin + kNullRecipesPerBlock);
        culinary::RunningStats stats;
        std::vector<int> dense;
        for (size_t i2 = begin; i2 < end; ++i2) {
          sampler.SampleRecipeInto(rng, dense);
          if (dense.size() < 2) continue;
          // Samplers emit distinct in-range dense indices by construction,
          // so the ensemble can take the trusted in-place scoring path.
          stats.Add(
              RecipePairingScoreDistinct(cache, dense.data(), dense.size()));
        }
        if (writer.has_value()) {
          culinary::Status appended = writer->AppendBlock(block, stats);
          if (!appended.ok()) {
            // The block computed fine but its record may not survive a
            // crash; stop rather than silently lose durability.
            record_fault(std::move(appended));
            return;
          }
        }
        partials[block] = stats;
        have[block] = 1;
      });

  // ---- Partial-result accounting (well-defined even when stopped) ------
  culinary::RunningStats null_stats;
  size_t completed = 0;
  for (size_t block = 0; block < num_blocks; ++block) {
    if (!have[block]) continue;
    ++completed;
    null_stats.Merge(partials[block]);
  }
  progress.blocks_completed = completed;
  progress.partial_stats = null_stats;

  const std::string blocks_context = std::to_string(completed) + " of " +
                                     std::to_string(num_blocks) +
                                     " blocks completed";
  {
    std::lock_guard<std::mutex> lock(fault_mutex);
    if (!fault_status.ok()) {
      return fault_status.WithContext("ensemble aborted mid-sweep; " +
                                      blocks_context);
    }
  }
  if (!sweep_status.ok()) {
    return sweep_status.WithContext("ensemble stopped; " + blocks_context);
  }

  CULINARY_OBS_COUNT("null_model.samples_scored",
                     static_cast<uint64_t>(null_stats.count()));
  if (null_stats.count() == 0) {
    return culinary::Status::FailedPrecondition(
        "null model produced no pairable recipes");
  }

  FoodPairingResult result;
  result.kind = kind;
  result.real_mean = real_mean;
  result.null_mean = null_stats.mean();
  result.null_stddev = null_stats.stddev();
  result.null_count = null_stats.count();
  result.z_score = culinary::ZScore(result.real_mean, result.null_mean,
                                    result.null_stddev, result.null_count);
  return result;
}

}  // namespace

culinary::Result<FoodPairingResult> CompareAgainstNullModel(
    const PairingCache& cache, const recipe::Cuisine& cuisine,
    const flavor::FlavorRegistry& registry, NullModelKind kind,
    const NullModelOptions& options) {
  return CompareWithRealMean(cache, cuisine, registry, kind, options,
                             CuisineMeanPairing(cache, cuisine, options.exec));
}

culinary::Result<std::vector<FoodPairingResult>> CompareAgainstAllModels(
    const PairingCache& cache, const recipe::Cuisine& cuisine,
    const flavor::FlavorRegistry& registry, const NullModelOptions& options) {
  // One real-mean sweep serves all four models; only the null ensembles
  // differ between them.
  const double real_mean = CuisineMeanPairing(cache, cuisine, options.exec);
  // Each per-kind sweep resets its progress struct, so the four runs report
  // into a local one and the caller's (if any) sees the aggregate:
  // completed/resumed counts summed, notes concatenated — including the
  // partially-run kind when a sweep stops early, so the caller can report
  // how far the command got.
  EnsembleProgress* caller_progress = options.progress;
  EnsembleProgress aggregate;
  // All four kinds share one block count, so the command-wide denominator
  // is known up front and stays stable however early the loop stops.
  aggregate.blocks_total =
      4 * ((options.num_recipes + kNullRecipesPerBlock - 1) /
           kNullRecipesPerBlock);
  NullModelOptions per_kind = options;
  std::vector<FoodPairingResult> results;
  for (NullModelKind kind :
       {NullModelKind::kRandom, NullModelKind::kFrequency,
        NullModelKind::kCategory, NullModelKind::kFrequencyCategory}) {
    EnsembleProgress kind_progress;
    per_kind.progress = caller_progress ? &kind_progress : nullptr;
    auto r = CompareWithRealMean(cache, cuisine, registry, kind, per_kind,
                                 real_mean);
    if (caller_progress) {
      aggregate.blocks_completed += kind_progress.blocks_completed;
      aggregate.blocks_resumed += kind_progress.blocks_resumed;
      aggregate.checkpoint_discarded |= kind_progress.checkpoint_discarded;
      if (!kind_progress.checkpoint_note.empty()) {
        if (!aggregate.checkpoint_note.empty()) {
          aggregate.checkpoint_note += "; ";
        }
        aggregate.checkpoint_note += std::string(NullModelKindSlug(kind)) +
                                     ": " + kind_progress.checkpoint_note;
      }
      // The most recent kind's accumulator, not a merge: the four kinds
      // sample distinct null distributions, so merging their stats would
      // describe no ensemble at all.
      aggregate.partial_stats = kind_progress.partial_stats;
      *caller_progress = aggregate;
    }
    if (!r.ok()) return r.status();
    results.push_back(*r);
  }
  return results;
}

}  // namespace culinary::analysis
