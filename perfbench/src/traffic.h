#ifndef PERFBENCH_TRAFFIC_H_
#define PERFBENCH_TRAFFIC_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "common/result.h"
#include "serving/snapshot.h"

namespace perfbench {

/// The 16 suggest requests of one serve_bulk line: the engine's default
/// coalescing bound (`QueryEngineOptions::batch_max`).
inline constexpr size_t kBulkBatch = 16;
/// Result budget of every generated suggest / fingerprint / similar query.
inline constexpr size_t kQueryK = 10;

/// Loads the serving snapshot exactly as `culinary_serve --snapshot-in`
/// does (`BuildServingSnapshot` over the snapshot file, default snapshot
/// options), except that a missing, stale or corrupt file is an error
/// instead of a rebuild: the benchmark must measure the file it was given.
culinary::Result<std::shared_ptr<const culinary::serving::ServingSnapshot>>
LoadServingWorld(const WorldFiles& world);

/// The request lines of one serving workload, each ending in '\n', and the
/// number of answers each line asks for (1, or kBulkBatch for a batch line).
struct Traffic {
  std::vector<std::string> lines;
  std::vector<std::string> reference;  ///< expected answer line, no '\n'
  size_t answers_per_line = 1;
};

/// Deterministic traffic drawn from the world: a pure function of the
/// world and `traffic_seed`. Point traffic uses the loadgen mix (40% score,
/// 30% suggest, 15% fingerprint, 10% similar, 5% ping); bulk traffic wraps
/// kBulkBatch suggest requests into one `"op":"batch"` envelope per line.
/// Ingredient sets are real recipes' ingredients, by canonical name.
Traffic MakeTraffic(const culinary::serving::ServingSnapshot& world,
                    bool bulk, uint64_t traffic_seed, size_t num_lines);

/// Fills `traffic->reference` with the byte-exact answers the server must
/// give: every line parsed by the wire parser, then `QueryEngine::Execute`
/// (a point line) or `QueryEngine::ExecuteBatch` (a batch line) on an
/// engine over `world`, serialized by the wire serializers.
culinary::Status ComputeReference(
    std::shared_ptr<const culinary::serving::ServingSnapshot> world,
    Traffic* traffic);

}  // namespace perfbench

#endif  // PERFBENCH_TRAFFIC_H_
