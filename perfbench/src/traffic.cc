#include "traffic.h"

#include <string_view>
#include <utility>

#include "common/random.h"
#include "recipe/region.h"
#include "serving/engine.h"
#include "serving/protocol.h"
#include "serving/reload.h"
#include "snapshot/snapshot.h"

namespace perfbench {

namespace serving = culinary::serving;

culinary::Result<std::shared_ptr<const serving::ServingSnapshot>>
LoadServingWorld(const WorldFiles& world) {
  serving::SnapshotSource source;
  source.snapshot_path = world.snapshot();
  source.expected_digest = culinary::snapshot::DigestGeneratedWorld(
      EffectiveWorldSeed(world.world_seed), /*small_world=*/false);
  source.policy = culinary::robustness::ErrorPolicy::kStrict;
  source.rewrite_snapshot = false;
  source.rebuild = []() -> culinary::Result<culinary::snapshot::LoadedWorld> {
    return culinary::Status::FailedPrecondition(
        "world snapshot missing; run the benchmark's prep step");
  };
  return serving::BuildServingSnapshot(source);
}

namespace {

/// `"name","name",...` for one real recipe drawn from the world.
void AppendRecipeIngredients(const serving::ServingSnapshot& world,
                             culinary::Rng& rng, std::string* line) {
  const auto& recipes = world.db().recipes();
  const auto& recipe = recipes[rng.NextBounded(recipes.size())];
  *line += "\"ingredients\":[";
  for (size_t j = 0; j < recipe.ingredients.size(); ++j) {
    if (j > 0) *line += ',';
    const culinary::flavor::Ingredient* ing =
        world.registry().Find(recipe.ingredients[j]);
    *line += '"';
    *line += serving::EscapeJson(ing != nullptr ? ing->name : "unknown");
    *line += '"';
  }
  *line += ']';
}

/// One point request in the loadgen mix.
std::string PointRequest(const serving::ServingSnapshot& world,
                         culinary::Rng& rng, size_t i) {
  const uint64_t dice = rng.NextBounded(100);
  const std::string k = std::to_string(kQueryK);
  std::string line = "{\"id\":\"r" + std::to_string(i) + "\",\"op\":\"";
  if (dice < 70) {
    line += dice < 40 ? "score\"," : "suggest\",";
    AppendRecipeIngredients(world, rng, &line);
    if (dice >= 40) line += ",\"k\":" + k;
  } else if (dice < 95) {
    const culinary::recipe::Region region =
        culinary::recipe::AllRegions()[rng.NextBounded(
            culinary::recipe::kNumRegions)];
    line += dice < 85 ? "fingerprint" : "similar";
    line += "\",\"region\":\"";
    line += culinary::recipe::RegionCode(region);
    line += "\",\"k\":" + k;
  } else {
    line += "ping\"";
  }
  line += '}';
  return line;
}

/// One batch envelope of kBulkBatch suggest requests.
std::string BulkRequest(const serving::ServingSnapshot& world,
                        culinary::Rng& rng, size_t i) {
  std::string id = "b";
  id += std::to_string(i);
  std::string line = "{\"id\":\"" + id + "\",\"op\":\"batch\",\"requests\":[";
  for (size_t j = 0; j < kBulkBatch; ++j) {
    if (j > 0) line += ',';
    line += "{\"id\":\"";
    line += id;
    line += '.';
    line += std::to_string(j);
    line += "\",\"op\":\"suggest\",";
    AppendRecipeIngredients(world, rng, &line);
    line += ",\"k\":" + std::to_string(kQueryK) + "}";
  }
  line += "]}";
  return line;
}

}  // namespace

Traffic MakeTraffic(const serving::ServingSnapshot& world, bool bulk,
                    uint64_t traffic_seed, size_t num_lines) {
  Traffic traffic;
  traffic.answers_per_line = bulk ? kBulkBatch : 1;
  culinary::Rng rng(traffic_seed);
  traffic.lines.reserve(num_lines);
  for (size_t i = 0; i < num_lines; ++i) {
    traffic.lines.push_back(
        (bulk ? BulkRequest(world, rng, i) : PointRequest(world, rng, i)) +
        '\n');
  }
  return traffic;
}

culinary::Status ComputeReference(
    std::shared_ptr<const serving::ServingSnapshot> world, Traffic* traffic) {
  serving::QueryEngineOptions options;
  options.num_threads = 1;
  options.enable_watchdog = false;
  serving::QueryEngine engine(std::move(world), options);
  traffic->reference.clear();
  traffic->reference.reserve(traffic->lines.size());
  for (const std::string& line : traffic->lines) {
    auto parsed = serving::ParseRequestLine(
        std::string_view(line).substr(0, line.size() - 1));
    if (!parsed.ok()) return parsed.status();
    const serving::WireRequest& wire = parsed.value();
    if (wire.is_admin) {
      return culinary::Status::Internal("generated an admin line: " + line);
    }
    if (wire.is_batch) {
      std::vector<serving::Request> requests;
      std::vector<std::string> ids;
      for (const serving::WireRequest& sub : wire.batch) {
        requests.push_back(sub.request);
        ids.push_back(sub.id);
      }
      traffic->reference.push_back(serving::SerializeBatchResponse(
          wire.id, ids, engine.ExecuteBatch(requests)));
    } else {
      traffic->reference.push_back(
          serving::SerializeResponse(wire.id, engine.Execute(wire.request)));
    }
  }
  engine.Stop();
  return culinary::Status::OK();
}

}  // namespace perfbench
