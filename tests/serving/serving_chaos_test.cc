// Chaos tests for the hardened hot-reload path: inject faults into reloads
// while query threads hammer every endpoint, and demand the self-healing
// contract — the engine serves bit-identical answers from its last good
// snapshot in kDegraded, the circuit breaker stops the hammering after
// consecutive failures, and a clean reload recovers to kServing with the
// generation bumped. Run under both asan and tsan presets.

#include <atomic>
#include <cctype>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "datagen/world.h"
#include "robustness/fault_injector.h"
#include "serving/engine.h"
#include "serving/health.h"
#include "serving/protocol.h"
#include "serving/reload.h"
#include "serving/snapshot.h"
#include "snapshot/snapshot.h"

namespace culinary::serving {
namespace {

using robustness::FaultInjector;
using robustness::ScopedFault;

snapshot::LoadedWorld GenerateLoadedWorld(uint64_t seed) {
  datagen::WorldSpec spec = datagen::WorldSpec::Small();
  if (seed != 0) spec.seed = seed;
  auto generated = datagen::GenerateWorld(spec);
  EXPECT_TRUE(generated.ok()) << generated.status().ToString();
  snapshot::LoadedWorld world;
  world.registry_ptr = std::move(generated.value().universe.registry);
  world.database = std::move(generated.value().database);
  return world;
}

SnapshotSource RebuildSource(uint64_t seed) {
  SnapshotSource source;
  source.rebuild = [seed]() -> culinary::Result<snapshot::LoadedWorld> {
    return GenerateLoadedWorld(seed);
  };
  return source;
}

std::shared_ptr<const ServingSnapshot> BuildSmall(uint64_t seed) {
  auto built = BuildServingSnapshot(RebuildSource(seed));
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return std::move(built).value();
}

/// A fixed probe covering all five endpoints, answered through Execute.
std::vector<Request> ProbeRequests(const ServingSnapshot& snapshot) {
  std::vector<Request> probes;
  const auto& recipes = snapshot.db().recipes();
  Rng rng(7);
  for (int i = 0; i < 20; ++i) {
    Request request;
    switch (i % 5) {
      case 0:
        request.endpoint = Endpoint::kScore;
        request.ingredient_ids =
            recipes[rng.NextBounded(recipes.size())].ingredients;
        break;
      case 1:
        request.endpoint = Endpoint::kSuggest;
        request.ingredient_ids =
            recipes[rng.NextBounded(recipes.size())].ingredients;
        request.k = 5;
        break;
      case 2:
        request.endpoint = Endpoint::kFingerprint;
        request.region = snapshot.cuisines()[0].region();
        request.k = 5;
        break;
      case 3:
        request.endpoint = Endpoint::kSimilar;
        request.region = snapshot.cuisines()[0].region();
        request.k = 3;
        break;
      default:
        request.endpoint = Endpoint::kPing;
        break;
    }
    probes.push_back(std::move(request));
  }
  return probes;
}

std::vector<std::string> Transcript(const QueryEngine& engine,
                                    const std::vector<Request>& probes) {
  std::vector<std::string> lines;
  lines.reserve(probes.size());
  for (size_t i = 0; i < probes.size(); ++i) {
    lines.push_back(
        SerializeResponse(std::to_string(i), engine.Execute(probes[i])));
  }
  return lines;
}

/// Serialized lines with the `"generation":N` field blanked, for comparing
/// payloads across a successful reload (which legitimately bumps the
/// generation while the answers stay identical).
std::vector<std::string> WithoutGeneration(std::vector<std::string> lines) {
  for (std::string& line : lines) {
    const size_t start = line.find("\"generation\":");
    if (start == std::string::npos) continue;
    size_t end = start + std::string("\"generation\":").size();
    while (end < line.size() && std::isdigit(static_cast<unsigned char>(line[end]))) {
      ++end;
    }
    line.erase(start, end - start);
  }
  return lines;
}

TEST(ServingChaosTest, FailedReloadDegradesAndServesLastGoodSnapshot) {
  auto snapshot = BuildSmall(1);
  QueryEngine engine(snapshot, QueryEngineOptions{.num_threads = 1});
  EXPECT_EQ(engine.health(), HealthState::kServing);
  const std::vector<Request> probes = ProbeRequests(*snapshot);
  const std::vector<std::string> healthy = Transcript(engine, probes);
  const uint64_t healthy_generation = engine.generation();

  ReloadManager::Options options;
  options.retry.max_attempts = 2;
  ReloadManager reloads(&engine, options);
  {
    ScopedFault fault(robustness::kFaultServingReload,
                      FaultInjector::Plan::Always(StatusCode::kIOError));
    const Status status = reloads.Reload(RebuildSource(1));
    EXPECT_TRUE(status.IsIOError()) << status.ToString();
  }
  EXPECT_EQ(engine.health(), HealthState::kDegraded);
  EXPECT_EQ(reloads.failed_reloads(), 1u);
  EXPECT_EQ(engine.generation(), healthy_generation);
  // Degraded means: last good snapshot, bit-identical answers.
  EXPECT_EQ(Transcript(engine, probes), healthy);

  // A clean reload recovers to kServing and bumps the generation.
  ASSERT_TRUE(reloads.Reload(RebuildSource(1)).ok());
  EXPECT_EQ(engine.health(), HealthState::kServing);
  EXPECT_EQ(engine.generation(), healthy_generation + 1);
  engine.Stop();
  EXPECT_EQ(engine.health(), HealthState::kStopped);
}

TEST(ServingChaosTest, TransientLoadFailureIsRetriedToSuccess) {
  auto snapshot = BuildSmall(1);
  QueryEngine engine(snapshot, QueryEngineOptions{.num_threads = 1});
  ReloadManager::Options options;
  options.retry.max_attempts = 3;
  ReloadManager reloads(&engine, options);

  // The fault fires on the first build attempt only; the retry loop must
  // absorb it and publish on the second attempt with no degradation.
  ScopedFault fault(robustness::kFaultSnapshotMmap,
                    FaultInjector::Plan::Nth(1, StatusCode::kIOError));
  SnapshotSource source = RebuildSource(1);
  // Route the load through the snapshot machinery so snapshot.mmap fires:
  // write a real snapshot file first.
  const std::string path = ::testing::TempDir() + "/serving_chaos_world.snap";
  {
    snapshot::LoadedWorld world = GenerateLoadedWorld(1);
    const uint64_t digest =
        snapshot::DigestGeneratedWorld(/*seed=*/1, /*small_world=*/true);
    ASSERT_TRUE(snapshot::WriteSnapshotForWorld(world, digest, path).ok());
    source.snapshot_path = path;
    source.expected_digest = digest;
  }
  const Status status = reloads.Reload(source);
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(engine.health(), HealthState::kServing);
  EXPECT_EQ(reloads.failed_reloads(), 0u);
  EXPECT_EQ(reloads.breaker().state(),
            robustness::CircuitBreaker::State::kClosed);
  std::remove(path.c_str());
  engine.Stop();
}

TEST(ServingChaosTest, BreakerOpensAfterConsecutiveFailuresThenHalfOpenProbe) {
  auto snapshot = BuildSmall(1);
  QueryEngine engine(snapshot, QueryEngineOptions{.num_threads = 1});

  int64_t fake_now_ms = 0;
  ReloadManager::Options options;
  options.retry.max_attempts = 1;
  options.breaker.failure_threshold = 3;
  options.breaker.open_cooldown_ms = 1000.0;
  options.clock_ms = [&fake_now_ms] { return fake_now_ms; };
  ReloadManager reloads(&engine, options);
  const SnapshotSource source = RebuildSource(1);

  {
    ScopedFault fault(robustness::kFaultServingReload,
                      FaultInjector::Plan::Always(StatusCode::kIOError));
    for (int i = 0; i < 3; ++i) {
      EXPECT_TRUE(reloads.Reload(source).IsIOError());
      fake_now_ms += 10;
    }
  }
  EXPECT_EQ(reloads.breaker().state(), robustness::CircuitBreaker::State::kOpen);
  EXPECT_EQ(engine.health(), HealthState::kDegraded);

  // While open (and inside the cooldown), attempts are refused without
  // touching the source — even though the fault is now disarmed and a real
  // attempt would succeed.
  const Status refused = reloads.Reload(source);
  EXPECT_TRUE(refused.IsUnavailable()) << refused.ToString();
  EXPECT_EQ(reloads.failed_reloads(), 3u);

  // After the cooldown the half-open probe goes through, succeeds, closes
  // the breaker, and the engine heals.
  fake_now_ms += 2000;
  EXPECT_TRUE(reloads.Reload(source).ok());
  EXPECT_EQ(reloads.breaker().state(),
            robustness::CircuitBreaker::State::kClosed);
  EXPECT_EQ(engine.health(), HealthState::kServing);
  engine.Stop();
}

// The tentpole acceptance scenario: faults injected mid-reload while query
// threads hammer all five endpoints. Every answer produced during the
// degraded phase must be bit-identical to the healthy baseline (same last
// good snapshot), and after the chaos clears one clean reload must restore
// kServing with the generation bumped.
TEST(ServingChaosTest, ReloadFaultsUnderConcurrentLoadServeLastGoodAnswers) {
  auto snapshot = BuildSmall(1);
  QueryEngine engine(snapshot,
                     QueryEngineOptions{.num_threads = 2, .queue_capacity = 32});
  const std::vector<Request> probes = ProbeRequests(*snapshot);
  const std::vector<std::string> healthy = Transcript(engine, probes);
  const uint64_t healthy_generation = engine.generation();

  ReloadManager::Options options;
  options.retry.max_attempts = 1;
  options.breaker.failure_threshold = 1000;  // keep attempts flowing
  ReloadManager reloads(&engine, options);

  std::atomic<bool> done{false};
  std::atomic<uint64_t> mismatches{0};
  std::vector<std::thread> queriers;
  for (int t = 0; t < 3; ++t) {
    queriers.emplace_back([&, t] {
      for (int iter = 0; !done.load(std::memory_order_acquire); ++iter) {
        const size_t i =
            (static_cast<size_t>(iter) + static_cast<size_t>(t) * 7) %
            probes.size();
        if ((iter + t) % 4 == 0) {
          // Every fourth round goes through the admission queue; shed with
          // kUnavailable is legal under load, silent hangs are not.
          Response r = engine.Submit(probes[i]).get();
          if (!r.status.ok() && !r.status.IsUnavailable()) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        } else {
          const std::string line = SerializeResponse(
              std::to_string(i), engine.Execute(probes[i]));
          if (line != healthy[i]) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }

  {
    ScopedFault fault(robustness::kFaultServingReload,
                      FaultInjector::Plan::Always(StatusCode::kIOError));
    for (int i = 0; i < 8; ++i) {
      EXPECT_FALSE(reloads.Reload(RebuildSource(1)).ok());
      EXPECT_EQ(engine.health(), HealthState::kDegraded);
    }
  }
  done.store(true, std::memory_order_release);
  for (std::thread& q : queriers) q.join();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(engine.generation(), healthy_generation);
  EXPECT_EQ(reloads.failed_reloads(), 8u);

  // Chaos over: one clean reload restores service. Same world, so the
  // answers are unchanged — only the generation moves.
  ASSERT_TRUE(reloads.Reload(RebuildSource(1)).ok());
  EXPECT_EQ(engine.health(), HealthState::kServing);
  EXPECT_EQ(engine.generation(), healthy_generation + 1);
  EXPECT_EQ(WithoutGeneration(Transcript(engine, probes)),
            WithoutGeneration(healthy));
  engine.Stop();
}

TEST(ServingChaosTest, ReloadRejectedWhileDrainingDoesNotDegrade) {
  auto snapshot = BuildSmall(1);
  QueryEngine engine(snapshot, QueryEngineOptions{.num_threads = 1});
  ReloadManager reloads(&engine);
  engine.BeginDrain();
  EXPECT_EQ(engine.health(), HealthState::kDraining);
  const Status status = reloads.Reload(RebuildSource(1));
  EXPECT_TRUE(status.IsFailedPrecondition()) << status.ToString();
  // A lifecycle rejection is not a source failure: no degradation, no
  // breaker burn.
  EXPECT_EQ(engine.health(), HealthState::kDraining);
  EXPECT_EQ(reloads.failed_reloads(), 0u);
  EXPECT_EQ(reloads.breaker().state(),
            robustness::CircuitBreaker::State::kClosed);
  engine.Stop();
}

}  // namespace
}  // namespace culinary::serving
