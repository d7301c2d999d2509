// Adaptive overload control and shutdown-race coverage for the query
// engine: deadline-aware admission shedding (scaled by the observed batch
// size), the watchdog's stalled-worker detection, coalescing of queued
// runs, deadlines that start at evaluation, consistency of the Stats
// counters under concurrent load, and the queue-full-shed-vs-Stop race.
// The hammer tests are written for tsan (CULINARYLAB_SANITIZE=thread),
// where a torn counter read or an abandoned promise is a hard failure.

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/world.h"
#include "robustness/fault_injector.h"
#include "serving/engine.h"
#include "serving/health.h"
#include "serving/snapshot.h"

namespace culinary::serving {
namespace {

using robustness::FaultInjector;
using robustness::ScopedFault;

std::shared_ptr<const ServingSnapshot> BuildSmall() {
  auto world = datagen::GenerateWorld(datagen::WorldSpec::Small());
  EXPECT_TRUE(world.ok()) << world.status().ToString();
  auto built =
      ServingSnapshot::FromSyntheticWorld(std::move(world).value(), {});
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return std::move(built).value();
}

Request Ping(double deadline_ms = -1.0) {
  Request request;
  request.endpoint = Endpoint::kPing;
  request.deadline_ms = deadline_ms;
  return request;
}

/// Primes the service-time estimate at >= 100 ms: one direct `Execute`
/// stalled 100 ms at the `serving.execute` site is the first unit of work
/// the engine observes, and the EWMA starts at its wall time.
void PrimeServiceEstimate(QueryEngine& engine) {
  ScopedFault fault(robustness::kFaultServingExecute,
                    FaultInjector::Plan::DelayMs(100.0));
  EXPECT_TRUE(engine.Execute(Ping()).status.ok());
}

TEST(OverloadTest, DeadlineAwareShedWhenEstimatedWaitExceedsDeadline) {
  QueryEngine engine(BuildSmall(), QueryEngineOptions{.num_threads = 1});
  // With the estimate at >= 100 ms, any request with a deadline below
  // (queue+1)*100ms is shed at the door without ever racing the worker.
  PrimeServiceEstimate(engine);

  // 1 ms deadline vs a 100 ms estimated wait: shed, with the deadline
  // subset counter moving in step.
  Response shed = engine.Submit(Ping(/*deadline_ms=*/1.0)).get();
  EXPECT_TRUE(shed.status.IsUnavailable()) << shed.status.ToString();
  QueryEngine::Stats stats = engine.stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.deadline_shed, 1u);
  EXPECT_EQ(stats.accepted, 0u);

  // A generous deadline clears the estimate and is admitted.
  Response ok = engine.Submit(Ping(/*deadline_ms=*/10000.0)).get();
  EXPECT_TRUE(ok.status.ok()) << ok.status.ToString();

  // No deadline = never shed by the estimator, regardless of the estimate.
  Response unbounded = engine.Submit(Ping()).get();
  EXPECT_TRUE(unbounded.status.ok()) << unbounded.status.ToString();

  stats = engine.stats();
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.shed, 1u);
  engine.Stop();
}

TEST(OverloadTest, WatchdogFlagsStalledWorker) {
  QueryEngine engine(BuildSmall(), QueryEngineOptions{.num_threads = 1});

  // An injected delay 500 ms past the stall threshold keeps the worker's
  // heartbeat busy beyond it for ~5 watchdog intervals; the watchdog must
  // flag it exactly once for this request.
  {
    ScopedFault fault(robustness::kFaultServingExecute,
                      FaultInjector::Plan::DelayMs(
                          QueryEngine::kStallThresholdMs + 500.0));
    EXPECT_TRUE(engine.Submit(Ping()).get().status.ok());
  }
  // The watchdog observes the stall while the worker is busy, so by the
  // time the future resolved the counter is already in; poll briefly to
  // absorb scheduler noise on single-core machines.
  uint64_t stalls = 0;
  for (int i = 0; i < 100 && stalls == 0; ++i) {
    stalls = engine.stats().worker_stalls;
    if (stalls == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  EXPECT_EQ(stalls, 1u);

  // A fast follow-up request must not be flagged: the count stays put
  // across two more watchdog passes.
  EXPECT_TRUE(engine.Submit(Ping()).get().status.ok());
  std::this_thread::sleep_for(
      std::chrono::milliseconds(2 * QueryEngine::kWatchdogIntervalMs + 50));
  EXPECT_EQ(engine.stats().worker_stalls, stalls);
  engine.Stop();
}

// Satellite regression: Stats counters used to be read without pinning,
// so a reader could observe `deadline_shed` ahead of `shed` (both move in
// one Submit critical section, deadline first). Under tsan this test also
// proves the counters are data-race-free.
TEST(OverloadTest, StatsSnapshotIsConsistentUnderConcurrentShedding) {
  QueryEngine engine(BuildSmall(), QueryEngineOptions{.num_threads = 2});
  PrimeServiceEstimate(engine);

  std::atomic<bool> done{false};
  std::atomic<uint64_t> violations{0};
  std::thread checker([&] {
    while (!done.load(std::memory_order_acquire)) {
      const QueryEngine::Stats stats = engine.stats();
      // Every deadline shed is a shed; a torn read breaks this.
      if (stats.deadline_shed > stats.shed) {
        violations.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  std::vector<std::thread> submitters;
  for (int t = 0; t < 3; ++t) {
    submitters.emplace_back([&] {
      for (int i = 0; i < 400; ++i) {
        // Tight deadline against the primed 100 ms estimate: every one of
        // these is a deadline shed, so both counters move constantly.
        engine.Submit(Ping(/*deadline_ms=*/0.5)).get();
      }
    });
  }
  for (std::thread& s : submitters) s.join();
  done.store(true, std::memory_order_release);
  checker.join();

  EXPECT_EQ(violations.load(), 0u);
  const QueryEngine::Stats stats = engine.stats();
  EXPECT_EQ(stats.shed, 1200u);
  EXPECT_EQ(stats.deadline_shed, 1200u);
  engine.Stop();
}

// Satellite: a queue-full shed racing Stop must leave no future behind —
// every Submit resolves with kUnavailable (shed / stopped) or a real
// response (drained by the workers after stop), never an abandoned
// promise (observed as broken_promise or a hang).
TEST(OverloadTest, QueueFullShedRacingStopResolvesEveryFuture) {
  auto snapshot = BuildSmall();
  constexpr int kIterations = 8;
  constexpr int kSubmitters = 3;
  constexpr int kPerThread = 64;
  for (int iter = 0; iter < kIterations; ++iter) {
    auto engine = std::make_unique<QueryEngine>(
        snapshot, QueryEngineOptions{.num_threads = 2, .queue_capacity = 4});
    std::vector<std::vector<std::future<Response>>> futures(kSubmitters);
    std::vector<std::thread> submitters;
    for (int t = 0; t < kSubmitters; ++t) {
      futures[t].reserve(kPerThread);
      submitters.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          futures[t].push_back(engine->Submit(Ping()));
        }
      });
    }
    // Stop lands mid-burst: some submissions raced the queue-full check,
    // some the stopped flag, some were already queued and must drain.
    engine->Stop();
    for (std::thread& s : submitters) s.join();

    for (auto& per_thread : futures) {
      for (auto& future : per_thread) {
        ASSERT_EQ(future.wait_for(std::chrono::seconds(30)),
                  std::future_status::ready)
            << "abandoned future at iteration " << iter;
        const Response response = future.get();
        EXPECT_TRUE(response.status.ok() || response.status.IsUnavailable())
            << response.status.ToString();
      }
    }
  }
}

// The admission estimate divides by the observed batch size. One engine,
// one worker, a ~100 ms per-unit service estimate throughout: while every
// unit it has observed held one request, a 90 ms deadline (under the
// >= 100 ms estimated wait) is shed at the door. After one 100 ms unit of
// `kBatchMax` requests — the unit a coalescing worker runs — the batch
// estimate is 1 + 0.2 * 15 = 4, the same deadline expects ~25 ms of queue
// wait, and the request is admitted. Same math as
// DeadlineAwareShedWhenEstimatedWaitExceedsDeadline, third factor pinned.
TEST(OverloadTest, BatchEstimateScalesAdmissionWaitEstimate) {
  QueryEngine engine(BuildSmall(), QueryEngineOptions{.num_threads = 1});
  PrimeServiceEstimate(engine);
  EXPECT_DOUBLE_EQ(engine.admission_batch_estimate(), 1.0);
  Response shed = engine.Submit(Ping(/*deadline_ms=*/90.0)).get();
  EXPECT_TRUE(shed.status.IsUnavailable()) << shed.status.ToString();
  EXPECT_EQ(engine.stats().deadline_shed, 1u);

  {
    ScopedFault fault(robustness::kFaultServingExecute,
                      FaultInjector::Plan::DelayMs(100.0));
    const std::vector<Request> unit(QueryEngine::kBatchMax, Ping());
    for (const Response& response : engine.ExecuteBatch(unit)) {
      EXPECT_TRUE(response.status.ok()) << response.status.ToString();
    }
  }
  EXPECT_DOUBLE_EQ(engine.admission_batch_estimate(), 4.0);
  Response admitted = engine.Submit(Ping(/*deadline_ms=*/90.0)).get();
  EXPECT_TRUE(admitted.status.ok()) << admitted.status.ToString();
  EXPECT_EQ(engine.stats().deadline_shed, 1u);
  engine.Stop();
}

// A request's deadline clock starts when its evaluation starts
// (`MakeContext`), not at admission: a score request with a 50 ms deadline
// that waits ~150 ms behind a stalled worker is answered normally.
TEST(OverloadTest, QueueWaitDoesNotBurnTheDeadline) {
  auto snapshot = BuildSmall();
  QueryEngine engine(snapshot, QueryEngineOptions{.num_threads = 1});
  Request score;
  score.endpoint = Endpoint::kScore;
  score.ingredient_ids = snapshot->db().recipes().front().ingredients;
  score.deadline_ms = 50.0;

  std::future<Response> stalled;
  std::future<Response> queued;
  {
    ScopedFault fault(robustness::kFaultServingExecute,
                      FaultInjector::Plan::DelayMs(200.0));
    stalled = engine.Submit(Ping());
    // Give the worker time to pick the ping up alone, so the score queues
    // behind a busy worker.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    queued = engine.Submit(score);
  }
  EXPECT_TRUE(stalled.get().status.ok());
  const Response answer = queued.get();
  EXPECT_TRUE(answer.status.ok()) << answer.status.ToString();
  EXPECT_EQ(answer.endpoint, Endpoint::kScore);
  EXPECT_EQ(engine.stats().deadline_shed, 0u);
  engine.Stop();
}

// Tentpole: a worker that finds a same-endpoint run waiting coalesces it
// into one unit of work, and the batch-size EWMA learns the coalescing
// factor from what actually happened. One worker is pinned inside a slow
// first request; seven pings pile up behind it and must retire as (at most
// two) coalesced batches, moving `coalesced` by at least 6 and pulling the
// admission batch estimate above its pessimistic start of 1.
TEST(OverloadTest, WorkersCoalesceQueuedRunsAndLearnBatchSize) {
  QueryEngine engine(BuildSmall(), QueryEngineOptions{.num_threads = 1});

  std::vector<std::future<Response>> futures;
  {
    ScopedFault fault(robustness::kFaultServingExecute,
                      FaultInjector::Plan::DelayMs(200.0));
    futures.push_back(engine.Submit(Ping()));
    // Give the worker time to pick the first request up alone, so the rest
    // genuinely queue behind a busy worker instead of racing admission.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    for (int i = 0; i < 7; ++i) futures.push_back(engine.Submit(Ping()));
  }
  for (auto& f : futures) {
    EXPECT_TRUE(f.get().status.ok());
  }

  const QueryEngine::Stats stats = engine.stats();
  EXPECT_EQ(stats.executed, 8u);
  // However the pickup raced, 8 same-endpoint requests through a briefly
  // blocked single worker retire in at most 3 units given the coalescing
  // bound of 16 — at least 6 of them rode along coalesced.
  EXPECT_GE(stats.coalesced, 6u);
  EXPECT_LE(stats.batches, 3u);
  EXPECT_GT(engine.admission_batch_estimate(), 1.0);
  engine.Stop();
}

TEST(OverloadTest, DrainClosesAdmissionButDirectExecutionContinues) {
  QueryEngine engine(BuildSmall(), QueryEngineOptions{.num_threads = 1});
  EXPECT_EQ(engine.health(), HealthState::kServing);
  engine.BeginDrain();
  EXPECT_EQ(engine.health(), HealthState::kDraining);

  // Queued admission is closed...
  Response shed = engine.Submit(Ping()).get();
  EXPECT_TRUE(shed.status.IsUnavailable()) << shed.status.ToString();
  // ...but in-flight style direct execution still answers (the drain
  // semantic: finish what's accepted, refuse new work).
  EXPECT_TRUE(engine.Execute(Ping()).status.ok());

  engine.Stop();
  EXPECT_EQ(engine.health(), HealthState::kStopped);
  // Idempotent drain/stop: no further transitions.
  engine.BeginDrain();
  EXPECT_EQ(engine.health(), HealthState::kStopped);
}

}  // namespace
}  // namespace culinary::serving
