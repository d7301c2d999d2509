// Property tests for batched query execution: a shuffled batch of mixed
// score / suggest / fingerprint requests answered through ExecuteBatch (and
// through a Submit storm that the workers coalesce) must serialize
// byte-identically to the same requests answered one at a time through
// Execute — across engine thread counts and world seeds. This is the
// contract that lets the wire-level "batch" op and opportunistic
// coalescing change scheduling freely: batching may never change answers.
//
// A second test hammers ExecuteBatch / Submit against Reload and Stop, the
// tsan companion to engine_race_test for the batch paths.

#include <algorithm>
#include <atomic>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "datagen/world.h"
#include "serving/engine.h"
#include "serving/protocol.h"
#include "serving/queries.h"
#include "serving/snapshot.h"

namespace culinary::serving {
namespace {

std::shared_ptr<const ServingSnapshot> BuildSmall(uint64_t seed) {
  datagen::WorldSpec spec = datagen::WorldSpec::Small();
  spec.seed = seed;
  auto world = datagen::GenerateWorld(spec);
  EXPECT_TRUE(world.ok()) << world.status().ToString();
  auto built =
      ServingSnapshot::FromSyntheticWorld(std::move(world).value(), {});
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return std::move(built).value();
}

/// A shuffled mix of score / suggest / fingerprint / ping drawn from the
/// snapshot's own recipes and regions — shuffled so consecutive requests
/// rarely share an endpoint and the batch evaluator has to interleave
/// sweep jobs with pass-through requests.
std::vector<Request> MakeMixedRequests(const ServingSnapshot& snapshot,
                                       size_t count, uint64_t seed) {
  culinary::Rng rng(seed);
  const std::vector<recipe::Recipe>& recipes = snapshot.db().recipes();
  std::vector<Request> requests;
  requests.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    Request request;
    const uint64_t dice = rng.NextBounded(100);
    if (dice < 65) {
      request.endpoint =
          dice < 30 ? Endpoint::kScore : Endpoint::kSuggest;
      request.ingredient_ids =
          recipes[rng.NextBounded(recipes.size())].ingredients;
      request.k = 5;
    } else if (dice < 90) {
      request.endpoint = Endpoint::kFingerprint;
      request.region =
          recipe::AllRegions()[rng.NextBounded(recipe::kNumRegions)];
      request.k = 5;
    } else {
      request.endpoint = Endpoint::kPing;
    }
    requests.push_back(std::move(request));
  }
  for (size_t i = count; i > 1; --i) {
    std::swap(requests[i - 1], requests[rng.NextBounded(i)]);
  }
  return requests;
}

/// Byte-level view of a response vector: the same serializer the wire path
/// uses, so "identical" means identical down to float formatting.
std::vector<std::string> Serialize(const std::vector<Response>& responses) {
  std::vector<std::string> lines;
  lines.reserve(responses.size());
  for (size_t i = 0; i < responses.size(); ++i) {
    lines.push_back(SerializeResponse(std::to_string(i), responses[i]));
  }
  return lines;
}

TEST(BatchEquivalenceTest, BatchMatchesSequentialExecute) {
  constexpr size_t kRequests = 64;
  for (const uint64_t seed : {uint64_t{1}, uint64_t{7}, uint64_t{20180416}}) {
    auto snapshot = BuildSmall(seed);
    const std::vector<Request> requests =
        MakeMixedRequests(*snapshot, kRequests, seed * 31 + 1);
    for (const size_t threads : {size_t{1}, size_t{4}, size_t{16}}) {
      QueryEngine engine(snapshot, QueryEngineOptions{
                                       .num_threads = threads,
                                       .queue_capacity = 2 * kRequests});

      // Reference: one Execute per request, in order.
      std::vector<Response> sequential;
      sequential.reserve(requests.size());
      for (const Request& request : requests) {
        sequential.push_back(engine.Execute(request));
      }
      const std::vector<std::string> expected = Serialize(sequential);

      // One ExecuteBatch over the whole shuffled vector.
      const std::vector<std::string> batched =
          Serialize(engine.ExecuteBatch(requests));
      EXPECT_EQ(batched, expected)
          << "ExecuteBatch diverged (seed=" << seed
          << " threads=" << threads << ")";

      // A Submit storm: the workers coalesce whatever runs they find, but
      // each future must still resolve to the sequential answer.
      std::vector<std::future<Response>> futures;
      futures.reserve(requests.size());
      for (const Request& request : requests) {
        futures.push_back(engine.Submit(Request(request)));
      }
      std::vector<Response> stormed;
      stormed.reserve(futures.size());
      for (auto& f : futures) stormed.push_back(f.get());
      EXPECT_EQ(Serialize(stormed), expected)
          << "coalesced Submit diverged (seed=" << seed
          << " threads=" << threads << ")";

      const QueryEngine::Stats stats = engine.stats();
      EXPECT_EQ(stats.shed, 0u);
      EXPECT_EQ(stats.executed, 3 * kRequests);

      // Concurrent clients, each sending ExecuteBatch chunks of the
      // engine's coalescing bound, the size of one wire batch line.
      constexpr size_t kChunk = QueryEngine::kBatchMax;
      constexpr size_t kClients = 4;
      std::vector<std::string> chunked(requests.size());
      std::vector<std::thread> clients;
      for (size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
          for (size_t begin = c * kChunk; begin < requests.size();
               begin += kClients * kChunk) {
            const size_t end = std::min(begin + kChunk, requests.size());
            const std::vector<Response> answers = engine.ExecuteBatch(
                std::vector<Request>(requests.begin() + begin,
                                     requests.begin() + end));
            for (size_t i = begin; i < end; ++i) {
              chunked[i] =
                  SerializeResponse(std::to_string(i), answers[i - begin]);
            }
          }
        });
      }
      for (std::thread& client : clients) client.join();
      EXPECT_EQ(chunked, expected)
          << "chunked ExecuteBatch diverged (seed=" << seed
          << " threads=" << threads << ")";
      engine.Stop();
    }
  }
}

TEST(BatchEquivalenceTest, HugeWireKIsClampedNotFatal) {
  // Regression: k rides the wire unclamped beyond the >= 0 check, and the
  // batch sweep used to reserve(k + 1) verbatim — one {"op":"batch"} line
  // carrying k=1e15 would throw length_error inside a worker thread and
  // terminate the server. Huge k must instead return every candidate,
  // batched or not.
  auto snapshot = BuildSmall(3);
  const std::vector<recipe::Recipe>& recipes = snapshot->db().recipes();
  std::vector<Request> requests;
  for (size_t i = 0; i < 2; ++i) {  // two suggests → one coalesced sweep
    Request request;
    request.endpoint = Endpoint::kSuggest;
    request.ingredient_ids = recipes[i % recipes.size()].ingredients;
    request.k = static_cast<size_t>(1e15);
    requests.push_back(std::move(request));
  }
  QueryEngine engine(snapshot, QueryEngineOptions{.num_threads = 1,
                                                  .queue_capacity = 8});
  std::vector<Response> sequential;
  for (const Request& request : requests) {
    sequential.push_back(engine.Execute(request));
  }
  EXPECT_EQ(Serialize(engine.ExecuteBatch(requests)), Serialize(sequential));
  engine.Stop();
}

TEST(BatchEquivalenceTest, BatchVersusReloadVersusStopHammer) {
  // tsan target: ExecuteBatch pins one world while Reload swaps it and Stop
  // tears the workers down. Answers may legitimately differ across the swap
  // (different snapshot) — the invariants are "no crash, no torn state,
  // every future completes, every response carries a real status".
  auto snapshot_a = BuildSmall(1);
  auto snapshot_b = BuildSmall(2);
  const std::vector<Request> requests = MakeMixedRequests(*snapshot_a, 24, 99);

  constexpr int kIterations = 8;
  for (int iter = 0; iter < kIterations; ++iter) {
    auto engine = std::make_unique<QueryEngine>(
        snapshot_a, QueryEngineOptions{.num_threads = 2,
                                       .queue_capacity = 64});
    std::atomic<bool> done{false};

    std::thread reloader([&] {
      for (int i = 0; !done.load(std::memory_order_acquire); ++i) {
        const Status status =
            engine->Reload(i % 2 == 0 ? snapshot_b : snapshot_a);
        if (!status.ok()) {
          EXPECT_TRUE(status.IsFailedPrecondition()) << status.ToString();
          return;
        }
        std::this_thread::yield();
      }
    });

    std::thread batcher([&] {
      while (!done.load(std::memory_order_acquire)) {
        const std::vector<Response> responses =
            engine->ExecuteBatch(requests);
        ASSERT_EQ(responses.size(), requests.size());
        uint64_t generation = 0;
        for (const Response& r : responses) {
          // Ids sampled from world A may not resolve against world B;
          // what may never happen is a torn pin: every response in one
          // batch must carry the same generation.
          if (generation == 0) generation = r.generation;
          EXPECT_EQ(r.generation, generation);
        }
      }
    });

    std::thread submitter([&] {
      while (!done.load(std::memory_order_acquire)) {
        std::vector<std::future<Response>> futures;
        futures.reserve(requests.size());
        for (const Request& request : requests) {
          futures.push_back(engine->Submit(Request(request)));
        }
        for (auto& f : futures) {
          const Response r = f.get();
          EXPECT_TRUE(r.status.ok() || r.status.IsUnavailable() ||
                      r.status.IsInvalidArgument())
              << r.status.ToString();
        }
      }
    });

    std::thread stopper([&] {
      std::this_thread::yield();
      engine->Stop();
      done.store(true, std::memory_order_release);
    });

    stopper.join();
    reloader.join();
    batcher.join();
    submitter.join();
    engine.reset();
  }
}

}  // namespace
}  // namespace culinary::serving
