// Verifies the umbrella header is self-contained and exposes the whole
// public API surface (one symbol per module).

#include "culinarylab.h"

#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace culinary {
namespace {

TEST(UmbrellaTest, EverySubsystemReachable) {
  // common
  EXPECT_TRUE(Status::OK().ok());
  Rng rng(1);
  EXPECT_LT(rng.NextDouble(), 1.0);
  // dataframe
  EXPECT_EQ(df::DataTypeToString(df::DataType::kInt64), "int64");
  // text
  EXPECT_EQ(text::Singularize("tomatoes"), "tomato");
  // flavor
  flavor::FlavorRegistry registry;
  EXPECT_EQ(registry.num_live_ingredients(), 0u);
  // recipe
  EXPECT_EQ(recipe::RegionCode(recipe::Region::kItaly), "ITA");
  // analysis
  EXPECT_EQ(analysis::NullModelKindToString(analysis::NullModelKind::kRandom),
            "Random");
  // datagen
  EXPECT_EQ(datagen::WorldSpec::Default().regions.size(), 22u);
  // evolution
  evolution::EvolutionConfig config;
  EXPECT_GT(config.target_recipes, 0u);
  // network
  network::Graph graph(3);
  EXPECT_EQ(graph.num_nodes(), 3u);
  // obs
  obs::TraceSink local_sink(4);
  EXPECT_EQ(local_sink.capacity(), 4u);
}

TEST(UmbrellaTest, ObservabilityShardsMergeUnderConcurrency) {
  // Exercised twice by ctest: once plain and once as umbrella_test_obs with
  // CULINARYLAB_OBS=1 in the environment (the tsan preset race-checks that
  // run). Hammers one counter and one histogram from several threads
  // alongside an instrumented parallel sweep, then checks the merged
  // snapshot is exact.
  obs::MetricsRegistry registry;
  obs::Counter& counter = registry.GetCounter("umbrella.hammer");
  obs::HistogramMetric& hist = registry.GetHistogram("umbrella.hammer_ms");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter, &hist]() {
      for (int i = 0; i < kPerThread; ++i) {
        counter.IncrementUnchecked(1);
        hist.ObserveUnchecked(1.5);
      }
    });
  }
  // Run an instrumented sweep concurrently with the hammer: when the obs
  // runtime switch is on (umbrella_test_obs), ForEachBlock's timing path
  // races against the direct shard writes above — exactly what the tsan
  // preset verifies.
  analysis::AnalysisOptions options;
  options.num_threads = 4;
  options.trace_label = "umbrella.sweep";
  std::vector<int> touched(64, 0);
  analysis::ForEachBlock(64, options, [&touched](size_t b) { touched[b] = 1; });
  for (std::thread& t : threads) t.join();
  for (int v : touched) EXPECT_EQ(v, 1);
  EXPECT_EQ(counter.Value(), static_cast<uint64_t>(kThreads) * kPerThread);
  obs::HistogramMetric::Snapshot snap = hist.Snap();
  EXPECT_EQ(snap.count, static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(snap.min, 1.5);
  EXPECT_EQ(snap.max, 1.5);
}

}  // namespace
}  // namespace culinary
