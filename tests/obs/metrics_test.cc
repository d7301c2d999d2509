#include "obs/metrics.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace culinary::obs {
namespace {

/// Forces the runtime switch for a test's duration, restoring the previous
/// state afterwards so tests stay order-independent.
class ScopedEnabled {
 public:
  explicit ScopedEnabled(bool on) : prev_(Enabled()) { SetEnabled(on); }
  ~ScopedEnabled() { SetEnabled(prev_); }

 private:
  bool prev_;
};

TEST(EnabledTest, SetEnabledOverridesEnvironment) {
  ScopedEnabled on(true);
  EXPECT_TRUE(Enabled());
  SetEnabled(false);
  EXPECT_FALSE(Enabled());
  SetEnabled(true);
  EXPECT_TRUE(Enabled());
}

TEST(CounterTest, IncrementRespectsRuntimeSwitch) {
  ScopedEnabled off(false);
  Counter c("test.counter");
  c.Increment(5);
  EXPECT_EQ(c.Value(), 0u);
  SetEnabled(true);
  c.Increment(5);
  c.Increment();
  EXPECT_EQ(c.Value(), 6u);
}

TEST(CounterTest, ConcurrentIncrementsAreExact) {
  ScopedEnabled on(true);
  Counter c("test.hammer");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c]() {
      for (int i = 0; i < kPerThread; ++i) c.IncrementUnchecked(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.Value(), static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(GaugeTest, LastWriteWins) {
  ScopedEnabled on(true);
  Gauge g("test.gauge");
  g.Set(3.5);
  g.Set(-1.25);
  EXPECT_EQ(g.Value(), -1.25);
}

TEST(HistogramTest, BucketMappingIsLog2) {
  // Bucket 0: < 1 (and non-positive); bucket k: [2^(k-1), 2^k).
  EXPECT_EQ(HistogramMetric::BucketFor(0.0), 0u);
  EXPECT_EQ(HistogramMetric::BucketFor(-4.0), 0u);
  EXPECT_EQ(HistogramMetric::BucketFor(0.5), 0u);
  EXPECT_EQ(HistogramMetric::BucketFor(0.999), 0u);
  EXPECT_EQ(HistogramMetric::BucketFor(1.0), 1u);
  EXPECT_EQ(HistogramMetric::BucketFor(1.999), 1u);
  EXPECT_EQ(HistogramMetric::BucketFor(2.0), 2u);
  EXPECT_EQ(HistogramMetric::BucketFor(3.999), 2u);
  EXPECT_EQ(HistogramMetric::BucketFor(4.0), 3u);
  EXPECT_EQ(HistogramMetric::BucketFor(1024.0), 11u);
  // NaN and overflow land in the catch-all buckets, never out of range.
  EXPECT_EQ(HistogramMetric::BucketFor(std::nan("")), 0u);
  EXPECT_EQ(HistogramMetric::BucketFor(1e300), HistogramMetric::kNumBuckets - 1);
  EXPECT_EQ(HistogramMetric::BucketFor(std::numeric_limits<double>::infinity()),
            HistogramMetric::kNumBuckets - 1);
}

TEST(HistogramTest, BucketUpperBounds) {
  EXPECT_EQ(HistogramMetric::BucketUpperBound(0), 1.0);
  EXPECT_EQ(HistogramMetric::BucketUpperBound(1), 2.0);
  EXPECT_EQ(HistogramMetric::BucketUpperBound(10), 1024.0);
  EXPECT_TRUE(std::isinf(
      HistogramMetric::BucketUpperBound(HistogramMetric::kNumBuckets - 1)));
}

TEST(HistogramTest, SnapshotMergesMoments) {
  ScopedEnabled on(true);
  HistogramMetric h("test.hist");
  for (double v : {0.5, 1.5, 3.0, 100.0}) h.ObserveUnchecked(v);
  HistogramMetric::Snapshot snap = h.Snap();
  EXPECT_EQ(snap.count, 4u);
  EXPECT_DOUBLE_EQ(snap.sum, 105.0);
  EXPECT_DOUBLE_EQ(snap.mean(), 26.25);
  EXPECT_EQ(snap.min, 0.5);
  EXPECT_EQ(snap.max, 100.0);
  // 0.5 → bucket 0 (le 1), 1.5 → bucket 1 (le 2), 3.0 → bucket 2 (le 4),
  // 100 → bucket 7 (le 128).
  ASSERT_EQ(snap.buckets.size(), 4u);
  EXPECT_EQ(snap.buckets[0].first, 1.0);
  EXPECT_EQ(snap.buckets[1].first, 2.0);
  EXPECT_EQ(snap.buckets[2].first, 4.0);
  EXPECT_EQ(snap.buckets[3].first, 128.0);
  for (const auto& [le, count] : snap.buckets) EXPECT_EQ(count, 1u);
}

TEST(HistogramTest, ConcurrentObservesMergeExactly) {
  ScopedEnabled on(true);
  HistogramMetric h("test.hist.hammer");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t]() {
      for (int i = 0; i < kPerThread; ++i) {
        h.ObserveUnchecked(static_cast<double>(t + 1));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  HistogramMetric::Snapshot snap = h.Snap();
  EXPECT_EQ(snap.count, static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(snap.min, 1.0);
  EXPECT_EQ(snap.max, 8.0);
  double expected_sum = 0;
  for (int t = 0; t < kThreads; ++t) expected_sum += (t + 1) * kPerThread;
  EXPECT_DOUBLE_EQ(snap.sum, expected_sum);
}

TEST(RegistryTest, GetReturnsSameMetricForSameName) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("x");
  Counter& b = registry.GetCounter("x");
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&registry.GetCounter("y"), &a);
  EXPECT_EQ(&registry.GetGauge("x"), &registry.GetGauge("x"));
  EXPECT_EQ(&registry.GetHistogram("x"), &registry.GetHistogram("x"));
}

TEST(RegistryTest, SnapshotSortsByName) {
  ScopedEnabled on(true);
  MetricsRegistry registry;
  registry.GetCounter("zebra").IncrementUnchecked(1);
  registry.GetCounter("apple").IncrementUnchecked(2);
  registry.GetCounter("mango").IncrementUnchecked(3);
  MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].first, "apple");
  EXPECT_EQ(snap.counters[1].first, "mango");
  EXPECT_EQ(snap.counters[2].first, "zebra");
  EXPECT_EQ(snap.counters[0].second, 2u);
}

TEST(RegistryTest, ConcurrentRegistrationIsSafe) {
  ScopedEnabled on(true);
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry]() {
      for (int i = 0; i < 100; ++i) {
        registry.GetCounter("shared." + std::to_string(i % 10))
            .IncrementUnchecked(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.counters.size(), 10u);
  uint64_t total = 0;
  for (const auto& [name, value] : snap.counters) total += value;
  EXPECT_EQ(total, static_cast<uint64_t>(kThreads) * 100);
}

TEST(JsonTest, RendersAllSections) {
  ScopedEnabled on(true);
  MetricsRegistry registry;
  registry.GetCounter("events").IncrementUnchecked(7);
  registry.GetGauge("threads").Set(4.0);
  registry.GetGauge("ratio").Set(0.1);
  registry.GetHistogram("latency_ms").ObserveUnchecked(3.0);
  std::string json = MetricsToJson(registry.Snapshot());
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"events\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"threads\": 4"), std::string::npos);
  // 17 significant digits, so the export reads back to the same double.
  EXPECT_NE(json.find("\"ratio\": 0.10000000000000001"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"latency_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"le\": 4"), std::string::npos);
}

TEST(JsonTest, EmptyRegistryIsValidJson) {
  MetricsRegistry registry;
  std::string json = MetricsToJson(registry.Snapshot());
  EXPECT_NE(json.find("\"counters\": {}"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\": {}"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\": {}"), std::string::npos);
}

TEST(JsonTest, EscapesMetricNames) {
  ScopedEnabled on(true);
  MetricsRegistry registry;
  registry.GetCounter("weird\"name\\here").IncrementUnchecked(1);
  registry.GetCounter("tab\tcr\rsoh\x01").IncrementUnchecked(1);
  std::string json = MetricsToJson(registry.Snapshot());
  EXPECT_NE(json.find("weird\\\"name\\\\here"), std::string::npos);
  EXPECT_NE(json.find("tab\\tcr\\rsoh\\u0001"), std::string::npos);
}

TEST(JsonTest, InfinityRendersAsString) {
  ScopedEnabled on(true);
  MetricsRegistry registry;
  // 1e300 lands in the overflow bucket whose upper bound is +inf.
  registry.GetHistogram("wide").ObserveUnchecked(1e300);
  std::string json = MetricsToJson(registry.Snapshot());
  EXPECT_NE(json.find("\"le\": \"inf\""), std::string::npos);
  EXPECT_EQ(json.find("inf,"), std::string::npos);  // never bare
}

TEST(JsonFileTest, WritesAndReportsErrors) {
  ScopedEnabled on(true);
  MetricsRegistry registry;
  registry.GetCounter("written").IncrementUnchecked(3);
  const std::string path = ::testing::TempDir() + "/obs_metrics_test.json";
  std::string error;
  ASSERT_TRUE(WriteMetricsJsonFile(registry, path, &error)) << error;
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("\"written\": 3"), std::string::npos);
  std::remove(path.c_str());

  EXPECT_FALSE(WriteMetricsJsonFile(
      registry, "/nonexistent-dir/obs_metrics_test.json", &error));
  EXPECT_FALSE(error.empty());
}

TEST(HistogramTest, BucketForU64HandlesEdgeValues) {
  // Regression: BucketForU64(0) used to feed 0 into the leading-zero count,
  // which is UB for builtin clz. Zero must land in bucket 0 like the double
  // path, not in an arbitrary bucket.
  EXPECT_EQ(HistogramMetric::BucketForU64(0), 0u);
  EXPECT_EQ(HistogramMetric::BucketForU64(1), 1u);
  EXPECT_EQ(HistogramMetric::BucketForU64(1), HistogramMetric::BucketFor(1.0));
  EXPECT_EQ(HistogramMetric::BucketForU64(UINT64_MAX),
            HistogramMetric::kNumBuckets - 1);
}

TEST(HistogramTest, BucketForU64AgreesWithDoublePath) {
  // Powers of two, their neighbors, and a spread of odd values: the integer
  // twin must agree with BucketFor(double) wherever the double is exact.
  for (int shift = 0; shift < 53; ++shift) {
    const uint64_t p = uint64_t{1} << shift;
    EXPECT_EQ(HistogramMetric::BucketForU64(p),
              HistogramMetric::BucketFor(static_cast<double>(p)))
        << "2^" << shift;
    if (p > 1) {
      EXPECT_EQ(HistogramMetric::BucketForU64(p - 1),
                HistogramMetric::BucketFor(static_cast<double>(p - 1)))
          << "2^" << shift << " - 1";
      EXPECT_EQ(HistogramMetric::BucketForU64(p + 1),
                HistogramMetric::BucketFor(static_cast<double>(p + 1)))
          << "2^" << shift << " + 1";
    }
  }
  for (uint64_t v : {3ull, 7ull, 100ull, 999ull, 123456789ull}) {
    EXPECT_EQ(HistogramMetric::BucketForU64(v),
              HistogramMetric::BucketFor(static_cast<double>(v)))
        << v;
  }
}

TEST(HistogramTest, ObserveU64RecordsLikeObserve) {
  ScopedEnabled on(true);
  HistogramMetric h("test.u64");
  h.ObserveU64(0);
  h.ObserveU64(1);
  h.ObserveU64(UINT64_MAX);
  HistogramMetric::Snapshot snap = h.Snap();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_EQ(snap.min, 0.0);
  EXPECT_EQ(snap.max, static_cast<double>(UINT64_MAX));
  // 0 → bucket 0 (le 1), 1 → bucket 1 (le 2), UINT64_MAX → top bucket.
  ASSERT_EQ(snap.buckets.size(), 3u);
  EXPECT_EQ(snap.buckets[0].first, 1.0);
  EXPECT_EQ(snap.buckets[0].second, 1u);
  EXPECT_EQ(snap.buckets[1].first, 2.0);
  EXPECT_EQ(snap.buckets[1].second, 1u);
  EXPECT_EQ(snap.buckets[2].second, 1u);
}

}  // namespace
}  // namespace culinary::obs
