#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "common/json.h"

namespace culinary::obs {

namespace internal {

std::atomic<int> g_enabled{-1};

bool InitEnabledSlow() {
  const char* env = std::getenv("CULINARYLAB_OBS");
  const bool on = env != nullptr &&
                  (std::strcmp(env, "1") == 0 || std::strcmp(env, "on") == 0 ||
                   std::strcmp(env, "true") == 0 || std::strcmp(env, "ON") == 0);
  // First writer wins; a concurrent SetEnabled may already have stored.
  int expected = -1;
  g_enabled.compare_exchange_strong(expected, on ? 1 : 0,
                                    std::memory_order_relaxed);
  return g_enabled.load(std::memory_order_relaxed) != 0;
}

size_t ShardIndex() {
  static std::atomic<size_t> next{0};
  thread_local const size_t index =
      next.fetch_add(1, std::memory_order_relaxed) % kNumShards;
  return index;
}

namespace {

/// Relaxed CAS add/min/max on atomic<double>; plain fetch_add on
/// atomic<double> is C++20 but not yet universally lowered well, and
/// min/max have no atomic primitive at all.
void AtomicAdd(std::atomic<double>& target, double delta) {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, cur + delta,
                                       std::memory_order_relaxed)) {
  }
}

void AtomicMin(std::atomic<double>& target, double value) {
  double cur = target.load(std::memory_order_relaxed);
  while (value < cur && !target.compare_exchange_weak(
                            cur, value, std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<double>& target, double value) {
  double cur = target.load(std::memory_order_relaxed);
  while (value > cur && !target.compare_exchange_weak(
                            cur, value, std::memory_order_relaxed)) {
  }
}

}  // namespace
}  // namespace internal

void SetEnabled(bool enabled) {
  internal::g_enabled.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

uint64_t Counter::Value() const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.value.load(std::memory_order_relaxed);
  }
  return total;
}

size_t HistogramMetric::BucketFor(double value) {
  if (!(value > 0.0)) return 0;  // non-positive and NaN samples
  if (std::isinf(value)) return kNumBuckets - 1;  // frexp leaves exp unset
  int exp = 0;
  std::frexp(value, &exp);  // value = m * 2^exp, m in [0.5, 1)
  if (exp <= 0) return 0;
  return std::min<size_t>(static_cast<size_t>(exp), kNumBuckets - 1);
}

size_t HistogramMetric::BucketForU64(uint64_t value) {
  // 0 must land in bucket 0 ("samples < 1"), and it must never reach the
  // leading-zero count: clz(0) is undefined for the builtins and
  // countl_zero(0) == 64 would compute bucket "64 - 64 + ..." wrongly.
  if (value == 0) return 0;
  // value in [2^(k-1), 2^k) → bucket k, matching the frexp path:
  // floor(log2(value)) = 63 - countl_zero(value), bucket = floor(log2)+1.
  const size_t bucket = 64 - static_cast<size_t>(std::countl_zero(value));
  return std::min(bucket, kNumBuckets - 1);
}

double HistogramMetric::BucketUpperBound(size_t k) {
  if (k >= kNumBuckets - 1) return std::numeric_limits<double>::infinity();
  return std::ldexp(1.0, static_cast<int>(k));
}

void HistogramMetric::ObserveUnchecked(double value) {
  Shard& shard = shards_[internal::ShardIndex()];
  // A shard's min/max seed from the first sample; the count==0 window is
  // per-shard and guarded by the CAS loops (a racing first sample simply
  // both run the CAS, which converges to the true extremum).
  const uint64_t prior = shard.count.fetch_add(1, std::memory_order_relaxed);
  internal::AtomicAdd(shard.sum, value);
  if (prior == 0) {
    shard.min.store(value, std::memory_order_relaxed);
    shard.max.store(value, std::memory_order_relaxed);
  }
  internal::AtomicMin(shard.min, value);
  internal::AtomicMax(shard.max, value);
  shard.buckets[BucketFor(value)].fetch_add(1, std::memory_order_relaxed);
}

void HistogramMetric::ObserveU64Unchecked(uint64_t value) {
  Shard& shard = shards_[internal::ShardIndex()];
  const double as_double = static_cast<double>(value);
  const uint64_t prior = shard.count.fetch_add(1, std::memory_order_relaxed);
  internal::AtomicAdd(shard.sum, as_double);
  if (prior == 0) {
    shard.min.store(as_double, std::memory_order_relaxed);
    shard.max.store(as_double, std::memory_order_relaxed);
  }
  internal::AtomicMin(shard.min, as_double);
  internal::AtomicMax(shard.max, as_double);
  shard.buckets[BucketForU64(value)].fetch_add(1, std::memory_order_relaxed);
}

HistogramMetric::Snapshot HistogramMetric::Snap() const {
  Snapshot snap;
  std::array<uint64_t, kNumBuckets> merged{};
  bool any = false;
  for (const Shard& shard : shards_) {
    const uint64_t n = shard.count.load(std::memory_order_relaxed);
    if (n == 0) continue;
    snap.count += n;
    snap.sum += shard.sum.load(std::memory_order_relaxed);
    const double lo = shard.min.load(std::memory_order_relaxed);
    const double hi = shard.max.load(std::memory_order_relaxed);
    if (!any) {
      snap.min = lo;
      snap.max = hi;
      any = true;
    } else {
      snap.min = std::min(snap.min, lo);
      snap.max = std::max(snap.max, hi);
    }
    for (size_t k = 0; k < kNumBuckets; ++k) {
      merged[k] += shard.buckets[k].load(std::memory_order_relaxed);
    }
  }
  for (size_t k = 0; k < kNumBuckets; ++k) {
    if (merged[k] != 0) snap.buckets.emplace_back(BucketUpperBound(k), merged[k]);
  }
  return snap;
}

MetricsRegistry::~MetricsRegistry() {
  for (Counter* c : counters_) delete c;
  for (Gauge* g : gauges_) delete g;
  for (HistogramMetric* h : histograms_) delete h;
}

MetricsRegistry& MetricsRegistry::Default() {
  // Leaked Meyers singleton: instrumented destructors of other static
  // objects may still increment counters during shutdown.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (Counter* c : counters_) {
    if (c->name() == name) return *c;
  }
  counters_.push_back(new Counter(std::string(name)));
  return *counters_.back();
}

Gauge& MetricsRegistry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (Gauge* g : gauges_) {
    if (g->name() == name) return *g;
  }
  gauges_.push_back(new Gauge(std::string(name)));
  return *gauges_.back();
}

HistogramMetric& MetricsRegistry::GetHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (HistogramMetric* h : histograms_) {
    if (h->name() == name) return *h;
  }
  histograms_.push_back(new HistogramMetric(std::string(name)));
  return *histograms_.back();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  // Copy the metric pointers under the lock, then read shards lock-free:
  // metrics are never erased, so the pointers stay valid.
  std::vector<Counter*> counters;
  std::vector<Gauge*> gauges;
  std::vector<HistogramMetric*> histograms;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    counters = counters_;
    gauges = gauges_;
    histograms = histograms_;
  }
  MetricsSnapshot snap;
  for (const Counter* c : counters) {
    snap.counters.emplace_back(c->name(), c->Value());
  }
  for (const Gauge* g : gauges) {
    snap.gauges.emplace_back(g->name(), g->Value());
  }
  for (const HistogramMetric* h : histograms) {
    snap.histograms.emplace_back(h->name(), h->Snap());
  }
  auto by_name = [](const auto& a, const auto& b) { return a.first < b.first; };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_name);
  return snap;
}

std::string MetricsToJson(const MetricsSnapshot& snapshot) {
  std::string out;
  // Counters and gauges are both `"name": value` objects.
  const auto append_scalars = [&out](const auto& metrics) {
    for (size_t i = 0; i < metrics.size(); ++i) {
      out += i == 0 ? "\n    \"" : ",\n    \"";
      json::AppendEscaped(out, metrics[i].first);
      out += "\": ";
      json::AppendNumber(out, metrics[i].second);
    }
    out += metrics.empty() ? "" : "\n  ";
  };
  out += "{\n  \"counters\": {";
  append_scalars(snapshot.counters);
  out += "},\n  \"gauges\": {";
  append_scalars(snapshot.gauges);
  out += "},\n  \"histograms\": {";
  for (size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const auto& [name, h] = snapshot.histograms[i];
    out += i == 0 ? "\n    \"" : ",\n    \"";
    json::AppendEscaped(out, name);
    out += "\": {\"count\": ";
    json::AppendNumber(out, h.count);
    out += ", \"sum\": ";
    json::AppendNumber(out, h.sum);
    out += ", \"mean\": ";
    json::AppendNumber(out, h.mean());
    out += ", \"min\": ";
    json::AppendNumber(out, h.min);
    out += ", \"max\": ";
    json::AppendNumber(out, h.max);
    out += ", \"buckets\": [";
    for (size_t b = 0; b < h.buckets.size(); ++b) {
      out += b == 0 ? "{\"le\": " : ", {\"le\": ";
      json::AppendNumber(out, h.buckets[b].first);
      out += ", \"count\": ";
      json::AppendNumber(out, h.buckets[b].second);
      out += '}';
    }
    out += "]}";
  }
  out += snapshot.histograms.empty() ? "" : "\n  ";
  out += "}\n}\n";
  return out;
}

bool WriteMetricsJsonFile(const MetricsRegistry& registry,
                          const std::string& path, std::string* error) {
  const std::string json = MetricsToJson(registry.Snapshot());
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    if (error != nullptr) *error = "cannot open " + path + " for writing";
    return false;
  }
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool ok = written == json.size() && std::fclose(f) == 0;
  if (!ok) {
    if (error != nullptr) *error = "short write to " + path;
  }
  return ok;
}

}  // namespace culinary::obs
