// SLO burn-rate alerting, replayed on a synthetic clock. The load-bearing
// scenario is the multi-window ordering contract: on a sharp outage the
// fast (300 s) window must trip before the slow (3600 s) window, and the
// combined page fires only once both agree the problem is sustained.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/slo.h"

namespace culinary::obs {
namespace {

// One good request per second for [0, 3600] — a full slow window of
// healthy history, so the outage that follows starts from burn 0.
void RecordHealthyHour(SloMonitor& slo, const std::string& name) {
  for (int64_t t = 0; t <= 3600; ++t) slo.Record(name, 100.0, true, t);
}

// Returns by value: callers pass the temporary from Evaluate() directly.
SloEndpointStatus Find(const std::vector<SloEndpointStatus>& statuses,
                       const std::string& name) {
  auto it = std::find_if(statuses.begin(), statuses.end(),
                         [&](const SloEndpointStatus& s) {
                           return s.name == name;
                         });
  EXPECT_NE(it, statuses.end()) << "endpoint " << name << " missing";
  return it == statuses.end() ? SloEndpointStatus{} : *it;
}

TEST(SloMonitorTest, HealthyTrafficNeverAlerts) {
  SloMonitor slo;
  slo.SetObjective({"score", 0.0});
  RecordHealthyHour(slo, "score");
  const auto statuses = slo.Evaluate(3600);
  const SloEndpointStatus& score = Find(statuses, "score");
  EXPECT_EQ(score.fast_burn, 0.0);
  EXPECT_EQ(score.slow_burn, 0.0);
  EXPECT_FALSE(score.fast_alert);
  EXPECT_FALSE(score.slow_alert);
  EXPECT_FALSE(score.alert);
  EXPECT_EQ(slo.alerts_fired(), 0u);
}

TEST(SloMonitorTest, FastWindowTripsBeforeSlowOnSharpOutage) {
  SloMonitor slo;
  slo.SetObjective({"score", 0.0});
  RecordHealthyHour(slo, "score");

  // Outage: 10 failures per second starting at t=3601.
  for (int i = 0; i < 10; ++i) slo.Record("score", 100.0, false, 3601);

  // One second in: the fast window is already soaked (10 bad over ~300
  // good: burn ≈ 32 ≥ 14.4) but the slow window has an hour of good
  // history diluting it (burn ≈ 2.8 < 6). Fast trips alone — no page.
  {
    const SloEndpointStatus& s = Find(slo.Evaluate(3601), "score");
    EXPECT_TRUE(s.fast_alert) << "fast_burn=" << s.fast_burn;
    EXPECT_FALSE(s.slow_alert) << "slow_burn=" << s.slow_burn;
    EXPECT_FALSE(s.alert);
    EXPECT_EQ(slo.alerts_fired(), 0u);
  }

  // Sustained for two more seconds the slow window crosses 6 as well
  // (30 bad / ~3630: burn ≈ 8.3) and the combined alert fires exactly once.
  for (int64_t t = 3602; t <= 3603; ++t) {
    for (int i = 0; i < 10; ++i) slo.Record("score", 100.0, false, t);
  }
  {
    const SloEndpointStatus& s = Find(slo.Evaluate(3603), "score");
    EXPECT_TRUE(s.fast_alert);
    EXPECT_TRUE(s.slow_alert);
    EXPECT_TRUE(s.alert);
    EXPECT_EQ(slo.alerts_fired(), 1u);
  }
  // Re-evaluating while the alert stays active must not double-count the
  // activation edge.
  slo.Evaluate(3603);
  EXPECT_EQ(slo.alerts_fired(), 1u);
}

TEST(SloMonitorTest, SlowRequestsBurnBudgetUnderLatencyObjective) {
  SloMonitor slo;
  slo.SetObjective({"suggest", /*latency_threshold_us=*/1000.0});
  // Successful but slow: with a latency objective, "ok" responses over the
  // threshold still count against the budget.
  for (int i = 0; i < 10; ++i) slo.Record("suggest", 5000.0, true, 100);
  const SloEndpointStatus& s = Find(slo.Evaluate(100), "suggest");
  EXPECT_EQ(s.fast_total, 10u);
  EXPECT_EQ(s.fast_bad, 10u);
  // All-bad traffic: burn = 1 / 0.001 budget = 1000.
  EXPECT_NEAR(s.fast_burn, 1000.0, 1e-9);
  EXPECT_TRUE(s.fast_alert);
}

TEST(SloMonitorTest, UndeclaredEndpointGetsDefaultObjective) {
  SloMonitor slo;
  slo.Record("mystery", 10.0, false, 5);
  const SloEndpointStatus& s = Find(slo.Evaluate(5), "mystery");
  EXPECT_EQ(s.fast_total, 1u);
  EXPECT_EQ(s.fast_bad, 1u);
  EXPECT_GT(s.fast_burn, 0.0);
}

TEST(SloMonitorTest, BucketsOutsideSlowWindowArePruned) {
  SloMonitor slo;
  slo.SetObjective({"score", 0.0});
  for (int i = 0; i < 50; ++i) slo.Record("score", 10.0, false, 10);
  // One slow-window later the old failures must have aged out entirely.
  slo.Record("score", 10.0, true, 10 + 3601);
  const SloEndpointStatus& s = Find(slo.Evaluate(10 + 3601), "score");
  EXPECT_EQ(s.slow_bad, 0u);
  EXPECT_EQ(s.slow_total, 1u);
  EXPECT_EQ(s.fast_burn, 0.0);
}

TEST(SloMonitorTest, ExportGaugesMirrorsBurnRates) {
  // Gauge writes are gated on the obs runtime switch.
  const bool was_enabled = Enabled();
  SetEnabled(true);
  SloMonitor slo;
  slo.SetObjective({"ping", 0.0});
  // An hour of good history keeps the slow window under its threshold, so
  // the burst of failures trips the fast window only — no page.
  RecordHealthyHour(slo, "ping");
  for (int i = 0; i < 4; ++i) slo.Record("ping", 1.0, false, 3601);
  MetricsRegistry registry;
  slo.ExportGauges(registry, 3601);
  const MetricsSnapshot snapshot = registry.Snapshot();
  double fast_burn = -1.0;
  double alert = -1.0;
  for (const auto& [name, value] : snapshot.gauges) {
    if (name == "slo.ping.fast_burn") fast_burn = value;
    if (name == "slo.ping.alert") alert = value;
  }
  EXPECT_GT(fast_burn, 0.0);
  EXPECT_EQ(alert, 0.0);  // fast alone does not page
  SetEnabled(was_enabled);
}

TEST(SloMonitorTest, ToJsonCarriesConfigEndpointsAndAlertCount) {
  SloMonitor slo;
  slo.SetObjective({"score", 250.0});
  slo.Record("score", 100.0, true, 1);
  slo.Record("tab\tcr\rsoh\x01", 100.0, true, 1);
  const std::string json = slo.ToJson(1);
  EXPECT_NE(json.find("\"config\""), std::string::npos);
  EXPECT_NE(json.find("\"fast_window_s\""), std::string::npos);
  EXPECT_NE(json.find("\"score\""), std::string::npos);
  EXPECT_NE(json.find("\"tab\\tcr\\rsoh\\u0001\""), std::string::npos);
  EXPECT_NE(json.find("\"alerts_fired\""), std::string::npos);
}

}  // namespace
}  // namespace culinary::obs
