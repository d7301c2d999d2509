#include "obs/slo.h"

#include <utility>

#include "common/json.h"

namespace culinary::obs {

namespace {

double BurnRate(uint64_t bad, uint64_t total) {
  if (total == 0) return 0.0;
  const double bad_fraction =
      static_cast<double>(bad) / static_cast<double>(total);
  return bad_fraction / (1.0 - kSloAvailabilityTarget);
}

}  // namespace

void SloMonitor::SetObjective(SloObjective objective) {
  std::lock_guard<std::mutex> lock(mutex_);
  Endpoint& ep = GetOrCreate(objective.name);
  ep.objective = std::move(objective);
}

SloMonitor::Endpoint& SloMonitor::GetOrCreate(std::string_view name) {
  auto it = endpoints_.find(name);
  if (it == endpoints_.end()) {
    Endpoint ep;
    ep.objective.name = std::string(name);
    it = endpoints_.emplace(std::string(name), std::move(ep)).first;
  }
  return it->second;
}

void SloMonitor::Record(std::string_view name, double latency_us, bool ok,
                        int64_t t_s) {
  std::lock_guard<std::mutex> lock(mutex_);
  Endpoint& ep = GetOrCreate(name);
  const bool bad = !ok || (ep.objective.latency_threshold_us > 0.0 &&
                           latency_us > ep.objective.latency_threshold_us);
  if (!ep.buckets.empty() && ep.buckets.back().second == t_s) {
    ++ep.buckets.back().total;
    if (bad) ++ep.buckets.back().bad;
  } else {
    Bucket b;
    b.second = t_s;
    b.total = 1;
    b.bad = bad ? 1 : 0;
    ep.buckets.push_back(b);
  }
  Prune(ep, t_s);
}

void SloMonitor::Prune(Endpoint& ep, int64_t now_s) {
  const int64_t horizon = now_s - kSloSlowWindowS;
  while (!ep.buckets.empty() && ep.buckets.front().second <= horizon) {
    ep.buckets.pop_front();
  }
}

SloEndpointStatus SloMonitor::EvaluateLocked(const std::string& name,
                                             Endpoint& ep, int64_t now_s) {
  SloEndpointStatus status;
  status.name = name;
  const int64_t fast_horizon = now_s - kSloFastWindowS;
  const int64_t slow_horizon = now_s - kSloSlowWindowS;
  for (const Bucket& b : ep.buckets) {
    if (b.second <= slow_horizon || b.second > now_s) continue;
    status.slow_total += b.total;
    status.slow_bad += b.bad;
    if (b.second > fast_horizon) {
      status.fast_total += b.total;
      status.fast_bad += b.bad;
    }
  }
  status.fast_burn = BurnRate(status.fast_bad, status.fast_total);
  status.slow_burn = BurnRate(status.slow_bad, status.slow_total);
  status.fast_alert = status.fast_burn >= kSloFastBurnThreshold;
  status.slow_alert = status.slow_burn >= kSloSlowBurnThreshold;
  status.alert = status.fast_alert && status.slow_alert;
  if (status.alert && !ep.alert_active) ++alerts_fired_;
  ep.alert_active = status.alert;
  return status;
}

std::vector<SloEndpointStatus> SloMonitor::Evaluate(int64_t now_s) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SloEndpointStatus> out;
  out.reserve(endpoints_.size());
  for (auto& [name, ep] : endpoints_) {
    out.push_back(EvaluateLocked(name, ep, now_s));
  }
  return out;
}

void SloMonitor::ExportGauges(MetricsRegistry& registry, int64_t now_s) {
  for (const SloEndpointStatus& s : Evaluate(now_s)) {
    registry.GetGauge("slo." + s.name + ".fast_burn").Set(s.fast_burn);
    registry.GetGauge("slo." + s.name + ".slow_burn").Set(s.slow_burn);
    registry.GetGauge("slo." + s.name + ".alert").Set(s.alert ? 1.0 : 0.0);
  }
}

std::string SloMonitor::ToJson(int64_t now_s) {
  std::vector<SloEndpointStatus> statuses = Evaluate(now_s);
  // Objectives and the alert counter are read after Evaluate under a fresh
  // lock; both only grow/latch, so the JSON stays self-consistent.
  std::string out;
  // `, "key": value`: every number member after an object's first.
  const auto member = [&out](const char* key, auto value) {
    out += ", \"";
    out += key;
    out += "\": ";
    json::AppendNumber(out, value);
  };
  out += "{\n  \"config\": {\"fast_window_s\": ";
  json::AppendNumber(out, kSloFastWindowS);
  member("slow_window_s", kSloSlowWindowS);
  member("fast_burn_threshold", kSloFastBurnThreshold);
  member("slow_burn_threshold", kSloSlowBurnThreshold);
  out += "},\n  \"endpoints\": {";
  for (size_t i = 0; i < statuses.size(); ++i) {
    const SloEndpointStatus& s = statuses[i];
    double latency_threshold_us = 0.0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = endpoints_.find(s.name);
      if (it != endpoints_.end()) {
        latency_threshold_us = it->second.objective.latency_threshold_us;
      }
    }
    out += i == 0 ? "\n    \"" : ",\n    \"";
    json::AppendEscaped(out, s.name);
    out += "\": {\"latency_threshold_us\": ";
    json::AppendNumber(out, latency_threshold_us);
    member("availability_target", kSloAvailabilityTarget);
    member("fast_total", s.fast_total);
    member("fast_bad", s.fast_bad);
    member("slow_total", s.slow_total);
    member("slow_bad", s.slow_bad);
    member("fast_burn", s.fast_burn);
    member("slow_burn", s.slow_burn);
    out += ", \"fast_alert\": ";
    out += s.fast_alert ? "true" : "false";
    out += ", \"slow_alert\": ";
    out += s.slow_alert ? "true" : "false";
    out += ", \"alert\": ";
    out += s.alert ? "true}" : "false}";
  }
  out += statuses.empty() ? "" : "\n  ";
  out += "},\n  \"alerts_fired\": ";
  json::AppendNumber(out, alerts_fired());
  out += "\n}";
  return out;
}

uint64_t SloMonitor::alerts_fired() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return alerts_fired_;
}

}  // namespace culinary::obs
