#ifndef CULINARYLAB_OBS_SLO_H_
#define CULINARYLAB_OBS_SLO_H_

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace culinary::obs {

/// What "good" means for one endpoint. A request is *bad* when it fails
/// outright or (if `latency_threshold_us > 0`) completes slower than the
/// latency objective — the standard way to fold a latency SLO into an
/// availability-style error budget. Every endpoint must keep
/// `kSloAvailabilityTarget` of its requests good.
struct SloObjective {
  std::string name;
  /// Latency objective in microseconds; 0 disables the latency criterion
  /// and only outright failures burn budget.
  double latency_threshold_us = 0.0;
};

/// Fraction of requests that must be good (0.999 = 0.1% error budget).
inline constexpr double kSloAvailabilityTarget = 0.999;

/// Multi-window burn-rate alerting (Google SRE workbook shape). Burn rate
/// is `bad_fraction / (1 - kSloAvailabilityTarget)`: burn 1 consumes the
/// budget exactly over the SLO period, burn 14.4 eats a 30-day budget in
/// ~2 hours. The *fast* window catches sharp outages quickly; the *slow*
/// window confirms the problem is sustained before the combined alert
/// fires, so a brief blip trips the fast window only and never pages.
inline constexpr int64_t kSloFastWindowS = 300;
inline constexpr int64_t kSloSlowWindowS = 3600;
inline constexpr double kSloFastBurnThreshold = 14.4;
inline constexpr double kSloSlowBurnThreshold = 6.0;

/// Point-in-time evaluation of one endpoint's burn rates.
struct SloEndpointStatus {
  std::string name;
  uint64_t fast_total = 0;
  uint64_t fast_bad = 0;
  uint64_t slow_total = 0;
  uint64_t slow_bad = 0;
  double fast_burn = 0.0;
  double slow_burn = 0.0;
  bool fast_alert = false;  ///< fast_burn >= kSloFastBurnThreshold
  bool slow_alert = false;  ///< slow_burn >= kSloSlowBurnThreshold
  bool alert = false;       ///< both windows tripped: page
};

/// Tracks per-endpoint good/bad requests in per-second buckets and computes
/// multi-window burn rates against declared objectives.
///
/// Time is supplied by the caller (`t_s` / `now_s`, seconds on any
/// monotonic clock), never read internally — the serving layer feeds a
/// steady clock and the unit tests feed a synthetic one, so alert
/// transitions replay deterministically. Buckets older than the slow
/// window are pruned on every `Record`, bounding memory at
/// O(endpoints * kSloSlowWindowS).
///
/// Layering: obs sits below common, so this class reports nothing through
/// `culinary::Status` and depends only on the standard library. Thread-safe.
class SloMonitor {
 public:
  /// Declares (or replaces) the objective for `objective.name`. Endpoints
  /// recorded without a declared objective use an availability-only one.
  void SetObjective(SloObjective objective);

  /// Records one request outcome for `name` at second `t_s`.
  void Record(std::string_view name, double latency_us, bool ok, int64_t t_s);

  /// Evaluates every endpoint at `now_s`, latching alert transitions (a
  /// false→true combined-alert edge increments `alerts_fired`). Results are
  /// sorted by endpoint name.
  std::vector<SloEndpointStatus> Evaluate(int64_t now_s);

  /// Evaluates and mirrors the burn rates into `registry` gauges
  /// (`slo.<name>.fast_burn` / `slo.<name>.slow_burn` / `slo.<name>.alert`).
  void ExportGauges(MetricsRegistry& registry, int64_t now_s);

  /// Evaluates and renders a JSON object:
  /// `{"config": {...}, "endpoints": {"<name>": {...}, ...},
  ///   "alerts_fired": N}`.
  std::string ToJson(int64_t now_s);

  /// Combined-alert activations since construction.
  uint64_t alerts_fired() const;

 private:
  struct Bucket {
    int64_t second = 0;
    uint64_t total = 0;
    uint64_t bad = 0;
  };
  struct Endpoint {
    SloObjective objective;
    std::deque<Bucket> buckets;  // ascending by second
    bool alert_active = false;
  };

  Endpoint& GetOrCreate(std::string_view name);
  void Prune(Endpoint& ep, int64_t now_s);
  SloEndpointStatus EvaluateLocked(const std::string& name, Endpoint& ep,
                                   int64_t now_s);

  mutable std::mutex mutex_;
  std::map<std::string, Endpoint, std::less<>> endpoints_;
  uint64_t alerts_fired_ = 0;
};

}  // namespace culinary::obs

#endif  // CULINARYLAB_OBS_SLO_H_
