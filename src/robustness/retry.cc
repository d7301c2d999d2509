#include "robustness/retry.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "obs/obs.h"

namespace culinary::robustness {

bool IsRetryable(const culinary::Status& status) {
  return status.IsTransient();
}

namespace internal {

double BackoffMs(const RetryPolicy& policy, int attempt, culinary::Rng& rng) {
  double base = policy.base_backoff_ms;
  for (int i = 1; i < attempt && base < policy.max_backoff_ms; ++i) {
    base *= 2.0;
  }
  base = std::min(base, policy.max_backoff_ms);
  double jitter = std::clamp(policy.jitter_fraction, 0.0, 1.0);
  double factor = rng.NextDouble(1.0 - jitter, 1.0 + jitter);
  return std::max(0.0, base * factor);
}

void SleepForMs(double ms) {
  if (ms <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

void NoteRetry(double backoff_ms) {
  CULINARY_OBS_COUNT("retry.attempts_retried", 1);
  CULINARY_OBS_OBSERVE("retry.backoff_ms", backoff_ms);
}

void NoteRetryBudgetExhausted() {
  CULINARY_OBS_COUNT("retry.budget_exhausted", 1);
}

std::string RetryBudgetContext(int attempts) {
  return "retry budget exhausted after " + std::to_string(attempts) +
         " attempt(s)";
}

}  // namespace internal

}  // namespace culinary::robustness
