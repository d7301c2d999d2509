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

double BackoffMs(int attempt, culinary::Rng& rng) {
  double base = kRetryBaseBackoffMs;
  for (int i = 1; i < attempt && base < kRetryMaxBackoffMs; ++i) {
    base *= 2.0;
  }
  base = std::min(base, kRetryMaxBackoffMs);
  return base * rng.NextDouble(1.0 - kRetryJitter, 1.0 + kRetryJitter);
}

void SleepForMs(double ms) {
  if (ms <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

void NoteRetry(double backoff_ms) {
  CULINARY_OBS_COUNT("retry.attempts_retried", 1);
  CULINARY_OBS_OBSERVE("retry.backoff_ms", backoff_ms);
}

}  // namespace internal

}  // namespace culinary::robustness
