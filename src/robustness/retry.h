#ifndef CULINARYLAB_ROBUSTNESS_RETRY_H_
#define CULINARYLAB_ROBUSTNESS_RETRY_H_

#include <cstdint>
#include <functional>

#include "common/random.h"
#include "common/status.h"

namespace culinary::robustness {

/// Exponential backoff with deterministic jitter for transient failures
/// (`Status::IsTransient()`).
///
/// Retry k (1-based) sleeps `kRetryBaseBackoffMs * 2^(k-1)`, clamped to
/// `kRetryMaxBackoffMs`, then scaled by a uniform jitter factor in
/// `[1 - kRetryJitter, 1 + kRetryJitter]` drawn from a stream seeded with
/// `kRetrySeed`, so two replicas retrying the same failing resource
/// de-synchronize yet every run replays exactly.
inline constexpr double kRetryBaseBackoffMs = 1.0;
inline constexpr double kRetryMaxBackoffMs = 100.0;
inline constexpr double kRetryJitter = 0.5;
inline constexpr uint64_t kRetrySeed = 0x7e747279ULL;  // "retry"

struct RetryPolicy {
  /// Total tries, including the first (1 = no retry).
  int max_attempts = 1;

  /// Three attempts with millisecond-scale backoff, suitable for tests and
  /// local filesystem flakes.
  static RetryPolicy Default() { return RetryPolicy{3}; }
};

/// Accounting for one `RetryResult` call, for logs and tests.
struct RetryStats {
  int attempts = 0;
  double total_backoff_ms = 0.0;
};

/// Replaceable sleeper: receives the jittered backoff in milliseconds.
/// The default (`nullptr`) really sleeps; tests pass a collector instead.
using SleepFn = std::function<void(double ms)>;

/// True for status codes worth retrying (`Status::IsTransient()`: IO flakes
/// and shed/unavailable admissions). Parse errors and argument errors are
/// deterministic and never retried.
bool IsRetryable(const culinary::Status& status);

namespace internal {
/// The jittered backoff before retry number `attempt` (1-based = before the
/// second try). Exposed for tests.
double BackoffMs(int attempt, culinary::Rng& rng);
/// Sleeps the calling thread for `ms` milliseconds.
void SleepForMs(double ms);
/// Observability hook: records one retried attempt and its backoff. Out of
/// line so this header stays independent of the obs layer.
void NoteRetry(double backoff_ms);
}  // namespace internal

/// Runs `fn` (returning `Result<T>`) under `policy`: retries retryable
/// errors with backoff until success or `policy.max_attempts` tries, and
/// returns the last result. Non-retryable errors return immediately.
template <typename Fn>
auto RetryResult(const RetryPolicy& policy, Fn&& fn,
                 RetryStats* stats = nullptr, const SleepFn& sleep = nullptr)
    -> decltype(fn()) {
  culinary::Rng rng(kRetrySeed);
  const int budget = policy.max_attempts < 1 ? 1 : policy.max_attempts;
  auto last = fn();
  if (stats != nullptr) stats->attempts = 1;
  for (int attempt = 2;
       attempt <= budget && !last.ok() && IsRetryable(last.status());
       ++attempt) {
    const double ms = internal::BackoffMs(attempt - 1, rng);
    if (stats != nullptr) {
      stats->total_backoff_ms += ms;
      stats->attempts = attempt;
    }
    internal::NoteRetry(ms);
    if (sleep) {
      sleep(ms);
    } else {
      internal::SleepForMs(ms);
    }
    last = fn();
  }
  return last;
}

}  // namespace culinary::robustness

#endif  // CULINARYLAB_ROBUSTNESS_RETRY_H_
