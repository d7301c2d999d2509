#ifndef CULINARYLAB_ROBUSTNESS_RETRY_H_
#define CULINARYLAB_ROBUSTNESS_RETRY_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "common/cancellation.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"

namespace culinary::robustness {

/// Budgeted exponential backoff with deterministic jitter for transient
/// failures (`Status::IsTransient()`).
///
/// Attempt k (1-based) sleeps `base_backoff_ms * 2^(k-1)` before retrying,
/// clamped to `max_backoff_ms`, then scaled by a uniform jitter factor in
/// `[1 - jitter_fraction, 1 + jitter_fraction]` drawn from a deterministic
/// stream (`seed`), so two replicas retrying the same failing resource
/// de-synchronize yet every run replays exactly.
struct RetryPolicy {
  /// Total tries, including the first (1 = no retry).
  int max_attempts = 1;
  double base_backoff_ms = 1.0;
  double max_backoff_ms = 100.0;
  /// Fractional jitter half-width in [0, 1].
  double jitter_fraction = 0.5;
  uint64_t seed = 0x7e747279ULL;  // "retry"

  /// Overall backoff budget in milliseconds (< 0 = unbounded). When the
  /// next backoff would push the accumulated sleep past this budget, the
  /// loop stops *before* sleeping and returns the last error annotated with
  /// the exhaustion context — a retry must never sleep past the budget its
  /// caller has left. Deterministic: measured over the jittered backoffs
  /// the policy itself computes, not the wall clock, so a failing schedule
  /// replays exactly.
  double total_budget_ms = -1.0;

  /// Optional wall-clock deadline (default infinite): once expired, no
  /// further attempt or sleep is started and the last error is returned
  /// with context. Unlike `total_budget_ms` this reads the real clock, so
  /// use it when the caller's deadline also governs the work between
  /// retries (e.g. a sweep with `--deadline-ms`).
  culinary::Deadline deadline;

  /// No retrying at all (the default for curated local data).
  static RetryPolicy None() { return RetryPolicy{}; }

  /// Three attempts with millisecond-scale backoff, suitable for tests and
  /// local filesystem flakes.
  static RetryPolicy Default() {
    RetryPolicy p;
    p.max_attempts = 3;
    return p;
  }
};

/// Accounting for one `Retry*` call, for logs and tests.
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
double BackoffMs(const RetryPolicy& policy, int attempt, culinary::Rng& rng);
/// Sleeps the calling thread for `ms` milliseconds.
void SleepForMs(double ms);
/// Observability hook: records one retried attempt and its backoff. Out of
/// line so this header stays independent of the obs layer.
void NoteRetry(double backoff_ms);
/// Observability hook: records one retry loop that stopped on an exhausted
/// budget/deadline rather than on attempts.
void NoteRetryBudgetExhausted();

/// True when sleeping `next_backoff_ms` more is off the table: it would
/// push `slept_so_far_ms` past the policy budget, or the policy deadline
/// has already passed.
inline bool RetryBudgetExhausted(const RetryPolicy& policy,
                                 double slept_so_far_ms,
                                 double next_backoff_ms) {
  if (policy.total_budget_ms >= 0.0 &&
      slept_so_far_ms + next_backoff_ms > policy.total_budget_ms) {
    return true;
  }
  return policy.deadline.expired();
}

/// The context prefix attached to the last error when the loop stops early.
std::string RetryBudgetContext(int attempts);
}  // namespace internal

/// Runs `fn` (returning `Status`) under `policy`: retries retryable errors
/// with backoff until success, the attempt budget, or the time budget /
/// deadline is exhausted (in which case the last error is returned with
/// exhaustion context instead of sleeping past the budget); returns the
/// last status. Non-retryable errors return immediately.
template <typename Fn>
culinary::Status RetryStatus(const RetryPolicy& policy, Fn&& fn,
                             RetryStats* stats = nullptr,
                             const SleepFn& sleep = nullptr) {
  culinary::Rng rng(policy.seed);
  int budget = policy.max_attempts < 1 ? 1 : policy.max_attempts;
  double slept_ms = 0.0;
  culinary::Status last;
  for (int attempt = 1; attempt <= budget; ++attempt) {
    if (stats != nullptr) stats->attempts = attempt;
    last = fn();
    if (last.ok() || !IsRetryable(last)) return last;
    if (attempt == budget) break;
    double ms = internal::BackoffMs(policy, attempt, rng);
    if (internal::RetryBudgetExhausted(policy, slept_ms, ms)) {
      internal::NoteRetryBudgetExhausted();
      return last.WithContext(internal::RetryBudgetContext(attempt));
    }
    slept_ms += ms;
    if (stats != nullptr) stats->total_backoff_ms += ms;
    internal::NoteRetry(ms);
    if (sleep) {
      sleep(ms);
    } else {
      internal::SleepForMs(ms);
    }
  }
  return last;
}

/// `RetryStatus` for `Result<T>`-returning callables.
template <typename Fn>
auto RetryResult(const RetryPolicy& policy, Fn&& fn,
                 RetryStats* stats = nullptr, const SleepFn& sleep = nullptr)
    -> decltype(fn()) {
  using ResultT = decltype(fn());
  culinary::Rng rng(policy.seed);
  int budget = policy.max_attempts < 1 ? 1 : policy.max_attempts;
  double slept_ms = 0.0;
  ResultT last = fn();
  if (stats != nullptr) stats->attempts = 1;
  for (int attempt = 2;
       attempt <= budget && !last.ok() && IsRetryable(last.status());
       ++attempt) {
    double ms = internal::BackoffMs(policy, attempt - 1, rng);
    if (internal::RetryBudgetExhausted(policy, slept_ms, ms)) {
      internal::NoteRetryBudgetExhausted();
      return ResultT(last.status().WithContext(
          internal::RetryBudgetContext(attempt - 1)));
    }
    slept_ms += ms;
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
