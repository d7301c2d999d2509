#ifndef CULINARYLAB_COMMON_CANCELLATION_H_
#define CULINARYLAB_COMMON_CANCELLATION_H_

#include <atomic>
#include <chrono>
#include <memory>

#include "common/status.h"

namespace culinary {

/// A wall-clock budget for a long-running operation.
///
/// A default-constructed `Deadline` is infinite (never expires). Sweeps
/// check `expired()` cooperatively between units of work — one steady-clock
/// read — so an expired deadline stops a sweep within one unit's latency
/// rather than preempting it mid-unit. Deadlines are plain values: copying
/// one copies the absolute expiry instant, so a budget set at the CLI is
/// naturally shared by every sweep of the command.
class Deadline {
 public:
  /// Infinite: `expired()` is always false.
  Deadline() = default;

  /// A deadline `ms` milliseconds from now (clamped to now for `ms < 0`).
  /// A budget past the steady clock's range, or NaN, is no deadline.
  static Deadline After(double ms);

  /// Synonym for the default constructor, for call-site readability.
  static Deadline Infinite() { return Deadline(); }

  /// True when a finite expiry instant was set.
  bool has_deadline() const { return has_deadline_; }

  /// True when the deadline has passed (never for infinite deadlines).
  bool expired() const;

  /// Milliseconds until expiry: negative once expired, +infinity for
  /// infinite deadlines.
  double remaining_ms() const;

 private:
  std::chrono::steady_clock::time_point at_{};
  bool has_deadline_ = false;
};

/// Observer half of a cancellation channel (see `CancellationSource`).
///
/// A default-constructed token is *null*: it can never report cancellation
/// and costs nothing to check, so APIs can take a token unconditionally.
/// Tokens are cheap to copy (one shared_ptr) and safe to read from any
/// thread.
class CancellationToken {
 public:
  /// A null token that never reports cancellation.
  CancellationToken() = default;

  /// True when this token is connected to a source (and so could ever
  /// become cancelled).
  bool cancellable() const { return flag_ != nullptr; }

  /// True once the connected source requested cancellation. One relaxed
  /// pointer test plus an acquire load; never true for null tokens.
  bool cancelled() const {
    return flag_ != nullptr && flag_->load(std::memory_order_acquire);
  }

 private:
  friend class CancellationSource;
  explicit CancellationToken(std::shared_ptr<std::atomic<bool>> flag)
      : flag_(std::move(flag)) {}

  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Owner half of a cancellation channel.
///
/// The party that wants to be able to abort (a watchdog thread, a signal
/// handler trampoline, a test) holds the source and hands out tokens;
/// calling `RequestCancel()` flips every token derived from this source.
/// Cancellation is sticky — there is no un-cancel.
class CancellationSource {
 public:
  CancellationSource();

  /// A token observing this source.
  CancellationToken token() const { return CancellationToken(flag_); }

  /// Requests cancellation. Idempotent and thread-safe.
  void RequestCancel() { flag_->store(true, std::memory_order_release); }

  /// True once `RequestCancel` has been called.
  bool cancel_requested() const {
    return flag_->load(std::memory_order_acquire);
  }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// The cooperative stop check used between blocks of a sweep: returns
/// `kCancelled` when `cancel` fired, else `kDeadlineExceeded` when
/// `deadline` passed, else OK. Cancellation wins when both hold, since it
/// is the more deliberate signal.
Status CheckStop(const CancellationToken& cancel, const Deadline& deadline);

}  // namespace culinary

#endif  // CULINARYLAB_COMMON_CANCELLATION_H_
