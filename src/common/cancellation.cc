#include "common/cancellation.h"

#include <limits>

namespace culinary {

Deadline Deadline::After(double ms) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point now = Clock::now();
  const double ticks =
      std::chrono::duration<double, Clock::period>(
          std::chrono::duration<double, std::milli>(ms < 0.0 ? 0.0 : ms))
          .count();
  // A budget the clock cannot represent from now on (or NaN) would overflow
  // the cast and the addition below. It can never expire, so it is no
  // deadline at all.
  const double headroom =
      static_cast<double>((Clock::time_point::max() - now).count());
  if (!(ticks < headroom)) return Deadline();
  Deadline d;
  d.has_deadline_ = true;
  d.at_ = now + Clock::duration(static_cast<Clock::rep>(ticks));
  return d;
}

bool Deadline::expired() const {
  return has_deadline_ && std::chrono::steady_clock::now() >= at_;
}

double Deadline::remaining_ms() const {
  if (!has_deadline_) return std::numeric_limits<double>::infinity();
  return std::chrono::duration<double, std::milli>(
             at_ - std::chrono::steady_clock::now())
      .count();
}

CancellationSource::CancellationSource()
    : flag_(std::make_shared<std::atomic<bool>>(false)) {}

Status CheckStop(const CancellationToken& cancel, const Deadline& deadline) {
  if (cancel.cancelled()) return Status::Cancelled("operation cancelled");
  if (deadline.expired()) {
    return Status::DeadlineExceeded("deadline exceeded");
  }
  return Status::OK();
}

}  // namespace culinary
