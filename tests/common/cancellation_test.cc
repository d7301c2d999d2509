#include "common/cancellation.h"

#include <atomic>
#include <limits>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"

namespace culinary {
namespace {

TEST(DeadlineTest, DefaultIsInfinite) {
  Deadline d;
  EXPECT_FALSE(d.has_deadline());
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining_ms(), 1e18);
}

TEST(DeadlineTest, AfterZeroIsAlreadyExpired) {
  Deadline d = Deadline::After(0.0);
  EXPECT_TRUE(d.has_deadline());
  EXPECT_TRUE(d.expired());
  EXPECT_LE(d.remaining_ms(), 0.0);
}

TEST(DeadlineTest, NegativeBudgetClampsToExpired) {
  EXPECT_TRUE(Deadline::After(-100.0).expired());
}

TEST(DeadlineTest, GenerousBudgetIsNotExpired) {
  Deadline d = Deadline::After(60000.0);
  EXPECT_TRUE(d.has_deadline());
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining_ms(), 0.0);
}

TEST(DeadlineTest, BudgetPastTheClockRangeIsNoDeadline) {
  // The steady clock spans about 292 years of nanoseconds. A budget past
  // that cannot expire, so it must not overflow into an expired deadline.
  for (const double ms : {1e16, 1e300, std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::quiet_NaN()}) {
    const Deadline d = Deadline::After(ms);
    EXPECT_FALSE(d.has_deadline()) << ms;
    EXPECT_FALSE(d.expired()) << ms;
  }
  // A far budget the clock can hold is still a real deadline.
  const Deadline decade = Deadline::After(10.0 * 365 * 24 * 3600 * 1000);
  EXPECT_TRUE(decade.has_deadline());
  EXPECT_FALSE(decade.expired());
}

TEST(CancellationTest, DefaultTokenNeverCancels) {
  CancellationToken token;
  EXPECT_FALSE(token.cancellable());
  EXPECT_FALSE(token.cancelled());
}

TEST(CancellationTest, SourceFiresItsTokens) {
  CancellationSource source;
  CancellationToken token = source.token();
  EXPECT_TRUE(token.cancellable());
  EXPECT_FALSE(token.cancelled());
  EXPECT_FALSE(source.cancel_requested());
  source.RequestCancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(source.cancel_requested());
  // Copies observe the same flag.
  CancellationToken copy = token;
  EXPECT_TRUE(copy.cancelled());
}

TEST(CancellationTest, CheckStopPrefersCancellationOverDeadline) {
  CancellationSource source;
  source.RequestCancel();
  Status both = CheckStop(source.token(), Deadline::After(0.0));
  EXPECT_TRUE(both.IsCancelled());
  Status deadline_only = CheckStop(CancellationToken(), Deadline::After(0.0));
  EXPECT_TRUE(deadline_only.IsDeadlineExceeded());
  Status clean = CheckStop(CancellationToken(), Deadline());
  EXPECT_TRUE(clean.ok());
}

TEST(CancellationTest, CancelVisibleAcrossThreads) {
  CancellationSource source;
  CancellationToken token = source.token();
  std::atomic<bool> seen{false};
  std::thread watcher([&] {
    while (!token.cancelled()) {
      std::this_thread::yield();
    }
    seen.store(true);
  });
  source.RequestCancel();
  watcher.join();
  EXPECT_TRUE(seen.load());
}

TEST(ParallelForStopTest, NullStopCheckRunsEverything) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  Status status = pool.ParallelFor(
      hits.size(), [&](size_t i) { hits[i].fetch_add(1); }, nullptr);
  EXPECT_TRUE(status.ok());
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForStopTest, PreCancelledRunsNothing) {
  ThreadPool pool(4);
  CancellationSource source;
  source.RequestCancel();
  CancellationToken token = source.token();
  std::atomic<size_t> ran{0};
  Status status = pool.ParallelFor(
      1000, [&](size_t) { ran.fetch_add(1); },
      [&] { return CheckStop(token, Deadline()); });
  EXPECT_TRUE(status.IsCancelled());
  EXPECT_EQ(ran.load(), 0u);
}

TEST(ParallelForStopTest, MidFlightCancelSkipsRemainingIterations) {
  ThreadPool pool(2);
  CancellationSource source;
  CancellationToken token = source.token();
  std::atomic<size_t> ran{0};
  Status status = pool.ParallelFor(
      10000,
      [&](size_t) {
        if (ran.fetch_add(1) == 50) source.RequestCancel();
      },
      [&] { return CheckStop(token, Deadline()); });
  EXPECT_TRUE(status.IsCancelled());
  // Iterations already dispatched may finish, but the sweep must stop well
  // short of the full range.
  EXPECT_LT(ran.load(), 10000u);
}

TEST(ParallelForStopTest, ExpiredDeadlineReportsDeadlineExceeded) {
  ThreadPool pool(2);
  Deadline deadline = Deadline::After(0.0);
  std::atomic<size_t> ran{0};
  Status status = pool.ParallelFor(
      100, [&](size_t) { ran.fetch_add(1); },
      [&] { return CheckStop(CancellationToken(), deadline); });
  EXPECT_TRUE(status.IsDeadlineExceeded());
  EXPECT_EQ(ran.load(), 0u);
}

}  // namespace
}  // namespace culinary
