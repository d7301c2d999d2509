#include "robustness/retry.h"

#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "robustness/fault_injector.h"

namespace culinary::robustness {
namespace {

// Collects requested sleeps instead of actually sleeping.
struct FakeSleeper {
  std::vector<double> slept_ms;
  SleepFn fn() {
    return [this](double ms) { slept_ms.push_back(ms); };
  }
};

TEST(RetryTest, SucceedsFirstTryWithoutSleeping) {
  FakeSleeper sleeper;
  RetryStats stats;
  culinary::Status status = RetryStatus(
      RetryPolicy::Default(), [] { return culinary::Status::OK(); }, &stats,
      sleeper.fn());
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(stats.attempts, 1);
  EXPECT_TRUE(sleeper.slept_ms.empty());
}

TEST(RetryTest, RetriesTransientFailureThenSucceeds) {
  FakeSleeper sleeper;
  RetryStats stats;
  int calls = 0;
  culinary::Status status = RetryStatus(
      RetryPolicy::Default(),
      [&] {
        ++calls;
        return calls < 3 ? culinary::Status::IOError("flaky")
                         : culinary::Status::OK();
      },
      &stats, sleeper.fn());
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(stats.attempts, 3);
  EXPECT_EQ(sleeper.slept_ms.size(), 2u);
}

TEST(RetryTest, ExhaustsBudgetAndReturnsLastError) {
  FakeSleeper sleeper;
  RetryStats stats;
  int calls = 0;
  culinary::Status status = RetryStatus(
      RetryPolicy::Default(),
      [&] {
        ++calls;
        return culinary::Status::IOError("always down");
      },
      &stats, sleeper.fn());
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(stats.attempts, 3);
  EXPECT_EQ(sleeper.slept_ms.size(), 2u);  // no sleep after the final failure
}

TEST(RetryTest, NonRetryableErrorReturnsImmediately) {
  FakeSleeper sleeper;
  int calls = 0;
  culinary::Status status = RetryStatus(
      RetryPolicy::Default(),
      [&] {
        ++calls;
        return culinary::Status::ParseError("deterministic damage");
      },
      nullptr, sleeper.fn());
  EXPECT_EQ(status.code(), StatusCode::kParseError);
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(sleeper.slept_ms.empty());
}

TEST(RetryTest, IsRetryableOnlyForTransientCodes) {
  EXPECT_TRUE(IsRetryable(culinary::Status::IOError("x")));
  // Shed/unavailable is an explicit "try again later" — retryable since the
  // serving layer started shedding admissions with it.
  EXPECT_TRUE(IsRetryable(culinary::Status::Unavailable("x")));
  EXPECT_FALSE(IsRetryable(culinary::Status::OK()));
  EXPECT_FALSE(IsRetryable(culinary::Status::ParseError("x")));
  EXPECT_FALSE(IsRetryable(culinary::Status::InvalidArgument("x")));
  EXPECT_FALSE(IsRetryable(culinary::Status::NotFound("x")));
}

TEST(RetryTest, BackoffDoublesAndClamps) {
  RetryPolicy policy;
  policy.base_backoff_ms = 10.0;
  policy.max_backoff_ms = 35.0;
  policy.jitter_fraction = 0.0;  // isolate the deterministic schedule
  culinary::Rng rng(policy.seed);
  EXPECT_DOUBLE_EQ(internal::BackoffMs(policy, 1, rng), 10.0);
  EXPECT_DOUBLE_EQ(internal::BackoffMs(policy, 2, rng), 20.0);
  EXPECT_DOUBLE_EQ(internal::BackoffMs(policy, 3, rng), 35.0);  // clamped
  EXPECT_DOUBLE_EQ(internal::BackoffMs(policy, 4, rng), 35.0);
}

TEST(RetryTest, JitterIsBoundedAndDeterministic) {
  RetryPolicy policy;
  policy.base_backoff_ms = 100.0;
  policy.max_backoff_ms = 100.0;
  policy.jitter_fraction = 0.5;
  culinary::Rng rng_a(policy.seed);
  culinary::Rng rng_b(policy.seed);
  for (int i = 1; i <= 16; ++i) {
    double a = internal::BackoffMs(policy, i, rng_a);
    double b = internal::BackoffMs(policy, i, rng_b);
    EXPECT_DOUBLE_EQ(a, b);
    EXPECT_GE(a, 50.0);
    EXPECT_LE(a, 150.0);
  }
}

TEST(RetryTest, RetryResultRecoversFromInjectedFault) {
  // The first read fails via the injector; the retry sees a healthy site.
  ScopedFault fault(kFaultCsvRead, FaultInjector::Plan::Nth(1));
  FakeSleeper sleeper;
  RetryStats stats;
  auto result = RetryResult(
      RetryPolicy::Default(),
      []() -> culinary::Result<int> {
        CULINARY_RETURN_IF_ERROR(FaultInjector::Global().Check(kFaultCsvRead));
        return 42;
      },
      &stats, sleeper.fn());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(stats.attempts, 2);
}

TEST(RetryTest, TotalBudgetStopsBeforeSleepingPastIt) {
  FakeSleeper sleeper;
  RetryStats stats;
  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.base_backoff_ms = 10.0;
  policy.max_backoff_ms = 10.0;
  policy.jitter_fraction = 0.0;  // deterministic 10 ms per retry
  policy.total_budget_ms = 25.0;  // room for two sleeps, not three
  int calls = 0;
  culinary::Status status = RetryStatus(
      policy,
      [&] {
        ++calls;
        return culinary::Status::IOError("always down");
      },
      &stats, sleeper.fn());
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  EXPECT_EQ(calls, 3);  // initial try + the two affordable retries
  EXPECT_EQ(sleeper.slept_ms.size(), 2u);
  EXPECT_DOUBLE_EQ(stats.total_backoff_ms, 20.0);
  // The last error carries the exhaustion context, so the caller can tell
  // "gave up on time budget" from "gave up on attempts".
  EXPECT_NE(status.ToString().find("retry budget exhausted"),
            std::string::npos);
}

TEST(RetryTest, ZeroBudgetMeansNoSleepAtAll) {
  FakeSleeper sleeper;
  RetryPolicy policy = RetryPolicy::Default();
  policy.total_budget_ms = 0.0;
  int calls = 0;
  culinary::Status status = RetryStatus(
      policy,
      [&] {
        ++calls;
        return culinary::Status::IOError("down");
      },
      nullptr, sleeper.fn());
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(sleeper.slept_ms.empty());
}

TEST(RetryTest, ExpiredDeadlineStopsRetrying) {
  FakeSleeper sleeper;
  RetryPolicy policy = RetryPolicy::Default();
  policy.deadline = culinary::Deadline::After(0.0);
  int calls = 0;
  culinary::Status status = RetryStatus(
      policy,
      [&] {
        ++calls;
        return culinary::Status::IOError("down");
      },
      nullptr, sleeper.fn());
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  EXPECT_EQ(calls, 1);  // the attempt runs; the retry sleep is refused
  EXPECT_TRUE(sleeper.slept_ms.empty());
  EXPECT_NE(status.ToString().find("retry budget exhausted"),
            std::string::npos);
}

TEST(RetryTest, RetryResultHonorsTotalBudget) {
  FakeSleeper sleeper;
  RetryStats stats;
  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.base_backoff_ms = 10.0;
  policy.max_backoff_ms = 10.0;
  policy.jitter_fraction = 0.0;
  policy.total_budget_ms = 15.0;  // one affordable sleep
  int calls = 0;
  auto result = RetryResult(
      policy,
      [&]() -> culinary::Result<int> {
        ++calls;
        return culinary::Status::IOError("down");
      },
      &stats, sleeper.fn());
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(sleeper.slept_ms.size(), 1u);
  EXPECT_NE(result.status().ToString().find("retry budget exhausted"),
            std::string::npos);
}

TEST(RetryTest, GenerousBudgetDoesNotInterfere) {
  FakeSleeper sleeper;
  RetryPolicy policy = RetryPolicy::Default();
  policy.total_budget_ms = 1e9;
  policy.deadline = culinary::Deadline::After(1e9);
  int calls = 0;
  culinary::Status status = RetryStatus(
      policy,
      [&] {
        ++calls;
        return calls < 3 ? culinary::Status::IOError("flaky")
                         : culinary::Status::OK();
      },
      nullptr, sleeper.fn());
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(calls, 3);
}

TEST(RetryTest, RetryResultExhaustsAgainstPermanentFault) {
  ScopedFault fault(kFaultCsvRead, FaultInjector::Plan::Always());
  FakeSleeper sleeper;
  RetryStats stats;
  auto result = RetryResult(
      RetryPolicy::Default(),
      []() -> culinary::Result<int> {
        CULINARY_RETURN_IF_ERROR(FaultInjector::Global().Check(kFaultCsvRead));
        return 42;
      },
      &stats, sleeper.fn());
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  EXPECT_EQ(stats.attempts, 3);
  EXPECT_EQ(FaultInjector::Global().CallCount(kFaultCsvRead), 3u);
}

}  // namespace
}  // namespace culinary::robustness
