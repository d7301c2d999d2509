#include "robustness/retry.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/result.h"
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
  auto result = RetryResult(
      RetryPolicy::Default(), []() -> culinary::Result<int> { return 1; },
      &stats, sleeper.fn());
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(stats.attempts, 1);
  EXPECT_TRUE(sleeper.slept_ms.empty());
}

TEST(RetryTest, RetriesTransientFailureThenSucceeds) {
  FakeSleeper sleeper;
  RetryStats stats;
  int calls = 0;
  auto result = RetryResult(
      RetryPolicy::Default(),
      [&]() -> culinary::Result<int> {
        ++calls;
        if (calls < 3) return culinary::Status::IOError("flaky");
        return calls;
      },
      &stats, sleeper.fn());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 3);
  EXPECT_EQ(stats.attempts, 3);
  EXPECT_EQ(sleeper.slept_ms.size(), 2u);
}

TEST(RetryTest, ExhaustsBudgetAndReturnsLastError) {
  FakeSleeper sleeper;
  RetryStats stats;
  int calls = 0;
  auto result = RetryResult(
      RetryPolicy::Default(),
      [&]() -> culinary::Result<int> {
        ++calls;
        return culinary::Status::IOError("always down");
      },
      &stats, sleeper.fn());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(stats.attempts, 3);
  EXPECT_EQ(sleeper.slept_ms.size(), 2u);  // no sleep after the final failure
}

TEST(RetryTest, NonRetryableErrorReturnsImmediately) {
  FakeSleeper sleeper;
  int calls = 0;
  auto result = RetryResult(
      RetryPolicy::Default(),
      [&]() -> culinary::Result<int> {
        ++calls;
        return culinary::Status::ParseError("deterministic damage");
      },
      nullptr, sleeper.fn());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
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
  // Each backoff is the doubling schedule times one jitter draw from the
  // kRetrySeed stream; replaying that stream isolates the schedule.
  culinary::Rng rng(kRetrySeed);
  culinary::Rng jitter(kRetrySeed);
  const double expected_base[] = {1, 2, 4, 8, 16, 32, 64, 100, 100};
  for (int attempt = 1; attempt <= 9; ++attempt) {
    const double factor =
        jitter.NextDouble(1.0 - kRetryJitter, 1.0 + kRetryJitter);
    EXPECT_DOUBLE_EQ(internal::BackoffMs(attempt, rng),
                     expected_base[attempt - 1] * factor)
        << "attempt " << attempt;
  }
}

TEST(RetryTest, JitterIsBoundedAndDeterministic) {
  culinary::Rng rng_a(kRetrySeed);
  culinary::Rng rng_b(kRetrySeed);
  for (int i = 1; i <= 16; ++i) {
    const double base = std::min(kRetryMaxBackoffMs,
                                 kRetryBaseBackoffMs * (1 << (i - 1)));
    double a = internal::BackoffMs(i, rng_a);
    double b = internal::BackoffMs(i, rng_b);
    EXPECT_DOUBLE_EQ(a, b);
    EXPECT_GE(a, base * (1.0 - kRetryJitter));
    EXPECT_LE(a, base * (1.0 + kRetryJitter));
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
