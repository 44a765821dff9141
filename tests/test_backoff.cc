#include "sim/backoff.h"

#include <gtest/gtest.h>

#include "sim/time.h"

namespace muxwise::sim {
namespace {

TEST(BackoffTest, FirstAttemptPaysTheInitialDelay) {
  const ExponentialBackoff policy{Milliseconds(2), 2.0, kTimeNever};
  EXPECT_EQ(BackoffDelay(policy, 1), Milliseconds(2));
}

TEST(BackoffTest, DoublesPerAttemptLikeTheLegacyChannelLoop) {
  // The exact series the Interconnect retry path computed inline
  // before the helper existed: initial * 2^(attempt-1).
  const ExponentialBackoff policy{Milliseconds(2), 2.0, kTimeNever};
  EXPECT_EQ(BackoffDelay(policy, 2), Milliseconds(4));
  EXPECT_EQ(BackoffDelay(policy, 3), Milliseconds(8));
  EXPECT_EQ(BackoffDelay(policy, 4), Milliseconds(16));
  EXPECT_EQ(BackoffDelay(policy, 10), Milliseconds(1024));
}

TEST(BackoffTest, CapClampsAndStaysClamped) {
  const ExponentialBackoff policy{Milliseconds(10), 2.0, Milliseconds(80)};
  EXPECT_EQ(BackoffDelay(policy, 1), Milliseconds(10));
  EXPECT_EQ(BackoffDelay(policy, 2), Milliseconds(20));
  EXPECT_EQ(BackoffDelay(policy, 3), Milliseconds(40));
  EXPECT_EQ(BackoffDelay(policy, 4), Milliseconds(80));
  EXPECT_EQ(BackoffDelay(policy, 5), Milliseconds(80));
  EXPECT_EQ(BackoffDelay(policy, 50), Milliseconds(80));
}

TEST(BackoffTest, CapBelowInitialWinsImmediately) {
  const ExponentialBackoff policy{Milliseconds(100), 2.0, Milliseconds(30)};
  EXPECT_EQ(BackoffDelay(policy, 1), Milliseconds(30));
  EXPECT_EQ(BackoffDelay(policy, 3), Milliseconds(30));
}

TEST(BackoffTest, NonDoublingMultiplierScalesGeometrically) {
  const ExponentialBackoff policy{Milliseconds(100), 1.5, kTimeNever};
  EXPECT_EQ(BackoffDelay(policy, 1), Milliseconds(100));
  EXPECT_EQ(BackoffDelay(policy, 2), Milliseconds(150));
  EXPECT_EQ(BackoffDelay(policy, 3), Milliseconds(225));
}

TEST(BackoffTest, UnitMultiplierIsAConstantDelay) {
  const ExponentialBackoff policy{Milliseconds(7), 1.0, kTimeNever};
  EXPECT_EQ(BackoffDelay(policy, 1), Milliseconds(7));
  EXPECT_EQ(BackoffDelay(policy, 100), Milliseconds(7));
}

TEST(BackoffTest, OverflowSaturatesAtTheCapInsteadOfWrapping) {
  // 2^62 ns doublings overflow int64 within ~70 attempts; the helper
  // must saturate at the cap, never wrap negative.
  const ExponentialBackoff policy{Seconds(1), 2.0, kTimeNever};
  const Duration huge = BackoffDelay(policy, 200);
  EXPECT_EQ(huge, kTimeNever);
  const ExponentialBackoff capped{Seconds(1), 2.0, Seconds(30)};
  EXPECT_EQ(BackoffDelay(capped, 200), Seconds(30));
  // A non-doubling multiplier passes int64's range too: it must reach
  // the cap without converting an out-of-range double.
  const ExponentialBackoff scaled{Seconds(1), 1.7, kTimeNever};
  EXPECT_EQ(BackoffDelay(scaled, 200), kTimeNever);
}

TEST(BackoffTest, DelaysAreMonotonicallyNonDecreasing) {
  const ExponentialBackoff policy{Milliseconds(3), 1.7, Seconds(2)};
  Duration previous = 0;
  for (int attempt = 1; attempt <= 64; ++attempt) {
    const Duration delay = BackoffDelay(policy, attempt);
    EXPECT_GE(delay, previous) << "attempt " << attempt;
    EXPECT_LE(delay, Seconds(2));
    previous = delay;
  }
}

}  // namespace
}  // namespace muxwise::sim
