#include "serve/quantile_sketch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "sim/hash.h"

namespace muxwise::serve {
namespace {

using sim::SplitMix64;

double Uniform01(std::uint64_t seed, std::uint64_t index) {
  const std::uint64_t bits = SplitMix64(SplitMix64(seed) ^ index);
  return (static_cast<double>(bits >> 11) + 0.5) * 0x1.0p-53;
}

/** Deterministic lognormal-ish latencies (ms): exp(mu + sigma * z). */
std::vector<double> LognormalSamples(std::size_t n, std::uint64_t seed) {
  std::vector<double> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double u1 = Uniform01(seed, 2 * i);
    const double u2 = Uniform01(seed, 2 * i + 1);
    const double z =
        std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
    out.push_back(std::exp(3.0 + 0.8 * z));  // Median ~20 ms.
  }
  return out;
}

double ExactPercentile(std::vector<double> samples, double p) {
  std::sort(samples.begin(), samples.end());
  return PercentileSorted(samples, p);
}

TEST(QuantileSketchTest, EmptySketchReportsZeros) {
  QuantileSketch sketch;
  EXPECT_TRUE(sketch.empty());
  EXPECT_EQ(sketch.Count(), 0u);
  EXPECT_EQ(sketch.Quantile(0.5), 0.0);
  EXPECT_EQ(sketch.Min(), 0.0);
  EXPECT_EQ(sketch.Max(), 0.0);
  EXPECT_EQ(sketch.Sum(), 0.0);
}

TEST(QuantileSketchTest, HandComputedFixtures) {
  QuantileSketch sketch;
  for (double v : {1.0, 2.0, 3.0, 4.0}) sketch.Add(v);
  // R-7 interpolation: rank (n-1)*p = 1.5 between 2 and 3.
  EXPECT_DOUBLE_EQ(sketch.Quantile(0.5), 2.5);
  EXPECT_DOUBLE_EQ(sketch.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(sketch.Quantile(1.0), 4.0);
  // (n-1)*p = 3 * 0.99 = 2.97 between 3 and 4.
  EXPECT_DOUBLE_EQ(sketch.Quantile(0.99), 3.97);
  EXPECT_DOUBLE_EQ(sketch.Sum(), 10.0);
  EXPECT_DOUBLE_EQ(sketch.Mean(), 2.5);
  EXPECT_DOUBLE_EQ(sketch.Min(), 1.0);
  EXPECT_DOUBLE_EQ(sketch.Max(), 4.0);
}

TEST(QuantileSketchTest, SingleSampleIsEveryQuantile) {
  QuantileSketch sketch;
  sketch.Add(42.0);
  for (double p : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(sketch.Quantile(p), 42.0) << "p=" << p;
  }
}

TEST(QuantileSketchTest, ExactTierIsBitIdenticalToPercentileSorted) {
  const std::vector<double> samples = LognormalSamples(1000, 17);
  QuantileSketch sketch;
  for (double v : samples) sketch.Add(v);
  ASSERT_FALSE(sketch.overflowed());
  for (double p : {0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(sketch.Quantile(p), ExactPercentile(samples, p)) << "p=" << p;
  }
  const double sum = std::accumulate(samples.begin(), samples.end(), 0.0);
  EXPECT_EQ(sketch.Sum(), sum);  // Left-fold order reproduced exactly.
}

TEST(QuantileSketchTest, CountLessEqualMatchesCountIfOnExactTier) {
  const std::vector<double> samples = LognormalSamples(500, 3);
  QuantileSketch sketch;
  for (double v : samples) sketch.Add(v);
  for (double threshold : {5.0, 20.0, 60.0}) {
    const auto expected = static_cast<double>(std::count_if(
        samples.begin(), samples.end(),
        [threshold](double v) { return v <= threshold; }));
    EXPECT_EQ(sketch.CountLessEqual(threshold), expected);
  }
}

TEST(QuantileSketchTest, NegativeSamplesClampToZeroButMinStaysVisible) {
  QuantileSketch sketch;
  sketch.Add(-5.0);
  sketch.Add(10.0);
  EXPECT_DOUBLE_EQ(sketch.Min(), -5.0);
  EXPECT_DOUBLE_EQ(sketch.Quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(sketch.Quantile(1.0), 10.0);
}

TEST(QuantileSketchTest, MergeOrderInvarianceOnExactTier) {
  const std::vector<double> a = LognormalSamples(300, 5);
  const std::vector<double> b = LognormalSamples(300, 6);
  const std::vector<double> c = LognormalSamples(300, 7);
  auto build = [](const std::vector<double>& samples) {
    QuantileSketch s;
    for (double v : samples) s.Add(v);
    return s;
  };
  QuantileSketch abc = build(a);
  abc.Merge(build(b));
  abc.Merge(build(c));
  QuantileSketch cba = build(c);
  cba.Merge(build(b));
  cba.Merge(build(a));
  EXPECT_EQ(abc.StateDigest(), cba.StateDigest());
  EXPECT_EQ(abc.Quantile(0.5), cba.Quantile(0.5));
  EXPECT_EQ(abc.Quantile(0.99), cba.Quantile(0.99));
  EXPECT_EQ(abc.Count(), cba.Count());
}

TEST(QuantileSketchTest, MergeOrderInvariancePastOverflow) {
  // Shards small enough to overflow their exact tiers, so the digest
  // must be stable across both histogram merge order and the shard
  // boundaries themselves.
  const std::vector<double> all = LognormalSamples(4000, 11);
  auto shard = [&all](std::size_t begin, std::size_t end) {
    QuantileSketch s(/*exact_capacity=*/256);
    for (std::size_t i = begin; i < end; ++i) s.Add(all[i]);
    return s;
  };
  QuantileSketch forward = shard(0, 1000);
  forward.Merge(shard(1000, 2500));
  forward.Merge(shard(2500, 4000));
  QuantileSketch backward = shard(2500, 4000);
  backward.Merge(shard(0, 1000));
  backward.Merge(shard(1000, 2500));
  QuantileSketch whole(/*exact_capacity=*/256);
  for (double v : all) whole.Add(v);
  EXPECT_TRUE(forward.overflowed());
  EXPECT_EQ(forward.StateDigest(), backward.StateDigest());
  EXPECT_EQ(forward.StateDigest(), whole.StateDigest());
  EXPECT_EQ(forward.Count(), 4000u);
  EXPECT_EQ(forward.Quantile(0.99), whole.Quantile(0.99));
}

TEST(QuantileSketchTest, InsertionOrderInvariancePastOverflow) {
  std::vector<double> samples = LognormalSamples(3000, 23);
  QuantileSketch ascending(/*exact_capacity=*/128);
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  for (double v : sorted) ascending.Add(v);
  QuantileSketch shuffled(/*exact_capacity=*/128);
  for (double v : samples) shuffled.Add(v);
  EXPECT_EQ(ascending.StateDigest(), shuffled.StateDigest());
}

TEST(QuantileSketchTest, HistogramTierAccuracyWithinBucketBound) {
  const std::vector<double> samples = LognormalSamples(100000, 41);
  QuantileSketch sketch(/*exact_capacity=*/1024);
  for (double v : samples) sketch.Add(v);
  ASSERT_TRUE(sketch.overflowed());
  // A bucket spans 1/32 of a binade, so mid-bucket estimates sit within
  // ~1.6% of the exact value; allow 2x slack for rank interpolation.
  for (double p : {0.5, 0.9, 0.99}) {
    const double exact = ExactPercentile(samples, p);
    const double approx = sketch.Quantile(p);
    EXPECT_NEAR(approx, exact, exact * 0.032) << "p=" << p;
  }
  EXPECT_EQ(sketch.Count(), samples.size());
  EXPECT_DOUBLE_EQ(
      sketch.Min(), *std::min_element(samples.begin(), samples.end()));
  EXPECT_DOUBLE_EQ(
      sketch.Max(), *std::max_element(samples.begin(), samples.end()));
}

TEST(QuantileSketchTest, CountLessEqualStaysMonotonePastOverflow) {
  const std::vector<double> samples = LognormalSamples(50000, 9);
  QuantileSketch sketch(/*exact_capacity=*/512);
  for (double v : samples) sketch.Add(v);
  ASSERT_TRUE(sketch.overflowed());
  double previous = -1.0;
  for (double threshold = 1.0; threshold <= 256.0; threshold *= 2.0) {
    const double count = sketch.CountLessEqual(threshold);
    EXPECT_GE(count, previous);
    previous = count;
    const auto exact = static_cast<double>(std::count_if(
        samples.begin(), samples.end(),
        [threshold](double v) { return v <= threshold; }));
    // Rank error is bounded by the population of the split bucket.
    EXPECT_NEAR(count, exact, static_cast<double>(samples.size()) * 0.02);
  }
  // At Max() the split bucket is interpolated, so the count lands just
  // shy of n; anything strictly above the top bucket covers everything.
  EXPECT_NEAR(sketch.CountLessEqual(sketch.Max()),
              static_cast<double>(samples.size()), 1.0);
  EXPECT_EQ(sketch.CountLessEqual(sketch.Max() * 2.0),
            static_cast<double>(samples.size()));
}

TEST(QuantileSketchTest, MemoryStaysBoundedPastOverflow) {
  QuantileSketch sketch(/*exact_capacity=*/256);
  const std::vector<double> samples = LognormalSamples(10000, 13);
  for (double v : samples) sketch.Add(v);
  ASSERT_TRUE(sketch.overflowed());
  const std::size_t bytes_at_overflow = sketch.MemoryBytes();
  for (int i = 0; i < 100000; ++i) {
    sketch.Add(samples[static_cast<std::size_t>(i) % samples.size()]);
  }
  EXPECT_EQ(sketch.MemoryBytes(), bytes_at_overflow);
}

TEST(QuantileSketchTest, SummarizeAgreesWithIndividualQueries) {
  const std::vector<double> samples = LognormalSamples(2000, 31);
  QuantileSketch sketch;
  for (double v : samples) sketch.Add(v);
  const LatencySummary summary = sketch.Summarize();
  EXPECT_EQ(summary.count, samples.size());
  EXPECT_EQ(summary.mean_ms, sketch.Mean());
  EXPECT_EQ(summary.p50_ms, sketch.Quantile(0.5));
  EXPECT_EQ(summary.p99_ms, sketch.Quantile(0.99));
}

}  // namespace
}  // namespace muxwise::serve
