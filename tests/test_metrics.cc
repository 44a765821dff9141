#include "serve/metrics.h"

#include <gtest/gtest.h>

#include <memory>

#include "serve/request.h"
#include "sim/time.h"
#include "workload/request_spec.h"

namespace muxwise::serve {
namespace {

using sim::Milliseconds;

TEST(PercentileTest, BasicProperties) {
  EXPECT_DOUBLE_EQ(Percentile({}, 0.99), 0.0);
  EXPECT_DOUBLE_EQ(Percentile({5.0}, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(Percentile({1.0, 2.0, 3.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile({1.0, 2.0, 3.0}, 1.0), 3.0);
  EXPECT_DOUBLE_EQ(Percentile({3.0, 1.0, 2.0}, 0.5), 2.0);
  EXPECT_NEAR(Percentile({1.0, 2.0}, 0.5), 1.5, 1e-12);
}

// Hand-computed fixtures for the small sample counts where naive
// nearest-rank rounding visibly diverges from linear interpolation.
// Rank is p * (n - 1); the value blends the floor/ceil neighbours of
// the sorted samples by the fractional part.

TEST(PercentileTest, SmallSampleP50Fixtures) {
  // n=1: the only sample is every percentile.
  EXPECT_DOUBLE_EQ(Percentile({7.0}, 0.50), 7.0);
  // n=2: rank 0.5 -> midpoint.
  EXPECT_NEAR(Percentile({10.0, 20.0}, 0.50), 15.0, 1e-12);
  // n=3: rank 1.0 -> exact middle sample, no interpolation.
  EXPECT_DOUBLE_EQ(Percentile({10.0, 20.0, 40.0}, 0.50), 20.0);
  // n=4: rank 1.5 -> halfway between 2nd and 3rd sorted samples.
  EXPECT_NEAR(Percentile({40.0, 10.0, 20.0, 30.0}, 0.50), 25.0, 1e-12);
  // n=5: rank 2.0 -> exact middle sample.
  EXPECT_DOUBLE_EQ(Percentile({5.0, 1.0, 4.0, 2.0, 3.0}, 0.50), 3.0);
}

TEST(PercentileTest, SmallSampleP99Fixtures) {
  // n=2: rank 0.99 -> 10 * 0.01 + 20 * 0.99 = 19.9.
  EXPECT_NEAR(Percentile({10.0, 20.0}, 0.99), 19.9, 1e-12);
  // n=4: rank 2.97 -> 30 * 0.03 + 40 * 0.97 = 39.7.
  EXPECT_NEAR(Percentile({10.0, 20.0, 30.0, 40.0}, 0.99), 39.7, 1e-12);
  // n=5: rank 3.96 -> 40 * 0.04 + 50 * 0.96 = 49.6.
  EXPECT_NEAR(Percentile({10.0, 20.0, 30.0, 40.0, 50.0}, 0.99), 49.6, 1e-12);
  // n=9: rank 7.92 -> 80 * 0.08 + 90 * 0.92 = 89.2.
  EXPECT_NEAR(Percentile({90.0, 10.0, 30.0, 20.0, 50.0, 40.0, 70.0, 60.0,
                          80.0},
                         0.99),
              89.2, 1e-12);
}

TEST(PercentileTest, SortedVariantMatchesSortingForm) {
  const std::vector<double> sorted = {1.0, 2.0, 4.0, 8.0, 16.0, 32.0};
  for (const double p : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(PercentileSorted(sorted, p), Percentile(sorted, p));
  }
  EXPECT_DOUBLE_EQ(PercentileSorted({}, 0.5), 0.0);
}

class MetricsTest : public ::testing::Test {
 protected:
  /** A request with TTFT 100 ms and three 50 ms decode gaps. */
  std::unique_ptr<Request> MakeRequest(std::int64_t id,
                                       sim::Duration ttft = Milliseconds(100),
                                       sim::Duration gap = Milliseconds(50),
                                       int extra_tokens = 3) {
    specs_.push_back(std::make_unique<workload::RequestSpec>());
    workload::RequestSpec* spec = specs_.back().get();
    spec->id = id;
    spec->input_tokens = 200;
    spec->output_tokens = 1 + extra_tokens;
    auto request = std::make_unique<Request>(spec);
    request->arrival = 0;
    sim::Time t = ttft;
    request->EmitToken(t);
    for (int i = 0; i < extra_tokens; ++i) {
      t += gap;
      request->EmitToken(t);
    }
    request->completion = t;
    return request;
  }

  std::vector<std::unique_ptr<workload::RequestSpec>> specs_;
  MetricsCollector metrics_;
};

TEST_F(MetricsTest, TtftAndTbtSummaries) {
  metrics_.OnRequestComplete(*MakeRequest(1));
  EXPECT_EQ(metrics_.completed(), 1u);
  EXPECT_DOUBLE_EQ(metrics_.Ttft().mean_ms, 100.0);
  EXPECT_DOUBLE_EQ(metrics_.Tbt().mean_ms, 50.0);
  EXPECT_EQ(metrics_.Tbt().count, 3u);  // Gaps, not tokens.
  EXPECT_DOUBLE_EQ(metrics_.Tpot().mean_ms, 50.0);
  EXPECT_DOUBLE_EQ(metrics_.E2e().mean_ms, 250.0);
}

TEST_F(MetricsTest, TtftPerTokenNormalizesByInput) {
  metrics_.OnRequestComplete(*MakeRequest(1));
  EXPECT_DOUBLE_EQ(metrics_.TtftPerToken().mean_ms, 100.0 / 200.0);
}

TEST_F(MetricsTest, P99CapturesTail) {
  for (int i = 0; i < 99; ++i) {
    metrics_.OnRequestComplete(*MakeRequest(i));
  }
  // One straggler contributing ~9% of all gaps at 500 ms.
  metrics_.OnRequestComplete(
      *MakeRequest(99, Milliseconds(100), Milliseconds(500), 30));
  EXPECT_GT(metrics_.Tbt().p99_ms, 100.0);
  EXPECT_DOUBLE_EQ(metrics_.Tbt().p50_ms, 50.0);
}

TEST_F(MetricsTest, TbtAttainmentCountsGapsWithinTarget) {
  metrics_.OnRequestComplete(*MakeRequest(1, Milliseconds(100),
                                          Milliseconds(40)));
  metrics_.OnRequestComplete(*MakeRequest(2, Milliseconds(100),
                                          Milliseconds(120)));
  EXPECT_DOUBLE_EQ(metrics_.TbtAttainment(Milliseconds(100)), 0.5);
  EXPECT_DOUBLE_EQ(metrics_.TbtAttainment(Milliseconds(200)), 1.0);
}

TEST_F(MetricsTest, MeetsSloUsesPercentileThreshold) {
  workload::SloTargets slo;
  slo.tbt = Milliseconds(100);
  slo.percentile = 0.99;
  for (int i = 0; i < 100; ++i) {
    metrics_.OnRequestComplete(*MakeRequest(i, Milliseconds(100),
                                            Milliseconds(40), 99));
  }
  EXPECT_TRUE(metrics_.MeetsSlo(slo));
  // Add a request whose gaps all violate: attainment drops below 99%.
  for (int i = 0; i < 3; ++i) {
    metrics_.OnRequestComplete(*MakeRequest(1000 + i, Milliseconds(100),
                                            Milliseconds(300), 99));
  }
  EXPECT_FALSE(metrics_.MeetsSlo(slo));
}

TEST_F(MetricsTest, ThroughputOverWindow) {
  metrics_.OnRequestComplete(*MakeRequest(1));  // 4 output tokens.
  metrics_.OnRequestComplete(*MakeRequest(2));
  const double tokens =
      metrics_.TokenThroughput(0, sim::Seconds(2));  // (400 in + 8 out)/2s.
  EXPECT_DOUBLE_EQ(tokens, 204.0);
  EXPECT_DOUBLE_EQ(metrics_.RequestThroughput(0, sim::Seconds(2)), 1.0);
}

TEST_F(MetricsTest, SingleTokenOutputHasNoTbtSamples) {
  metrics_.OnRequestComplete(*MakeRequest(1, Milliseconds(80),
                                          Milliseconds(50), 0));
  EXPECT_EQ(metrics_.Tbt().count, 0u);
  EXPECT_EQ(metrics_.Tpot().count, 0u);
  EXPECT_EQ(metrics_.Ttft().count, 1u);
}

class ClassMetricsTest : public MetricsTest {
 protected:
  /** MakeRequest, then stamps the SLO class and prefill start. */
  std::unique_ptr<Request> MakeClassed(std::int64_t id,
                                       workload::SloClass slo_class,
                                       sim::Duration queue_delay,
                                       sim::Duration ttft = Milliseconds(100)) {
    auto request = MakeRequest(id, ttft);
    specs_.back()->slo_class = slo_class;
    request->prefill_start = request->arrival + queue_delay;
    return request;
  }
};

TEST_F(ClassMetricsTest, PerClassSplitPartitionsOutcomes) {
  using workload::SloClass;
  metrics_.OnRequestComplete(
      *MakeClassed(1, SloClass::kInteractive, Milliseconds(5)));
  metrics_.OnRequestComplete(
      *MakeClassed(2, SloClass::kStandard, Milliseconds(5)));
  auto shed = MakeClassed(3, SloClass::kBatch, Milliseconds(5));
  shed->outcome = Outcome::kShed;
  metrics_.OnRequestComplete(*shed);
  auto timed_out = MakeClassed(4, SloClass::kInteractive, Milliseconds(5));
  timed_out->outcome = Outcome::kTimedOut;
  metrics_.OnRequestComplete(*timed_out);

  EXPECT_EQ(metrics_.ClassSlice(SloClass::kInteractive).split.attained, 1u);
  EXPECT_EQ(metrics_.ClassSlice(SloClass::kInteractive).split.timed_out, 1u);
  EXPECT_EQ(metrics_.ClassSlice(SloClass::kStandard).split.attained, 1u);
  EXPECT_EQ(metrics_.ClassSlice(SloClass::kBatch).split.shed, 1u);
  EXPECT_EQ(metrics_.ClassSlice(SloClass::kBatch).split.attained, 0u);
  // The slices partition the aggregate exactly.
  std::size_t total = 0;
  for (auto c : {SloClass::kInteractive, SloClass::kStandard,
                 SloClass::kBatch}) {
    total += metrics_.ClassSlice(c).split.total();
  }
  EXPECT_EQ(total, metrics_.notified());
}

TEST_F(ClassMetricsTest, AllStandardTrafficLeavesOtherSlicesEmpty) {
  metrics_.OnRequestComplete(
      *MakeClassed(1, workload::SloClass::kStandard, Milliseconds(5)));
  EXPECT_EQ(metrics_.ClassSlice(workload::SloClass::kStandard).split.total(),
            1u);
  EXPECT_EQ(
      metrics_.ClassSlice(workload::SloClass::kInteractive).split.total(), 0u);
  EXPECT_EQ(metrics_.ClassSlice(workload::SloClass::kBatch).split.total(), 0u);
}

TEST_F(ClassMetricsTest, QueueDelayP99HandComputedFixture) {
  using workload::SloClass;
  // Four attained interactive requests with queue delays 10/20/30/40 ms.
  // p99 rank is 0.99 * 3 = 2.97: 30 * 0.03 + 40 * 0.97 = 39.7 ms.
  for (int i = 0; i < 4; ++i) {
    metrics_.OnRequestComplete(*MakeClassed(
        i, SloClass::kInteractive, Milliseconds(10 * (i + 1))));
  }
  const ClassMetrics& slice = metrics_.ClassSlice(SloClass::kInteractive);
  ASSERT_EQ(slice.queue_delay.Count(), 4u);
  EXPECT_NEAR(slice.QueueDelayP99(), 39.7, 1e-9);
  // Degraded requests contribute no queue-delay samples.
  auto shed = MakeClassed(9, SloClass::kInteractive, Milliseconds(999));
  shed->outcome = Outcome::kShed;
  metrics_.OnRequestComplete(*shed);
  EXPECT_EQ(slice.queue_delay.Count(), 4u);
  EXPECT_NEAR(slice.QueueDelayP99(), 39.7, 1e-9);
}

TEST_F(ClassMetricsTest, TtftAttainmentUsesPerTokenTarget) {
  using workload::SloClass;
  // Default SLO bound at construction: 500 ms + 400 us/token; the
  // 200-token fixture prompts put the target at 580 ms.
  metrics_.OnRequestComplete(*MakeClassed(
      1, SloClass::kStandard, Milliseconds(5), Milliseconds(100)));
  metrics_.OnRequestComplete(*MakeClassed(
      2, SloClass::kStandard, Milliseconds(5), Milliseconds(579)));
  metrics_.OnRequestComplete(*MakeClassed(
      3, SloClass::kStandard, Milliseconds(5), Milliseconds(581)));
  auto shed = MakeClassed(4, SloClass::kStandard, Milliseconds(5));
  shed->outcome = Outcome::kShed;
  metrics_.OnRequestComplete(*shed);

  const ClassMetrics& slice = metrics_.ClassSlice(SloClass::kStandard);
  EXPECT_EQ(slice.TtftAttained(), 2u);
  // Attainment is over all arrivals of the class, shed ones included:
  // 2 within target / 4 total.
  EXPECT_DOUBLE_EQ(slice.Attainment(), 0.5);
  // An empty slice reports perfect attainment, not 0/0.
  EXPECT_DOUBLE_EQ(metrics_.ClassSlice(SloClass::kBatch).Attainment(), 1.0);
}

TEST_F(ClassMetricsTest, AttainmentJudgedAgainstBoundSlo) {
  using workload::SloClass;
  // A collector bound to a tighter SLO counts attainment against it at
  // ingest; the same timings then attain under the default targets but
  // not the tight ones.
  workload::SloTargets tight;
  tight.ttft = Milliseconds(50);
  tight.ttft_per_token = sim::Microseconds(100);  // 200 tokens -> 70 ms.
  MetricsCollector strict(tight);
  strict.OnRequestComplete(*MakeClassed(
      1, SloClass::kStandard, Milliseconds(5), Milliseconds(100)));
  metrics_.OnRequestComplete(*MakeClassed(
      2, SloClass::kStandard, Milliseconds(5), Milliseconds(100)));
  EXPECT_EQ(strict.ClassSlice(SloClass::kStandard).TtftAttained(), 0u);
  EXPECT_EQ(metrics_.ClassSlice(SloClass::kStandard).TtftAttained(), 1u);
}

}  // namespace
}  // namespace muxwise::serve
