#include "harness/runner.h"

#include <gtest/gtest.h>

#include "gpu/gpu_spec.h"
#include "llm/model_config.h"
#include "route/fleet_router.h"
#include "serve/deployment.h"
#include "serve/frontend.h"
#include "workload/datasets.h"

namespace muxwise::harness {
namespace {

serve::Deployment Llama70bA100() {
  return serve::Deployment::Make(llm::ModelConfig::Llama70B(),
                                 gpu::GpuSpec::A100());
}

class HarnessTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    estimator_ = new core::ContentionEstimator(
        core::ContentionEstimator::BuildOffline(Llama70bA100()));
  }
  static void TearDownTestSuite() {
    delete estimator_;
    estimator_ = nullptr;
  }
  static core::ContentionEstimator* estimator_;
};

core::ContentionEstimator* HarnessTest::estimator_ = nullptr;

TEST_F(HarnessTest, EngineKindNamesAreDistinct) {
  EXPECT_STREQ(EngineKindName(EngineKind::kMuxWise), "MuxWise");
  EXPECT_STREQ(EngineKindName(EngineKind::kChunked), "Chunked");
  EXPECT_STREQ(EngineKindName(EngineKind::kNanoFlow), "NanoFlow");
  EXPECT_STREQ(EngineKindName(EngineKind::kSglangPd), "SGLang-PD");
  EXPECT_STREQ(EngineKindName(EngineKind::kLoongServe), "LoongServe");
  EXPECT_STREQ(EngineKindName(EngineKind::kWindServe), "WindServe*");
  EXPECT_STREQ(EngineKindName(EngineKind::kTemporal), "Temporal*");
}

TEST_F(HarnessTest, RunWorkloadCompletesAndPopulatesOutcome) {
  const workload::Trace trace =
      workload::GenerateTrace(workload::Dataset::kShareGpt, 40, 2.0, 301);
  const RunOutcome o = RunWorkload(EngineKind::kMuxWise, Llama70bA100(),
                                   trace, estimator_);
  EXPECT_TRUE(o.stable);
  EXPECT_EQ(o.completed, 40u);
  EXPECT_EQ(o.total, 40u);
  EXPECT_GT(o.ttft.p99_ms, 0.0);
  EXPECT_GT(o.tbt.count, 0u);
  EXPECT_GT(o.token_throughput, 0.0);
  ASSERT_EQ(o.gpu_utilization.size(), 1u);
  EXPECT_GT(o.gpu_utilization[0], 0.0);
  EXPECT_LE(o.gpu_utilization[0], 100.0);
  EXPECT_GT(o.partition.decisions, 0u);
}

TEST_F(HarnessTest, FleetRunSumsItsReplicasPartitionDecisions) {
  const workload::Trace trace =
      workload::GenerateTrace(workload::Dataset::kShareGpt, 60, 4.0, 302);
  RunConfig config;
  config.fleet.enabled = true;
  config.fleet.replicas = 2;
  std::size_t replica_iterations = 0;
  std::size_t busy_replicas = 0;
  const RunOutcome o = RunArrivals(
      EngineKind::kMuxWise, Llama70bA100(), estimator_, config,
      trace.requests.size(), [&](RunContext& run) {
        serve::Frontend frontend(&run.simulator, run.instance.engine.get(),
                                 &trace, &run.metrics);
        frontend.Start();
        const DriveResult result =
            DriveScenario(run.simulator, frontend, trace, config);
        const route::FleetRouter& fleet = *run.instance.fleet;
        for (std::size_t r = 0; r < fleet.num_replicas(); ++r) {
          const std::size_t n = fleet.replica(r).decode_iterations();
          replica_iterations += n;
          if (n > 0) ++busy_replicas;
        }
        return result;
      });
  EXPECT_EQ(o.completed, 60u);
  EXPECT_EQ(busy_replicas, 2u);
  EXPECT_EQ(o.partition.decisions, replica_iterations);
}

TEST_F(HarnessTest, DisaggregatedEngineReportsTwoUtilizations) {
  const workload::Trace trace =
      workload::GenerateTrace(workload::Dataset::kShareGpt, 20, 1.0, 302);
  const RunOutcome o = RunWorkload(EngineKind::kSglangPd, Llama70bA100(),
                                   trace, estimator_);
  EXPECT_TRUE(o.stable);
  EXPECT_EQ(o.gpu_utilization.size(), 2u);  // P and D instances.
}

TEST_F(HarnessTest, SteadyStateFlagsQueueDraining) {
  // A grossly overloaded run must be reported unstable under
  // steady-state accounting (its queue drains long after arrivals).
  workload::Trace trace =
      workload::GenerateTrace(workload::Dataset::kLoogle, 60, 1.0, 303);
  workload::ResampleArrivalsPoisson(trace, 5.0, 303);  // >> capacity.
  RunConfig config;
  config.steady_state = true;
  const RunOutcome o = RunWorkload(EngineKind::kChunked, Llama70bA100(),
                                   trace, estimator_, config);
  EXPECT_FALSE(o.stable);
  EXPECT_FALSE(o.meets_slo);
}

TEST_F(HarnessTest, MuxwiseOptionsOverrideApplies) {
  const workload::Trace trace =
      workload::GenerateTrace(workload::Dataset::kShareGpt, 20, 1.0, 304);
  RunConfig config;
  core::MuxWiseEngine::Options options;
  options.dispatch.preemption = false;
  config.muxwise_options = options;
  const RunOutcome o = RunWorkload(EngineKind::kMuxWise, Llama70bA100(),
                                   trace, estimator_, config);
  EXPECT_EQ(o.preemptions, 0u);
}

TEST_F(HarnessTest, SweepStopsAtFirstFailureAndReportsGoodput) {
  const workload::Trace base =
      workload::GenerateTrace(workload::Dataset::kToolAgent, 300, 1.0, 305);
  const GoodputResult result = SweepGoodput(
      EngineKind::kMuxWise, Llama70bA100(), base,
      {0.5, 1.0, 20.0, 40.0}, estimator_);
  ASSERT_GE(result.points.size(), 2u);
  // Points are tested in ascending order; all but possibly the last met
  // the SLO (the sweep stops after the first failure).
  for (std::size_t i = 0; i + 1 < result.points.size(); ++i) {
    EXPECT_TRUE(result.points[i].outcome.meets_slo);
  }
  EXPECT_GT(result.goodput_rps, 0.0);
  EXPECT_LT(result.points.size(), 5u);  // 40 req/s is past capacity.
  ASSERT_TRUE(result.at_goodput.has_value());
  EXPECT_TRUE(result.at_goodput->meets_slo);
}

TEST_F(HarnessTest, SweepNormalizesTraceDuration) {
  // At a high rate the sweep truncates the trace to ~90 s of load
  // rather than compressing all requests into a short burst.
  const workload::Trace base =
      workload::GenerateTrace(workload::Dataset::kShareGpt, 2000, 1.0, 306);
  const GoodputResult result = SweepGoodput(
      EngineKind::kMuxWise, Llama70bA100(), base, {10.0}, estimator_);
  ASSERT_EQ(result.points.size(), 1u);
  const RunOutcome& o = result.points[0].outcome;
  // ~10 req/s * 90 s = ~900 requests offered, not all 2000.
  EXPECT_LE(o.total, 950u);
  EXPECT_GE(o.total, 850u);
}

TEST_F(HarnessTest, DeterministicAcrossCalls) {
  const workload::Trace trace = workload::GenerateTrace(
      workload::Dataset::kConversation, 40, 1.0, 307);
  const RunOutcome a = RunWorkload(EngineKind::kLoongServe, Llama70bA100(),
                                   trace, estimator_);
  const RunOutcome b = RunWorkload(EngineKind::kLoongServe, Llama70bA100(),
                                   trace, estimator_);
  EXPECT_DOUBLE_EQ(a.ttft.p99_ms, b.ttft.p99_ms);
  EXPECT_DOUBLE_EQ(a.tbt.p99_ms, b.tbt.p99_ms);
}

TEST(OutcomeDigestTest, EveryFormerlyGatedFieldReachesTheDigest) {
  // A plain single-replica run: fault-free, all-standard traffic, no
  // overload control, no fleet, no sketch overflow.
  RunOutcome plain;
  plain.engine = "MuxWise";
  plain.total = 10;
  plain.completed = 10;
  plain.split.attained = 10;
  plain.per_class[workload::SloClassRank(workload::SloClass::kStandard)]
      .split.attained = 10;
  plain.partition.decisions = 1;
  plain.partition.decode_sms_histogram[54] = 1;
  plain.event_digest = 0x1234;
  plain.executed_events = 99;
  const std::uint64_t base = OutcomeDigest(plain);

  struct Edit {
    const char* field;
    void (*apply)(RunOutcome&);
  };
  const Edit edits[] = {
      {"split",
       [](RunOutcome& o) {
         --o.split.attained;
         ++o.split.timed_out;
       }},
      {"per_class",
       [](RunOutcome& o) {
         ++o.per_class[workload::SloClassRank(workload::SloClass::kBatch)]
               .split.shed;
       }},
      {"kv_spills", [](RunOutcome& o) { ++o.kv_spills; }},
      {"fleet.failovers", [](RunOutcome& o) { ++o.fleet.failovers; }},
      {"metrics_state_digest",
       [](RunOutcome& o) { o.metrics_state_digest ^= 1; }},
      {"partition histogram",
       [](RunOutcome& o) {
         --o.partition.decode_sms_histogram[54];
         ++o.partition.decode_sms_histogram[60];
       }},
  };
  for (const Edit& edit : edits) {
    RunOutcome changed = plain;
    edit.apply(changed);
    EXPECT_NE(OutcomeDigest(changed), base) << edit.field;
  }
}

/** A synthetic outcome that passes every CheckRun property. */
RunOutcome BalancedOutcome() {
  RunOutcome o;
  o.total = 10;
  o.completed = 10;
  o.split.attained = 8;
  o.split.shed = 2;
  o.event_digest = 0x1234;
  o.executed_events = 99;
  return o;
}

TEST(CheckRunTest, BalancedStableRunPassesAndMatchingRerunPasses) {
  const RunOutcome o = BalancedOutcome();
  EXPECT_TRUE(CheckRun(o).ok());
  EXPECT_TRUE(CheckRun(o, [&o] { return o; }).ok());
}

TEST(CheckRunTest, UnstableRunNamesItsReasonAndSkipsTheRerun) {
  RunOutcome o = BalancedOutcome();
  o.stable = false;
  bool reran = false;
  RunCheck check = CheckRun(o, [&] {
    reran = true;
    return o;
  });
  ASSERT_EQ(check.failures.size(), 1u);
  EXPECT_EQ(check.failures[0],
            "unstable: drained only after the drain horizon");
  EXPECT_FALSE(reran);

  o.diagnostic = "event budget exhausted";
  check = CheckRun(o);
  ASSERT_EQ(check.failures.size(), 1u);
  EXPECT_EQ(check.failures[0], "unstable: event budget exhausted");
}

TEST(CheckRunTest, UnbalancedLedgerFails) {
  RunOutcome o = BalancedOutcome();
  o.split.failed = 1;  // 11 terminal states for 10 requests.
  const RunCheck check = CheckRun(o);
  ASSERT_EQ(check.failures.size(), 1u);
  EXPECT_NE(check.failures[0].find("terminal ledger unbalanced"),
            std::string::npos)
      << check.failures[0];
}

TEST(CheckRunTest, DivergentRerunFails) {
  const RunOutcome o = BalancedOutcome();
  RunOutcome other = o;
  other.executed_events = 100;
  const RunCheck check = CheckRun(o, [&other] { return other; });
  ASSERT_EQ(check.failures.size(), 1u);
  EXPECT_NE(check.failures[0].find("double run diverged"), std::string::npos)
      << check.failures[0];
}

TEST(CheckRunTest, SketchMustAgreeWithTheExactSubsample) {
  RunOutcome o = BalancedOutcome();
  for (int i = 1; i <= 100; ++i) o.ttft_subsample_ms.push_back(i);
  o.ttft.p50_ms = 50.5 * 1.04;  // Within the 5% p50 tolerance.
  o.ttft.p99_ms = 99.01;
  RunCheck check = CheckRun(o);
  EXPECT_TRUE(check.ok());
  EXPECT_DOUBLE_EQ(check.ttft_p50_exact_ms, 50.5);
  EXPECT_DOUBLE_EQ(check.ttft_p99_exact_ms, 99.01);

  o.ttft.p99_ms = 99.01 * 1.11;  // Past the 10% p99 tolerance.
  check = CheckRun(o);
  ASSERT_EQ(check.failures.size(), 1u);
  EXPECT_EQ(check.failures[0].rfind("p99 accuracy", 0), 0u)
      << check.failures[0];
}

}  // namespace
}  // namespace muxwise::harness
