#include <gtest/gtest.h>

#include "fault/fault_plan.h"
#include "gpu/gpu_spec.h"
#include "harness/runner.h"
#include "llm/model_config.h"
#include "serve/deployment.h"
#include "sim/time.h"
#include "workload/datasets.h"
#include "workload/slo.h"

namespace muxwise::harness {
namespace {

/**
 * The fleet acceptance chaos scenario (ISSUE 7): one of four replicas
 * killed at t=30 s — never recovering — under a Markov-modulated burst
 * whose burst phases run at 4x the calm arrival rate. The surviving
 * fleet must re-home the dead replica's orphans, keep every request
 * terminally accounted, degrade batch-first, and reproduce the exact
 * event stream on a second run.
 */
serve::Deployment Llama70bA100() {
  return serve::Deployment::Make(llm::ModelConfig::Llama70B(),
                                 gpu::GpuSpec::A100());
}

workload::Trace BurstTrace() {
  workload::MmppOptions options;
  options.dataset = workload::Dataset::kShareGpt;
  options.calm_rate_per_second = 2.0;
  options.burst_multiplier = 4.0;
  options.mean_calm_seconds = 15.0;
  options.mean_burst_seconds = 10.0;
  options.duration_seconds = 60.0;
  options.class_mix = {0.3, 0.5, 0.2};
  return GenerateMmppTrace(options, 20260);
}

RunConfig FleetChaosConfig(bool failover) {
  RunConfig config;
  config.fleet.enabled = true;
  config.fleet.replicas = 4;
  config.fleet.failover = failover;
  config.fault_plan = fault::FaultPlan();
  config.fault_plan->Crash(1, sim::Seconds(30));  // Never recovers.
  return config;
}

class FleetChaosTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    estimator_ = new core::ContentionEstimator(
        core::ContentionEstimator::BuildOffline(Llama70bA100()));
    trace_ = new workload::Trace(BurstTrace());
  }
  static void TearDownTestSuite() {
    delete estimator_;
    estimator_ = nullptr;
    delete trace_;
    trace_ = nullptr;
  }
  static core::ContentionEstimator* estimator_;
  static workload::Trace* trace_;
};

core::ContentionEstimator* FleetChaosTest::estimator_ = nullptr;
workload::Trace* FleetChaosTest::trace_ = nullptr;

TEST_F(FleetChaosTest, ReplicaLossUnderBurstKeepsEveryRequestAccounted) {
  const RunOutcome o = RunWorkload(EngineKind::kMuxWise, Llama70bA100(),
                                   *trace_, estimator_,
                                   FleetChaosConfig(/*failover=*/true));
  // RunWorkload already aborted if any invariant audit failed.
  EXPECT_TRUE(o.diagnostic.empty()) << o.diagnostic;
  ASSERT_GT(o.fleet.replicas, 0u);
  EXPECT_EQ(o.split.total(), o.total);  // Nothing stranded, ever.
  EXPECT_EQ(o.fleet.failovers, 1u);
  // The dead replica had work in its queues mid-burst; survivors took
  // it over rather than shedding it.
  EXPECT_GT(o.fleet.rehomed, 0u);
  EXPECT_EQ(o.fleet.rehomed,
            o.fleet.rehome_migrations + o.fleet.rehome_recomputes);
  EXPECT_GT(o.split.attained, 0u);

  // Batch-first degradation: the shrunken fleet sheds batch arrivals
  // while interactive keeps its attainment edge.
  const auto& interactive =
      o.per_class[workload::SloClassRank(workload::SloClass::kInteractive)];
  const auto& batch =
      o.per_class[workload::SloClassRank(workload::SloClass::kBatch)];
  EXPECT_GE(interactive.Attainment(), batch.Attainment());
}

TEST_F(FleetChaosTest, FailoverBeatsSheddingOnFleetGoodput) {
  // The negative twin: identical crash, re-homing disabled. Orphans of
  // the dead replica are shed (still terminally accounted — a fleet
  // must never strand a session), so attained goodput must be strictly
  // worse than the failover run's.
  const RunOutcome with_failover = RunWorkload(
      EngineKind::kMuxWise, Llama70bA100(), *trace_, estimator_,
      FleetChaosConfig(/*failover=*/true));
  const RunOutcome without = RunWorkload(EngineKind::kMuxWise,
                                         Llama70bA100(), *trace_, estimator_,
                                         FleetChaosConfig(/*failover=*/false));
  EXPECT_TRUE(without.diagnostic.empty()) << without.diagnostic;
  EXPECT_EQ(without.split.total(), without.total);
  EXPECT_GT(without.fleet.rehome_shed, 0u);  // Orphans shed, not lost.
  EXPECT_EQ(without.fleet.rehomed, 0u);
  EXPECT_GT(with_failover.split.attained, without.split.attained);
}

TEST_F(FleetChaosTest, FleetChaosRunsAreBitReproducible) {
  const DeterminismReport report =
      VerifyDeterminism(EngineKind::kMuxWise, Llama70bA100(), *trace_,
                        estimator_, FleetChaosConfig(/*failover=*/true));
  EXPECT_TRUE(report.deterministic) << report.mismatch;
}

}  // namespace
}  // namespace muxwise::harness
