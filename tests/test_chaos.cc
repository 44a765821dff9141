#include <gtest/gtest.h>

#include <string>

#include "fault/fault_plan.h"
#include "frozen_digests.h"
#include "gpu/gpu_spec.h"
#include "harness/runner.h"
#include "llm/model_config.h"
#include "serve/deployment.h"
#include "sim/time.h"
#include "workload/datasets.h"

namespace muxwise::harness {
namespace {

/**
 * The acceptance chaos scenario (ISSUE 2): an instance crash at t=30 s
 * recovering at t=45 s, a 1% transfer-loss window across the run, and
 * one straggler window — against every engine in the repository. Every
 * engine must terminate with every request terminally accounted, zero
 * invariant violations (RunWorkload aborts on any), and bit-identical
 * reruns.
 */
serve::Deployment Llama70bA100() {
  return serve::Deployment::Make(llm::ModelConfig::Llama70B(),
                                 gpu::GpuSpec::A100());
}

fault::FaultPlan ChaosPlan() {
  fault::FaultPlan plan;
  plan.Crash(0, sim::Seconds(30), sim::Seconds(45))
      .DropTransfers(sim::Seconds(10), sim::Seconds(70), 0.01)
      .Straggle(1, sim::Seconds(50), sim::Seconds(60), 2.0);
  return plan;
}

class ChaosTest : public ::testing::TestWithParam<EngineKind> {
 protected:
  static void SetUpTestSuite() {
    estimator_ = new core::ContentionEstimator(
        core::ContentionEstimator::BuildOffline(Llama70bA100()));
    trace_ = new workload::Trace(
        workload::GenerateTrace(workload::Dataset::kShareGpt, 80, 1.0, 777));
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

core::ContentionEstimator* ChaosTest::estimator_ = nullptr;
workload::Trace* ChaosTest::trace_ = nullptr;

TEST_P(ChaosTest, EveryRequestTerminallyAccountedUnderChaos) {
  RunConfig config;
  config.fault_plan = ChaosPlan();
  const RunOutcome o =
      RunWorkload(GetParam(), Llama70bA100(), *trace_, estimator_, config);
  // RunWorkload already aborted if any invariant audit failed.
  EXPECT_TRUE(o.diagnostic.empty()) << o.diagnostic;
  EXPECT_EQ(o.completed, o.total);  // Every request notified terminal.
  EXPECT_EQ(o.split.total(), o.total);
  EXPECT_GT(o.split.attained, 0u);  // Chaos degrades, not destroys.
}

TEST_P(ChaosTest, ChaosRunsAreBitReproducible) {
  RunConfig config;
  config.fault_plan = ChaosPlan();
  const DeterminismReport report = VerifyDeterminism(
      GetParam(), Llama70bA100(), *trace_, estimator_, config);
  EXPECT_TRUE(report.deterministic) << report.mismatch;
}

TEST_P(ChaosTest, DisabledFaultsLeaveOutcomeIdenticalToBaseline) {
  // A default RunConfig (no plan, recovery disabled) must produce the
  // same digest as one carrying recovery knobs that stay disabled —
  // the fault machinery is inert unless switched on.
  RunConfig baseline;
  RunConfig knobs;
  knobs.recovery.max_crash_retries = 7;
  knobs.recovery.shed_demand_factor = 9.0;
  const RunOutcome a =
      RunWorkload(GetParam(), Llama70bA100(), *trace_, estimator_, baseline);
  const RunOutcome b =
      RunWorkload(GetParam(), Llama70bA100(), *trace_, estimator_, knobs);
  EXPECT_EQ(OutcomeDigest(a), OutcomeDigest(b));
  EXPECT_EQ(a.event_digest, b.event_digest);
  EXPECT_EQ(a.split.timed_out + a.split.shed + a.split.failed, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, ChaosTest,
    ::testing::Values(EngineKind::kMuxWise, EngineKind::kChunked,
                      EngineKind::kNanoFlow, EngineKind::kSglangPd,
                      EngineKind::kLoongServe, EngineKind::kWindServe,
                      EngineKind::kTemporal),
    [](const ::testing::TestParamInfo<EngineKind>& info) {
      switch (info.param) {
        case EngineKind::kMuxWise:
          return "MuxWise";
        case EngineKind::kChunked:
          return "Chunked";
        case EngineKind::kNanoFlow:
          return "NanoFlow";
        case EngineKind::kSglangPd:
          return "SglangPd";
        case EngineKind::kLoongServe:
          return "LoongServe";
        case EngineKind::kWindServe:
          return "WindServe";
        case EngineKind::kTemporal:
          return "Temporal";
      }
      return "Unknown";
    });

// --- Fault-path digests, pinned before the ledger refactor. ---
//
// Shedding, deadline reaping and crash retry are one triage for every
// engine; this table pins each engine's outcome on a shape that walks
// all of them, so moving the triage between layers cannot move a
// single event. The split counts are asserted too, so the shape cannot
// silently stop covering a path.
TEST(ChaosFaultPathTest, EveryEngineFaultPathMatchesPinnedDigests) {
  const serve::Deployment deployment = tests::FrozenDeployment();
  const core::ContentionEstimator estimator =
      core::ContentionEstimator::BuildOffline(deployment);
  const workload::Trace trace = tests::FaultPathTrace();
  for (const tests::FaultPathDigest& expect : tests::kFaultPathDigests) {
    const RunOutcome o =
        RunWorkload(expect.kind, deployment, trace, &estimator,
                    tests::FaultPathConfig(expect.overload));
    const std::string label = std::string(EngineKindName(expect.kind)) +
                              (expect.overload ? " +overload" : "");
    EXPECT_TRUE(o.stable) << label;
    EXPECT_TRUE(o.diagnostic.empty()) << label << ": " << o.diagnostic;
    EXPECT_EQ(o.split.total(), o.total) << label;
    EXPECT_GT(o.split.attained, 0u) << label;
    EXPECT_GT(o.split.timed_out, 0u) << label;
    EXPECT_GT(o.split.shed, 0u) << label;
    EXPECT_GT(o.split.failed, 0u) << label;
    if (expect.overload) {
      EXPECT_GT(o.overload_mode_transitions, 0u) << label;
    }
    EXPECT_EQ(o.event_digest, expect.event_digest) << label;
    EXPECT_EQ(o.executed_events, expect.executed_events) << label;
    EXPECT_EQ(OutcomeDigest(o), expect.outcome_digest) << label;
    EXPECT_EQ(SimulatedDigest(o), expect.simulated_digest) << label;
  }
}

}  // namespace
}  // namespace muxwise::harness
