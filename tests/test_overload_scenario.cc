#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>

#include "fault/fault_plan.h"
#include "frozen_digests.h"
#include "gpu/gpu_spec.h"
#include "harness/runner.h"
#include "llm/model_config.h"
#include "overload/controller.h"
#include "serve/deployment.h"
#include "sim/hash.h"
#include "sim/time.h"
#include "workload/datasets.h"
#include "workload/slo.h"

namespace muxwise::harness {
namespace {

using workload::SloClass;

serve::Deployment Llama70bA100() {
  return serve::Deployment::Make(llm::ModelConfig::Llama70B(),
                                 gpu::GpuSpec::A100());
}

/**
 * The acceptance burst (ISSUE 5): a Markov-modulated ShareGPT trace
 * whose burst phases run at 4x the calm arrival rate, with a
 * 20/50/30 interactive/standard/batch mix.
 */
workload::Trace BurstTrace(double burst_multiplier) {
  workload::MmppOptions options;
  options.dataset = workload::Dataset::kShareGpt;
  options.calm_rate_per_second = 10.0;
  options.burst_multiplier = burst_multiplier;
  options.mean_calm_seconds = 15.0;
  options.mean_burst_seconds = 10.0;
  options.duration_seconds = 120.0;
  options.class_mix = {0.2, 0.5, 0.3};
  return GenerateMmppTrace(options, 20250);
}

/** Recovery deadlines on in every run, so both sides of the
 * control-on/off comparison reap hopeless work identically. */
RunConfig BurstConfig(bool control) {
  RunConfig config;
  config.recovery.enabled = true;
  config.overload.enabled = control;
  return config;
}

/** Goodput as the paper counts it: completions that met their TTFT
 * target, summed over the SLO classes. */
std::size_t SloGoodput(const RunOutcome& outcome) {
  std::size_t attained = 0;
  for (const serve::ClassMetrics& slice : outcome.per_class) {
    attained += slice.TtftAttained();
  }
  return attained;
}

class OverloadScenarioTest : public ::testing::Test {
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

core::ContentionEstimator* OverloadScenarioTest::estimator_ = nullptr;

TEST_F(OverloadScenarioTest, ControlRaisesGoodputUnderFourXBurst) {
  const workload::Trace trace = BurstTrace(4.0);
  const RunOutcome off = RunWorkload(EngineKind::kMuxWise, Llama70bA100(),
                                     trace, estimator_, BurstConfig(false));
  const RunOutcome on = RunWorkload(EngineKind::kMuxWise, Llama70bA100(),
                                    trace, estimator_, BurstConfig(true));
  ASSERT_TRUE(off.diagnostic.empty()) << off.diagnostic;
  ASSERT_TRUE(on.diagnostic.empty()) << on.diagnostic;
  EXPECT_EQ(off.overload_mode_transitions, 0u);
  EXPECT_GT(on.overload_mode_transitions, 0u);

  // Strictly higher SLO-attained goodput with the controller on.
  EXPECT_GT(SloGoodput(on), SloGoodput(off));

  // Interactive degrades last: attainment ordered by class priority.
  const auto& interactive =
      on.per_class[workload::SloClassRank(SloClass::kInteractive)];
  const auto& standard =
      on.per_class[workload::SloClassRank(SloClass::kStandard)];
  const auto& batch =
      on.per_class[workload::SloClassRank(SloClass::kBatch)];
  ASSERT_GT(interactive.split.total(), 0u);
  ASSERT_GT(standard.split.total(), 0u);
  ASSERT_GT(batch.split.total(), 0u);
  EXPECT_GE(interactive.Attainment(), standard.Attainment());
  EXPECT_GE(standard.Attainment(), batch.Attainment());

  // Every request is terminally accounted on both sides.
  EXPECT_EQ(off.split.total(), off.total);
  EXPECT_EQ(on.split.total(), on.total);
}

TEST_F(OverloadScenarioTest, BurstRunsAreBitReproducible) {
  const workload::Trace trace = BurstTrace(4.0);
  for (const bool control : {false, true}) {
    const DeterminismReport report =
        VerifyDeterminism(EngineKind::kMuxWise, Llama70bA100(), trace,
                          estimator_, BurstConfig(control));
    EXPECT_TRUE(report.deterministic)
        << "control=" << control << ": " << report.mismatch;
  }
}

TEST_F(OverloadScenarioTest, KvPressurePreemptionSpillsAndRestores) {
  // Standard-class LooGLE prompts are long, so their prefills hold the
  // pool while interactive ShareGPT heads arrive: KV pressure pauses
  // the batch and evicts victims whose recompute is expensive enough to
  // take the spill path. A small pool (high reserved headroom) makes
  // that pressure reachable within the 90 s trace. The run must finish
  // with the spill ledger balanced (RunWorkload aborts on any invariant
  // violation, including the decode-safe-preemption and spill-ledger
  // audits).
  workload::MmppOptions loogle;
  loogle.dataset = workload::Dataset::kLoogle;
  loogle.calm_rate_per_second = 1.0;
  loogle.burst_multiplier = 4.0;
  loogle.mean_calm_seconds = 12.0;
  loogle.mean_burst_seconds = 12.0;
  loogle.duration_seconds = 90.0;
  loogle.class_mix = {0.0, 0.8, 0.2};
  workload::MmppOptions sharegpt;
  sharegpt.dataset = workload::Dataset::kShareGpt;
  sharegpt.calm_rate_per_second = 6.0;
  sharegpt.burst_multiplier = 4.0;
  sharegpt.mean_calm_seconds = 12.0;
  sharegpt.mean_burst_seconds = 12.0;
  sharegpt.duration_seconds = 90.0;
  sharegpt.class_mix = {0.8, 0.2, 0.0};
  const workload::Trace trace = workload::MergeTraces(
      "spill-mix", {GenerateMmppTrace(loogle, 4407),
                    GenerateMmppTrace(sharegpt, 4408)});

  serve::Deployment deployment = Llama70bA100();
  deployment.memory_headroom = 0.65;
  const core::ContentionEstimator estimator =
      core::ContentionEstimator::BuildOffline(deployment);
  RunConfig config = BurstConfig(true);
  const RunOutcome outcome = RunWorkload(EngineKind::kMuxWise, deployment,
                                         trace, &estimator, config);
  ASSERT_TRUE(outcome.diagnostic.empty()) << outcome.diagnostic;
  EXPECT_GT(outcome.kv_spills, 0u);
  EXPECT_EQ(outcome.kv_restores, outcome.kv_spills);
  EXPECT_EQ(outcome.split.total(), outcome.total);
  const tests::PinnedRun& pinned = tests::kKvPressurePreemptionDigest;
  EXPECT_EQ(outcome.event_digest, pinned.event_digest);
  EXPECT_EQ(outcome.executed_events, pinned.executed_events);
  EXPECT_EQ(OutcomeDigest(outcome), pinned.outcome_digest);
  EXPECT_EQ(SimulatedDigest(outcome), pinned.simulated_digest);
}

TEST_F(OverloadScenarioTest, BurstComposesWithGpuCrash) {
  // ISSUE 5 chaos composition: the 4x burst plus a PR-2 instance crash
  // in one scenario. Terminal accounting and bit-reproducibility must
  // survive the interaction of spill/restore with epoch bumps.
  const workload::Trace trace = BurstTrace(4.0);
  RunConfig config = BurstConfig(true);
  fault::FaultPlan plan;
  plan.Crash(0, sim::Seconds(30), sim::Seconds(45));
  config.fault_plan = plan;

  const RunOutcome outcome = RunWorkload(
      EngineKind::kMuxWise, Llama70bA100(), trace, estimator_, config);
  EXPECT_TRUE(outcome.diagnostic.empty()) << outcome.diagnostic;
  EXPECT_EQ(outcome.split.total(), outcome.total);
  EXPECT_GT(outcome.split.attained, 0u);

  const DeterminismReport report = VerifyDeterminism(
      EngineKind::kMuxWise, Llama70bA100(), trace, estimator_, config);
  EXPECT_TRUE(report.deterministic) << report.mismatch;
}

/**
 * Zero-behaviour-change gate: a config carrying every overload knob
 * with `enabled == false` must reproduce the default config's digests
 * exactly, on all seven engines.
 */
class OverloadDisabledTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(OverloadDisabledTest, DisabledKnobsLeaveDigestsIdentical) {
  const serve::Deployment deployment = Llama70bA100();
  const core::ContentionEstimator estimator =
      core::ContentionEstimator::BuildOffline(deployment);
  const workload::Trace trace =
      workload::GenerateTrace(workload::Dataset::kShareGpt, 60, 1.0, 999);

  RunConfig baseline;
  RunConfig knobs;
  knobs.overload.enabled = false;
  knobs.overload.max_queue_per_class = 1;
  knobs.overload.bucket_rate_tokens_per_s = {1.0, 1.0, 1.0};
  knobs.overload.pressure_occupancy = 0.01;
  const RunOutcome a =
      RunWorkload(GetParam(), deployment, trace, &estimator, baseline);
  const RunOutcome b =
      RunWorkload(GetParam(), deployment, trace, &estimator, knobs);
  EXPECT_EQ(a.event_digest, b.event_digest);
  EXPECT_EQ(a.executed_events, b.executed_events);
  EXPECT_EQ(OutcomeDigest(a), OutcomeDigest(b));
  EXPECT_EQ(b.overload_mode_transitions, 0u);
  EXPECT_EQ(b.kv_spills, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, OverloadDisabledTest,
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


/**
 * Overload goodput sweep: a Markov-modulated ShareGPT burst at
 * 1x/2x/4x the calm arrival rate, replayed on MuxWise with overload
 * control on and off, on chunked-prefill, and on static disaggregation.
 * The digest folds each run's event digest and its SLO-attained
 * goodput, so a control regression (fewer TTFT-attained completions)
 * shows up as a digest change even when raw event counts hold steady.
 */
tests::DriverDigest DriveOverloadGoodput(double duration_seconds) {
  static const serve::Deployment deployment = serve::Deployment::Make(
      llm::ModelConfig::Llama70B(), gpu::GpuSpec::A100());
  static const core::ContentionEstimator estimator =
      core::ContentionEstimator::BuildOffline(deployment);

  tests::DriverDigest run{0, 0x452821e638d01377ULL};
  for (const double multiplier : {1.0, 2.0, 4.0}) {
    workload::MmppOptions options;
    options.dataset = workload::Dataset::kShareGpt;
    options.calm_rate_per_second = 10.0;
    options.burst_multiplier = multiplier;
    options.mean_calm_seconds = 15.0;
    options.mean_burst_seconds = 10.0;
    options.duration_seconds = duration_seconds;
    options.class_mix = {0.2, 0.5, 0.3};
    const workload::Trace trace = GenerateMmppTrace(options, 20250);

    struct Arm {
      EngineKind kind;
      bool control;
    };
    constexpr Arm kArms[] = {
        {EngineKind::kMuxWise, true},
        {EngineKind::kMuxWise, false},
        {EngineKind::kChunked, false},
        {EngineKind::kSglangPd, false},
    };
    for (const Arm& arm : kArms) {
      RunConfig config;
      config.recovery.enabled = true;
      config.overload.enabled = arm.control;
      const RunOutcome outcome =
          RunWorkload(arm.kind, deployment, trace, &estimator, config);
      std::uint64_t goodput = 0;
      for (const serve::ClassMetrics& slice : outcome.per_class) {
        goodput += slice.TtftAttained();
      }
      if (outcome.per_class.empty()) goodput = outcome.split.attained;
      run.events += outcome.executed_events;
      run.digest = sim::MixDigest(run.digest, outcome.event_digest);
      run.digest = sim::MixDigest(run.digest, goodput);
    }
  }
  return run;
}

TEST(OverloadGoodputTest, SweepMatchesItsPinnedDigest) {
  // Run twice: both runs must reproduce the pinned witnesses.
  for (int run = 0; run < 2; ++run) {
    EXPECT_EQ(DriveOverloadGoodput(30.0), tests::kOverloadGoodputDigest)
        << "run " << run;
  }
}

}  // namespace
}  // namespace muxwise::harness
