#include "harness/scenario.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "gpu/gpu_spec.h"
#include "harness/runner.h"
#include "harness/streaming.h"
#include "llm/model_config.h"
#include "serve/deployment.h"
#include "workload/datasets.h"

namespace muxwise::harness {
namespace {

std::string RepoPath(const std::string& relative) {
  return std::string(MUXWISE_SOURCE_DIR) + "/" + relative;
}

serve::Deployment Llama70bA100() {
  return serve::Deployment::Make(llm::ModelConfig::Llama70B(),
                                 gpu::GpuSpec::A100());
}

TEST(ScenarioDslTest, AcceptanceScenarioMatchesHandCodedRun) {
  // The DSL path (parse -> build deployment/trace -> run) must be
  // bit-identical to assembling the same scenario in C++ by hand.
  ScenarioParseResult parsed =
      LoadScenarioFile(RepoPath("scenarios/acceptance_sharegpt.json"));
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const RunOutcome dsl = RunScenario(*parsed.spec);

  const serve::Deployment deployment = Llama70bA100();
  const core::ContentionEstimator estimator =
      core::ContentionEstimator::BuildOffline(deployment);
  const workload::Trace trace =
      workload::GenerateTrace(workload::Dataset::kShareGpt, 30, 2.0, 901);
  const RunOutcome hand =
      RunWorkload(EngineKind::kMuxWise, deployment, trace, &estimator);

  EXPECT_EQ(OutcomeDigest(dsl), OutcomeDigest(hand));
  EXPECT_EQ(dsl.completed, hand.completed);
  EXPECT_EQ(dsl.stable, hand.stable);
}

TEST(ScenarioDslTest, MmppScenarioMatchesHandCodedRun) {
  ScenarioParseResult parsed =
      LoadScenarioFile(RepoPath("scenarios/overload_mmpp_burst.json"));
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  ASSERT_TRUE(parsed.spec->mmpp.has_value());
  const RunOutcome dsl = RunScenario(*parsed.spec);

  const serve::Deployment deployment = Llama70bA100();
  const core::ContentionEstimator estimator =
      core::ContentionEstimator::BuildOffline(deployment);
  const workload::Trace trace =
      workload::GenerateMmppTrace(*parsed.spec->mmpp, parsed.spec->mmpp_seed);
  RunConfig config;
  config.overload = parsed.spec->config.overload;
  const RunOutcome hand =
      RunWorkload(EngineKind::kMuxWise, deployment, trace, &estimator, config);

  EXPECT_EQ(OutcomeDigest(dsl), OutcomeDigest(hand));
}

TEST(ScenarioDslTest, EveryCheckedInScenarioParses) {
  std::size_t seen = 0;
  for (const std::string dir : {"scenarios", "scenarios/nightly"}) {
    for (const auto& entry :
         std::filesystem::directory_iterator(RepoPath(dir))) {
      if (entry.path().extension() != ".json") continue;
      ++seen;
      const ScenarioParseResult parsed =
          LoadScenarioFile(entry.path().string());
      EXPECT_TRUE(parsed.ok())
          << entry.path().string() << ": " << parsed.error;
    }
  }
  EXPECT_GE(seen, 8u);  // 6 matrix scenarios + 2 nightly streaming ones.
}

TEST(ScenarioDslTest, StreamingSmokeIsDeterministicAndAccurate) {
  const std::string text = R"json({
    "name": "stream-smoke",
    "engine": "muxwise",
    "deployment": {"model": "Llama-70B", "gpu": "A100", "num_gpus": 8},
    "trace": {
      "streaming": {
        "requests": 5000,
        "rate_per_second": 50.0,
        "seed": 9,
        "exact_subsample_period": 10
      }
    }
  })json";
  ScenarioParseResult parsed = ParseScenarioJson(text, "inline");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  ASSERT_TRUE(parsed.spec->IsStreaming());

  const StreamingOutcome first = RunStreamingScenario(*parsed.spec);
  EXPECT_TRUE(first.stable) << first.diagnostic;
  EXPECT_EQ(first.completed, 5000u);
  EXPECT_FALSE(first.ttft_subsample_ms.empty());

  // The 1-in-10 exact subsample and the sketch describe the same
  // population, so their medians must agree to sketch accuracy.
  std::vector<double> subsample = first.ttft_subsample_ms;
  std::sort(subsample.begin(), subsample.end());
  const double exact_p50 = serve::PercentileSorted(subsample, 0.5);
  const double sketch_p50 = first.ttft_sketch.Quantile(0.5);
  EXPECT_NEAR(sketch_p50, exact_p50, exact_p50 * 0.10);

  const StreamingOutcome second = RunStreamingScenario(*parsed.spec);
  EXPECT_EQ(first.event_digest, second.event_digest);
  EXPECT_EQ(first.metrics_state_digest, second.metrics_state_digest);
}

TEST(ScenarioDslTest, RejectsUnknownKeysWithQualifiedPath) {
  const ScenarioParseResult parsed = ParseScenarioJson(
      R"({"name": "x", "engine": "muxwise",
          "trace": {"mix": [{"dataset": "sharegpt", "requests": 1,
                             "rate_per_second": 1.0, "tpyo": 3}]}})",
      "inline");
  EXPECT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error.find("trace.mix"), std::string::npos)
      << parsed.error;
  EXPECT_NE(parsed.error.find("tpyo"), std::string::npos) << parsed.error;
}

TEST(ScenarioDslTest, RejectsMissingName) {
  const ScenarioParseResult parsed = ParseScenarioJson(
      R"({"engine": "muxwise",
          "trace": {"mix": [{"dataset": "sharegpt", "requests": 1,
                             "rate_per_second": 1.0}]}})",
      "inline");
  EXPECT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error.find("name"), std::string::npos) << parsed.error;
}

TEST(ScenarioDslTest, RejectsTwoTraceShapes) {
  const ScenarioParseResult parsed = ParseScenarioJson(
      R"({"name": "x",
          "trace": {
            "mix": [{"dataset": "sharegpt", "requests": 1,
                     "rate_per_second": 1.0}],
            "streaming": {"requests": 10, "rate_per_second": 1.0}}})",
      "inline");
  EXPECT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error.find("exactly one"), std::string::npos)
      << parsed.error;
}

TEST(ScenarioDslTest, RejectsUnknownEngine) {
  const ScenarioParseResult parsed = ParseScenarioJson(
      R"({"name": "x", "engine": "warp-drive",
          "trace": {"mix": [{"dataset": "sharegpt", "requests": 1,
                             "rate_per_second": 1.0}]}})",
      "inline");
  EXPECT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error.find("engine"), std::string::npos) << parsed.error;
}

TEST(ScenarioDslTest, RejectsMalformedJsonWithSourceLabel) {
  const ScenarioParseResult parsed =
      ParseScenarioJson("{\"name\": ", "broken.json");
  EXPECT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error.find("broken.json"), std::string::npos)
      << parsed.error;
}

// ---------------------------------------------------------------------------
// Grey-failure surface: fleet health knobs and fault arrays are parsed
// strictly — every rejection names the qualified path, so a typo in a
// chaos repro fails loudly instead of silently running a softer plan.
// ---------------------------------------------------------------------------

std::string WithFleet(const std::string& fleet_body) {
  return R"({"name": "x",
             "trace": {"mix": [{"dataset": "sharegpt", "requests": 1,
                                "rate_per_second": 1.0}]},
             "fleet": {"enabled": true, )" +
         fleet_body + "}}";
}

std::string WithFaults(const std::string& faults_body) {
  return R"({"name": "x",
             "trace": {"mix": [{"dataset": "sharegpt", "requests": 1,
                                "rate_per_second": 1.0}]},
             "faults": {)" +
         faults_body + "}}";
}

void ExpectRejects(const std::string& text, const std::string& path_needle,
                   const std::string& reason_needle) {
  const ScenarioParseResult parsed = ParseScenarioJson(text, "inline");
  EXPECT_FALSE(parsed.ok()) << "parsed despite: " << reason_needle;
  EXPECT_NE(parsed.error.find(path_needle), std::string::npos)
      << parsed.error;
  EXPECT_NE(parsed.error.find(reason_needle), std::string::npos)
      << parsed.error;
}

TEST(ScenarioDslTest, RejectsNonPositiveHeartbeat) {
  ExpectRejects(WithFleet(R"("heartbeat_ms": 0)"), "fleet.heartbeat_ms",
                "must be > 0");
}

TEST(ScenarioDslTest, RejectsDownThresholdBelowSuspect) {
  ExpectRejects(
      WithFleet(R"("suspect_after_misses": 3, "down_after_misses": 2)"),
      "fleet.down_after_misses", "must be >= suspect_after_misses");
}

TEST(ScenarioDslTest, RejectsZeroSuspectExitBeats) {
  ExpectRejects(WithFleet(R"("suspect_exit_beats": 0)"),
                "fleet.suspect_exit_beats", "must be >= 1");
}

TEST(ScenarioDslTest, RejectsZombieDownBelowZombieAfter) {
  ExpectRejects(
      WithFleet(R"("zombie_after_beats": 4, "zombie_down_beats": 2)"),
      "fleet.zombie_down_beats", "must be >= zombie_after_beats");
}

TEST(ScenarioDslTest, RejectsUnknownFleetHealthKey) {
  ExpectRejects(WithFleet(R"("heartbeta_ms": 250)"), "fleet",
                "heartbeta_ms");
}

TEST(ScenarioDslTest, RejectsEmptyZombieWindow) {
  ExpectRejects(
      WithFaults(
          R"("zombies": [{"instance": 0, "from_seconds": 5, "to_seconds": 5}])"),
      "faults.zombies[0]", "from < to");
}

TEST(ScenarioDslTest, RejectsFlapWithUnitDutyCycle) {
  // duty_up == 1.0 never goes down (a no-op masquerading as a fault).
  ExpectRejects(
      WithFaults(
          R"("flaps": [{"instance": 0, "from_seconds": 1, "to_seconds": 5,
                        "period_seconds": 1.0, "duty_up": 1.0}])"),
      "faults.flaps[0]", "duty_up");
}

TEST(ScenarioDslTest, RejectsFlapWithZeroPeriod) {
  ExpectRejects(
      WithFaults(
          R"("flaps": [{"instance": 0, "from_seconds": 1, "to_seconds": 5,
                        "period_seconds": 0.0, "duty_up": 0.5}])"),
      "faults.flaps[0]", "period > 0");
}

TEST(ScenarioDslTest, RejectsDegradeFactorAboveOne) {
  ExpectRejects(
      WithFaults(
          R"("degrades": [{"instance": 0, "from_seconds": 1,
                           "to_seconds": 5, "flops_factor": 1.5}])"),
      "faults.degrades[0]", "factors in (0, 1]");
}

TEST(ScenarioDslTest, RejectsLinkDegradeWithFlopsFactor) {
  // A link has no FLOPs; only its bandwidth can degrade.
  ExpectRejects(
      WithFaults(
          R"("degrades": [{"link": true, "from_seconds": 1,
                           "to_seconds": 5, "flops_factor": 0.5,
                           "bandwidth_factor": 0.5}])"),
      "faults.degrades[0]", "link degrade cannot carry a flops_factor");
}

TEST(ScenarioDslTest, RejectsPartitionDroppingBothDirections) {
  ExpectRejects(
      WithFaults(
          R"("partitions": [{"instance": 0, "from_seconds": 1,
                             "to_seconds": 5, "drop_to_replica": true,
                             "drop_from_replica": true}])"),
      "faults.partitions[0]", "dropping both directions is a crash");
}

TEST(ScenarioDslTest, RejectsPartitionDroppingNeitherDirection) {
  ExpectRejects(
      WithFaults(
          R"("partitions": [{"instance": 0, "from_seconds": 1,
                             "to_seconds": 5}])"),
      "faults.partitions[0]", "must drop at least one direction");
}

TEST(ScenarioDslTest, RejectsUnknownFaultEntryKey) {
  ExpectRejects(
      WithFaults(
          R"("zombies": [{"instance": 0, "from_seconds": 1,
                          "til_seconds": 5}])"),
      "faults.zombies[0]", "til_seconds");
}

TEST(ScenarioDslTest, AcceptsAFullGreyFaultBlock) {
  const ScenarioParseResult parsed = ParseScenarioJson(
      WithFaults(
          R"("seed": 7,
             "zombies": [{"instance": 1, "from_seconds": 2,
                          "to_seconds": 4}],
             "flaps": [{"link": true, "from_seconds": 1, "to_seconds": 3,
                        "period_seconds": 0.5, "duty_up": 0.5}],
             "degrades": [{"instance": 0, "from_seconds": 5,
                           "to_seconds": 6, "flops_factor": 0.8,
                           "bandwidth_factor": 0.9}],
             "partitions": [{"instance": 2, "from_seconds": 7,
                             "to_seconds": 8, "drop_from_replica": true}])"),
      "inline");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  ASSERT_TRUE(parsed.spec->config.fault_plan.has_value());
  const fault::FaultPlan& plan = *parsed.spec->config.fault_plan;
  EXPECT_EQ(plan.seed, 7u);
  ASSERT_EQ(plan.zombies.size(), 1u);
  ASSERT_EQ(plan.flaps.size(), 1u);
  EXPECT_TRUE(plan.flaps[0].link);
  ASSERT_EQ(plan.degrades.size(), 1u);
  ASSERT_EQ(plan.partitions.size(), 1u);
  EXPECT_TRUE(plan.partitions[0].drop_from_replica);
  EXPECT_EQ(plan.Check(), "");
}

}  // namespace
}  // namespace muxwise::harness
