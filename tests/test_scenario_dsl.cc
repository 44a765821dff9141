#include "harness/scenario.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "baselines/loongserve.h"
#include "baselines/static_disagg.h"
#include "fault/fault_plan.h"
#include "frozen_digests.h"
#include "gpu/gpu_spec.h"
#include "harness/runner.h"
#include "llm/model_config.h"
#include "serve/deployment.h"
#include "sim/hash.h"
#include "sim/json.h"
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
  EXPECT_GE(seen, 9u);  // 7 matrix scenarios + 2 nightly streaming ones.
}

TEST(ScenarioDslTest, EveryScenarioFileMatchesItsPinnedDigests) {
  std::set<std::string> files;
  for (const std::string dir :
       {"scenarios", "scenarios/nightly", "tests/chaos_corpus"}) {
    for (const auto& entry :
         std::filesystem::directory_iterator(RepoPath(dir))) {
      if (entry.path().extension() != ".json") continue;
      // 10^7 requests: too long for tier-1, so it runs nightly only.
      if (entry.path().filename() == "streaming_1e7.json") continue;
      files.insert(dir + "/" + entry.path().filename().string());
    }
  }
  std::set<std::string> pinned;
  for (const tests::ScenarioFileDigest& row : tests::kScenarioFileDigests) {
    pinned.insert(row.path);
    EXPECT_TRUE(files.count(row.path)) << row.path << ": row without a file";
  }
  for (const std::string& file : files) {
    EXPECT_TRUE(pinned.count(file)) << file << ": file without a row";
  }

  for (const tests::ScenarioFileDigest& row : tests::kScenarioFileDigests) {
    if (!files.count(row.path)) continue;
    SCOPED_TRACE(row.path);
    const ScenarioParseResult parsed = LoadScenarioFile(RepoPath(row.path));
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    const RunOutcome outcome = RunScenario(*parsed.spec);
    EXPECT_EQ(sim::HexDigest(outcome.event_digest),
              sim::HexDigest(row.event_digest));
    EXPECT_EQ(outcome.executed_events, row.executed_events);
    EXPECT_EQ(sim::HexDigest(OutcomeDigest(outcome)),
              sim::HexDigest(row.outcome_digest));
    EXPECT_EQ(sim::HexDigest(SimulatedDigest(outcome)),
              sim::HexDigest(row.simulated_digest));
  }
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

  const RunOutcome first = RunScenario(*parsed.spec);
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

  const RunOutcome second = RunScenario(*parsed.spec);
  const DeterminismReport report = CompareRuns(first, second);
  EXPECT_TRUE(report.deterministic) << report.mismatch;
}

/** A 3000-request stream (~30 s of arrivals) with `extra` appended to
 * the scenario root. */
RunOutcome RunSmallStream(const std::string& extra) {
  const std::string text = R"json({
    "name": "stream-faults",
    "trace": {"streaming": {"requests": 3000, "rate_per_second": 100.0,
                            "seed": 1}},
  )json" + extra + "}";
  ScenarioParseResult parsed = ParseScenarioJson(text, "inline");
  EXPECT_TRUE(parsed.ok()) << parsed.error;
  return parsed.ok() ? RunScenario(*parsed.spec) : RunOutcome();
}

TEST(ScenarioDslTest, StreamingScenarioHonoursItsFaultPlan) {
  // A fault plan turns recovery on, so the fair fault-free twin is the
  // same stream with recovery enabled explicitly: the crash window alone
  // must then move the event stream.
  const RunOutcome plain = RunSmallStream(R"("recovery": {"enabled": true})");
  const RunOutcome crashed = RunSmallStream(R"("faults": {"crashes": [
      {"instance": 0, "at_seconds": 10, "recover_at_seconds": 20}]})");
  ASSERT_TRUE(crashed.diagnostic.empty()) << crashed.diagnostic;
  EXPECT_NE(crashed.event_digest, plain.event_digest);
  EXPECT_EQ(crashed.split.total(), crashed.total);
  EXPECT_EQ(crashed.completed, crashed.total);
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

std::string WithDeployment(const std::string& engine, int num_gpus) {
  return R"({"name": "x", "engine": ")" + engine +
         R"(", "deployment": {"model": "Llama-8B", "gpu": "A100",
                              "num_gpus": )" +
         std::to_string(num_gpus) +
         R"(}, "trace": {"mix": [{"dataset": "sharegpt", "requests": 1,
                                   "rate_per_second": 1.0}]}})";
}

TEST(ScenarioDslTest, RejectsSglangPdWithoutRoomForBothInstances) {
  const int min_gpus = baselines::StaticDisaggEngine::kMinGpus;
  ExpectRejects(WithDeployment("sglang-pd", min_gpus - 1),
                "deployment.num_gpus",
                "needs at least " + std::to_string(min_gpus));
  EXPECT_TRUE(
      ParseScenarioJson(WithDeployment("sglang-pd", min_gpus), "inline").ok());
}

TEST(ScenarioDslTest, RejectsLoongServeWithoutAPrefillGpu) {
  const int min_gpus = baselines::LoongServeEngine::kMinGpus;
  ExpectRejects(WithDeployment("loongserve", min_gpus - 1),
                "deployment.num_gpus",
                "needs at least " + std::to_string(min_gpus));
  EXPECT_TRUE(
      ParseScenarioJson(WithDeployment("loongserve", min_gpus), "inline").ok());
}

constexpr char kOneRequestMix[] =
    R"("trace": {"mix": [{"dataset": "sharegpt", "requests": 1,
                         "rate_per_second": 1.0}]})";

TEST(ScenarioDslTest, RejectsWrongTypedValues) {
  // A value of the wrong type is an error, never its key's default.
  const std::string mix = kOneRequestMix;
  ExpectRejects(R"({"name": "x", "engine": 7, )" + mix + "}", "engine",
                "expected a string");
  ExpectRejects(R"({"name": "x", "deployment": {"model": 7}, )" + mix + "}",
                "deployment.model", "expected a string");
  ExpectRejects(R"({"name": "x", "trace": {"mix": [{"dataset": 3,
                    "requests": 1, "rate_per_second": 1.0}]}})",
                "trace.mix[0].dataset", "expected a string");
  ExpectRejects(
      R"({"name": "x", "overload": {"enabled": "yes"}, )" + mix + "}",
      "overload.enabled", "expected true or false");
  ExpectRejects(WithFleet(R"("failover": 1)"), "fleet.failover",
                "expected true or false");
}

TEST(ScenarioDslTest, RejectsIntegersTheirFieldCannotHold) {
  // Narrowed unchecked, these ran 1 request and a zero token budget.
  ExpectRejects(R"({"name": "x",
                    "trace": {"mix": [{"dataset": "sharegpt",
                                       "requests": 4294967297,
                                       "rate_per_second": 1.0}]}})",
                "trace.mix[0].requests", "out of range");
  ExpectRejects(R"({"name": "x", "run": {"token_budget": 4294967296}, )" +
                    std::string(kOneRequestMix) + "}",
                "run.token_budget", "out of range");
  ExpectRejects(WithFleet(R"("suspect_after_misses": 4294967297)"),
                "fleet.suspect_after_misses", "out of range");
  ExpectRejects(WithFleet(R"("zombie_down_beats": -4294967296)"),
                "fleet.zombie_down_beats", "out of range");
  // The largest value an int holds still reads.
  EXPECT_TRUE(ParseScenarioJson(R"({"name": "x",
                                    "run": {"token_budget": 2147483647}, )" +
                                    std::string(kOneRequestMix) + "}",
                                "inline")
                  .ok());
}

std::string WithMmpp(const std::string& extra) {
  return R"({"name": "x", "trace": {"mmpp": {"calm_rate_per_second": 1.0, )" +
         extra + "}}}";
}

TEST(ScenarioDslTest, RejectsDegenerateMmppTraces) {
  // Each of these parsed and then aborted in GenerateMmppTrace.
  ExpectRejects(WithMmpp(R"("burst_multiplier": 0.5)"),
                "trace.mmpp.burst_multiplier", "must be >= 1");
  ExpectRejects(WithMmpp(R"("mean_calm_seconds": 0)"),
                "trace.mmpp.mean_calm_seconds", "must be > 0");
  ExpectRejects(WithMmpp(R"("mean_burst_seconds": -1)"),
                "trace.mmpp.mean_burst_seconds", "must be > 0");
  ExpectRejects(WithMmpp(R"("duration_seconds": -5)"),
                "trace.mmpp.duration_seconds", "must be > 0");
  ExpectRejects(WithMmpp(R"("class_mix": [1, "a", 1])"),
                "trace.mmpp.class_mix[1]", "expected a number");
  ExpectRejects(WithMmpp(R"("class_mix": [1, -1, 1])"),
                "trace.mmpp.class_mix[1]", "must be >= 0");
  ExpectRejects(WithMmpp(R"("class_mix": [0, 0, 0])"),
                "trace.mmpp.class_mix", "weights sum to 0");
  EXPECT_TRUE(ParseScenarioJson(WithMmpp(R"("class_mix": [0, 1, 0])"),
                                "inline")
                  .ok());
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
      "faults.zombies[0]", "inverted zombie window");
}

TEST(ScenarioDslTest, RejectsFlapWithUnitDutyCycle) {
  // duty_up == 1.0 never goes down (a no-op masquerading as a fault).
  ExpectRejects(
      WithFaults(
          R"("flaps": [{"instance": 0, "from_seconds": 1, "to_seconds": 5,
                        "period_seconds": 1.0, "duty_up": 1.0}])"),
      "faults.flaps[0]", "flap duty cycle");
}

TEST(ScenarioDslTest, RejectsFlapWithZeroPeriod) {
  ExpectRejects(
      WithFaults(
          R"("flaps": [{"instance": 0, "from_seconds": 1, "to_seconds": 5,
                        "period_seconds": 0.0, "duty_up": 0.5}])"),
      "faults.flaps[0]", "flap period");
}

TEST(ScenarioDslTest, RejectsDegradeFactorAboveOne) {
  ExpectRejects(
      WithFaults(
          R"("degrades": [{"instance": 0, "from_seconds": 1,
                           "to_seconds": 5, "flops_factor": 1.5}])"),
      "faults.degrades[0]", "degrade factors");
}

TEST(ScenarioDslTest, RejectsLinkDegradeWithFlopsFactor) {
  // A link has no FLOPs; only its bandwidth can degrade.
  ExpectRejects(
      WithFaults(
          R"("degrades": [{"link": true, "from_seconds": 1,
                           "to_seconds": 5, "flops_factor": 0.5,
                           "bandwidth_factor": 0.5}])"),
      "faults.degrades[0]", "link degrade carries flops_factor");
}

TEST(ScenarioDslTest, RejectsPartitionDroppingBothDirections) {
  ExpectRejects(
      WithFaults(
          R"("partitions": [{"instance": 0, "from_seconds": 1,
                             "to_seconds": 5, "drop_to_replica": true,
                             "drop_from_replica": true}])"),
      "faults.partitions[0]", "drops both directions");
}

TEST(ScenarioDslTest, RejectsPartitionDroppingNeitherDirection) {
  ExpectRejects(
      WithFaults(
          R"("partitions": [{"instance": 0, "from_seconds": 1,
                             "to_seconds": 5}])"),
      "faults.partitions[0]", "drops neither direction");
}

TEST(ScenarioDslTest, RejectsUnknownFaultEntryKey) {
  ExpectRejects(
      WithFaults(
          R"("zombies": [{"instance": 0, "from_seconds": 1,
                          "til_seconds": 5}])"),
      "faults.zombies[0]", "til_seconds");
}

TEST(ScenarioDslTest, NamesTheOffendingEntryOfALongerList) {
  ExpectRejects(
      WithFaults(R"("zombies": [
          {"instance": 0, "from_seconds": 1, "to_seconds": 2},
          {"instance": 0, "from_seconds": 5, "to_seconds": 4}])"),
      "faults.zombies[1]", "inverted zombie window");
  // An overlap names the window that starts later.
  ExpectRejects(
      WithFaults(R"("zombies": [
          {"instance": 0, "from_seconds": 5, "to_seconds": 9},
          {"instance": 0, "from_seconds": 1, "to_seconds": 6}])"),
      "faults.zombies[0]", "overlapping zombie windows on instance 0");
  ExpectRejects(
      WithFaults(R"("crashes": [
          {"instance": 0, "at_seconds": 10, "recover_at_seconds": 40},
          {"instance": 0, "at_seconds": 20, "recover_at_seconds": 30}])"),
      "faults.crashes[1]", "crashes again");
}

TEST(ScenarioDslTest, RejectsFaultValuesNoEntryCanHold) {
  // The codec's own input checks, made before a value is cast into the
  // plan: Check() only ever sees the cast result.
  ExpectRejects(WithFaults(R"("zombies": [{"instance": -1, "from_seconds": 1,
                                           "to_seconds": 2}])"),
                "faults.zombies[0].instance", "must be >= 0");
  ExpectRejects(WithFaults(R"("crashes": [{"instance": 0.5,
                                           "at_seconds": 1}])"),
                "faults.crashes[0].instance", "expected an integer");
  ExpectRejects(WithFaults(R"("crashes": [{"instance": 1e300,
                                           "at_seconds": 1}])"),
                "faults.crashes[0].instance", "not exactly representable");
  ExpectRejects(WithFaults(R"("crashes": [{"at_seconds": 1e300}])"),
                "faults.crashes[0].at_seconds", "out of range");
  ExpectRejects(WithFaults(R"("crashes": [])"), "faults",
                "declared but contains no fault entries");
}

TEST(ScenarioDslTest, EveryCheckedInFaultBlockRoundTrips) {
  // fault::PlanToJson prints what fault::PlanFromJson reads, so every
  // checked-in "faults" block parses back to the plan it printed.
  std::size_t blocks = 0;
  for (const std::string dir :
       {"scenarios", "scenarios/nightly", "tests/chaos_corpus"}) {
    for (const auto& entry :
         std::filesystem::directory_iterator(RepoPath(dir))) {
      if (entry.path().extension() != ".json") continue;
      SCOPED_TRACE(entry.path().string());
      const ScenarioParseResult parsed =
          LoadScenarioFile(entry.path().string());
      ASSERT_TRUE(parsed.ok()) << parsed.error;
      if (!parsed.spec->config.fault_plan.has_value()) continue;
      ++blocks;
      const fault::FaultPlan& plan = *parsed.spec->config.fault_plan;
      const json::Value printed = fault::PlanToJson(plan);
      json::FieldReader in;
      fault::FaultPlan again;
      ASSERT_TRUE(fault::PlanFromJson(printed, "faults", in, &again))
          << in.error();
      EXPECT_EQ(json::Dump(fault::PlanToJson(again)), json::Dump(printed));
      EXPECT_TRUE(again == plan) << json::Dump(printed);
    }
  }
  EXPECT_GE(blocks, 7u);
}

TEST(ScenarioDslTest, AcceptsAFullGreyFaultBlock) {
  const ScenarioParseResult parsed = ParseScenarioJson(
      WithFaults(
          R"("seed": 7,
             "zombies": [{"instance": 1, "from_seconds": 2,
                          "to_seconds": 4}],
             "flaps": [{"link": true, "instance": 2, "from_seconds": 1,
                        "to_seconds": 3, "period_seconds": 0.5,
                        "duty_up": 0.5}],
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
  EXPECT_EQ(plan.flaps[0].instance, 0u);  // A link has no instance.
  ASSERT_EQ(plan.degrades.size(), 1u);
  ASSERT_EQ(plan.partitions.size(), 1u);
  EXPECT_TRUE(plan.partitions[0].drop_from_replica);
  EXPECT_EQ(plan.Check(), "");
}

}  // namespace
}  // namespace muxwise::harness
