#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "frozen_digests.h"
#include "gpu/gpu_spec.h"
#include "harness/runner.h"
#include "llm/model_config.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "serve/deployment.h"
#include "workload/datasets.h"

namespace muxwise::harness {
namespace {

serve::Deployment Llama70bA100() {
  return serve::Deployment::Make(llm::ModelConfig::Llama70B(),
                                 gpu::GpuSpec::A100());
}

/**
 * The tracing counterpart of test_determinism.cc: for every serving
 * engine, (a) attaching a recorder must not perturb the simulated event
 * stream, and (b) two traced runs must export byte-identical traces —
 * both the MUXT binary and the Chrome JSON.
 */
class TraceDeterminismTest : public ::testing::TestWithParam<EngineKind> {
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

core::ContentionEstimator* TraceDeterminismTest::estimator_ = nullptr;

TEST_P(TraceDeterminismTest, TracingNeverPerturbsTheEventStream) {
  const workload::Trace trace =
      workload::GenerateTrace(workload::Dataset::kShareGpt, 30, 2.0, 901);

  const RunOutcome untraced =
      RunWorkload(GetParam(), Llama70bA100(), trace, estimator_);

  obs::TraceRecorder recorder;
  RunConfig config;
  config.trace = &recorder;
  const RunOutcome traced =
      RunWorkload(GetParam(), Llama70bA100(), trace, estimator_, config);

  // The disabled-tracing digest is the seed digest (tier-1 determinism
  // suite); the traced run must match it bit for bit.
  EXPECT_EQ(traced.event_digest, untraced.event_digest);
  EXPECT_EQ(traced.executed_events, untraced.executed_events);
  EXPECT_EQ(OutcomeDigest(traced), OutcomeDigest(untraced));
  EXPECT_GT(recorder.size(), 0u);
}

TEST_P(TraceDeterminismTest, DoubleRunsExportByteIdenticalTraces) {
  const workload::Trace trace =
      workload::GenerateTrace(workload::Dataset::kShareGpt, 30, 2.0, 901);

  auto run = [&] {
    auto recorder = std::make_unique<obs::TraceRecorder>();
    RunConfig config;
    config.trace = recorder.get();
    RunWorkload(GetParam(), Llama70bA100(), trace, estimator_, config);
    return recorder;
  };

  const auto first = run();
  const auto second = run();
  ASSERT_GT(first->size(), 0u);
  EXPECT_EQ(first->size(), second->size());
  EXPECT_EQ(obs::TraceDigest(*first), obs::TraceDigest(*second));
  EXPECT_EQ(obs::EncodeBinary(*first), obs::EncodeBinary(*second));
  EXPECT_EQ(obs::ExportChromeJson(*first), obs::ExportChromeJson(*second));
}

TEST_P(TraceDeterminismTest, SpanSamplingNeverPerturbsTheEventStream) {
  const workload::Trace trace =
      workload::GenerateTrace(workload::Dataset::kShareGpt, 30, 2.0, 901);

  auto run = [&](std::uint64_t period) {
    auto recorder = std::make_unique<obs::TraceRecorder>(
        obs::TraceRecorder::Options{.span_sample_period = period});
    RunConfig config;
    config.trace = recorder.get();
    const RunOutcome outcome =
        RunWorkload(GetParam(), Llama70bA100(), trace, estimator_, config);
    return std::make_pair(std::move(recorder), outcome);
  };

  const auto [unsampled, full_outcome] = run(1);
  const auto [sampled, sampled_outcome] = run(4);
  // Sampling is a recorder-side filter: the simulated stream (and every
  // reported metric) is identical whatever the period.
  EXPECT_EQ(sampled_outcome.event_digest, full_outcome.event_digest);
  EXPECT_EQ(sampled_outcome.executed_events, full_outcome.executed_events);
  EXPECT_EQ(OutcomeDigest(sampled_outcome), OutcomeDigest(full_outcome));
  // It really thinned the span stream, and accounted for every skip.
  EXPECT_GT(sampled->sampled_out(), 0u);
  EXPECT_LT(sampled->size(), unsampled->size());
  EXPECT_EQ(sampled->size() + sampled->sampled_out(), unsampled->size());
  // The sampled stream is itself reproducible.
  EXPECT_EQ(obs::TraceDigest(*run(4).first), obs::TraceDigest(*sampled));
}

/**
 * Frozen trace digests for the MuxWise acceptance scenario, unsampled
 * and at 1-in-4 span sampling. Both streams are deterministic, so both
 * digests are pinned: a change to either means the instrumentation, the
 * binary encoding, or the sampling key changed — bump deliberately.
 */
TEST(TraceSamplingFrozenDigests, MuxWiseAcceptanceScenarioPinned) {
  const workload::Trace trace =
      workload::GenerateTrace(workload::Dataset::kShareGpt, 30, 2.0, 901);
  const serve::Deployment deployment = Llama70bA100();
  const core::ContentionEstimator estimator =
      core::ContentionEstimator::BuildOffline(deployment);

  auto digest = [&](std::uint64_t period) {
    obs::TraceRecorder recorder(
        obs::TraceRecorder::Options{.span_sample_period = period});
    RunConfig config;
    config.trace = &recorder;
    RunWorkload(EngineKind::kMuxWise, deployment, trace, &estimator, config);
    return obs::TraceDigest(recorder);
  };

  EXPECT_EQ(digest(1), tests::kUnsampledTraceDigest);
  EXPECT_EQ(digest(4), tests::kSampledTraceDigest);
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, TraceDeterminismTest,
    ::testing::Values(EngineKind::kMuxWise, EngineKind::kChunked,
                      EngineKind::kNanoFlow, EngineKind::kSglangPd,
                      EngineKind::kLoongServe, EngineKind::kWindServe,
                      EngineKind::kTemporal),
    [](const ::testing::TestParamInfo<EngineKind>& info) {
      switch (info.param) {
        case EngineKind::kMuxWise: return "MuxWise";
        case EngineKind::kChunked: return "Chunked";
        case EngineKind::kNanoFlow: return "NanoFlow";
        case EngineKind::kSglangPd: return "SglangPd";
        case EngineKind::kLoongServe: return "LoongServe";
        case EngineKind::kWindServe: return "WindServe";
        case EngineKind::kTemporal: return "Temporal";
      }
      return "Unknown";
    });

}  // namespace
}  // namespace muxwise::harness
