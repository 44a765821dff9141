// Cross-engine integration tests: every serving system implemented in
// this repository replays the same traces on the same simulated
// hardware, and the relative behaviour the paper reports must hold.

#include <gtest/gtest.h>

#include <memory>

#include "baselines/chunked_prefill.h"
#include "baselines/loongserve.h"
#include "baselines/static_disagg.h"
#include "core/estimator.h"
#include "core/muxwise_engine.h"
#include "engine_test_util.h"
#include "gpu/gpu_spec.h"
#include "llm/model_config.h"
#include "serve/deployment.h"
#include "sim/simulator.h"
#include "workload/datasets.h"

namespace muxwise {
namespace {

serve::Deployment Llama70bA100() {
  return serve::Deployment::Make(llm::ModelConfig::Llama70B(),
                                 gpu::GpuSpec::A100());
}

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    estimator_ = new core::ContentionEstimator(
        core::ContentionEstimator::BuildOffline(Llama70bA100()));
  }
  static void TearDownTestSuite() {
    delete estimator_;
    estimator_ = nullptr;
  }

  testutil::RunResult RunEngine(const std::string& which,
                                const workload::Trace& trace) {
    sim::Simulator simulator;
    const serve::Deployment d = Llama70bA100();
    std::unique_ptr<serve::Engine> engine;
    if (which == "muxwise") {
      engine = std::make_unique<core::MuxWiseEngine>(
          &simulator, d, *estimator_, core::MuxWiseEngine::Options());
    } else if (which == "chunked") {
      baselines::ChunkedPrefillEngine::Options options;
      options.token_budget =
          baselines::ChunkedPrefillEngine::TuneTokenBudget(d, d.slo.tbt);
      engine = std::make_unique<baselines::ChunkedPrefillEngine>(&simulator,
                                                                 d, options);
    } else if (which == "nanoflow") {
      baselines::ChunkedPrefillEngine::Options options;
      options.token_budget =
          baselines::ChunkedPrefillEngine::TuneTokenBudget(d, d.slo.tbt);
      options.nano_overlap = true;
      engine = std::make_unique<baselines::ChunkedPrefillEngine>(&simulator,
                                                                 d, options);
    } else if (which == "sglang-pd") {
      engine = std::make_unique<baselines::StaticDisaggEngine>(
          &simulator, d, fault::RecoveryPolicy());
    } else {
      engine = std::make_unique<baselines::LoongServeEngine>(
          &simulator, d, fault::RecoveryPolicy());
    }
    return testutil::RunTrace(simulator, *engine, trace);
  }

  static core::ContentionEstimator* estimator_;
};

core::ContentionEstimator* IntegrationTest::estimator_ = nullptr;

class AllEnginesTest : public IntegrationTest,
                       public ::testing::WithParamInterface<const char*> {};

TEST_P(AllEnginesTest, CompletesConversationTrace) {
  const workload::Trace trace = workload::GenerateTrace(
      workload::Dataset::kConversation, 60, 1.0, 41);
  const auto result = RunEngine(GetParam(), trace);
  EXPECT_TRUE(result.all_completed) << GetParam();
  EXPECT_EQ(result.metrics.completed(), trace.requests.size());
}

TEST_P(AllEnginesTest, CompletesShareGptTrace) {
  const workload::Trace trace =
      workload::GenerateTrace(workload::Dataset::kShareGpt, 80, 2.0, 42);
  const auto result = RunEngine(GetParam(), trace);
  EXPECT_TRUE(result.all_completed) << GetParam();
}

TEST_P(AllEnginesTest, CompletesLoogleTrace) {
  const workload::Trace trace =
      workload::GenerateTrace(workload::Dataset::kLoogle, 16, 0.3, 43);
  const auto result = RunEngine(GetParam(), trace);
  EXPECT_TRUE(result.all_completed) << GetParam();
}

TEST_P(AllEnginesTest, EveryTokenAccountedFor) {
  const workload::Trace trace = workload::GenerateTrace(
      workload::Dataset::kToolAgent, 50, 1.0, 44);
  std::int64_t expected = 0;
  for (const auto& spec : trace.requests) expected += spec.output_tokens;
  const auto result = RunEngine(GetParam(), trace);
  ASSERT_TRUE(result.all_completed) << GetParam();
  EXPECT_EQ(result.metrics.output_tokens(), expected) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Engines, AllEnginesTest,
                         ::testing::Values("muxwise", "chunked", "nanoflow",
                                           "sglang-pd", "loongserve"),
                         [](const ::testing::TestParamInfo<const char*>& i) {
                           std::string name = i.param;
                           name.erase(std::remove(name.begin(), name.end(),
                                                  '-'),
                                      name.end());
                           return name;
                         });

TEST_F(IntegrationTest, MuxWiseBeatsChunkedTtftOnMultiTurn) {
  // The headline comparison (paper Fig. 14): on multi-turn traces with
  // long reused context, MuxWise delivers far better tail TTFT under
  // equal load.
  const workload::Trace trace = workload::GenerateTrace(
      workload::Dataset::kToolAgent, 120, 2.5, 45);
  const auto mux = RunEngine("muxwise", trace);
  const auto chunked = RunEngine("chunked", trace);
  ASSERT_TRUE(mux.all_completed);
  ASSERT_TRUE(chunked.all_completed);
  EXPECT_LT(mux.metrics.Ttft().p99_ms, chunked.metrics.Ttft().p99_ms);
}

TEST_F(IntegrationTest, MuxWiseBeatsLoongServeOnMultiTurn) {
  const workload::Trace trace = workload::GenerateTrace(
      workload::Dataset::kConversation, 100, 1.5, 46);
  const auto mux = RunEngine("muxwise", trace);
  const auto loong = RunEngine("loongserve", trace);
  ASSERT_TRUE(mux.all_completed);
  ASSERT_TRUE(loong.all_completed);
  // LoongServe recomputes histories; MuxWise reuses them.
  EXPECT_LT(mux.metrics.Ttft().mean_ms, loong.metrics.Ttft().mean_ms);
}

TEST_F(IntegrationTest, DeterministicAcrossRuns) {
  const workload::Trace trace = workload::GenerateTrace(
      workload::Dataset::kConversation, 40, 1.0, 47);
  const auto a = RunEngine("muxwise", trace);
  const auto b = RunEngine("muxwise", trace);
  EXPECT_DOUBLE_EQ(a.metrics.Ttft().p99_ms, b.metrics.Ttft().p99_ms);
  EXPECT_DOUBLE_EQ(a.metrics.Tbt().p99_ms, b.metrics.Tbt().p99_ms);
  EXPECT_EQ(a.end_time, b.end_time);
}

}  // namespace
}  // namespace muxwise
