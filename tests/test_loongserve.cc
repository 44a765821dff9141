#include "baselines/loongserve.h"

#include <gtest/gtest.h>

#include "engine_test_util.h"
#include "gpu/gpu_spec.h"
#include "llm/model_config.h"
#include "serve/deployment.h"
#include "sim/simulator.h"
#include "workload/datasets.h"

namespace muxwise::baselines {
namespace {

serve::Deployment Llama70bA100() {
  return serve::Deployment::Make(llm::ModelConfig::Llama70B(),
                                 gpu::GpuSpec::A100());
}

TEST(LoongServeTest, CompletesShareGptTrace) {
  sim::Simulator simulator;
  LoongServeEngine engine(&simulator, Llama70bA100(),
                          fault::RecoveryPolicy());
  EXPECT_STREQ(engine.name(), "LoongServe");
  const workload::Trace trace =
      workload::GenerateTrace(workload::Dataset::kShareGpt, 100, 2.0, 5);
  const auto result = testutil::RunTrace(simulator, engine, trace);
  EXPECT_TRUE(result.all_completed);
  EXPECT_EQ(engine.InFlight(), 0u);
}

TEST(LoongServeTest, MeetsTbtByScalingDecodeGpus) {
  sim::Simulator simulator;
  LoongServeEngine engine(&simulator, Llama70bA100(),
                          fault::RecoveryPolicy());
  const workload::Trace trace =
      workload::GenerateTrace(workload::Dataset::kShareGpt, 80, 1.0, 7);
  const auto result = testutil::RunTrace(simulator, engine, trace);
  ASSERT_TRUE(result.all_completed);
  EXPECT_LE(result.metrics.Tbt().p99_ms, 110.0);
}

TEST(LoongServeTest, HandlesLongContextWorkload) {
  // LoongServe's home turf: long-context single-turn requests.
  sim::Simulator simulator;
  LoongServeEngine engine(&simulator, Llama70bA100(),
                          fault::RecoveryPolicy());
  const workload::Trace trace =
      workload::GenerateTrace(workload::Dataset::kLoogle, 20, 0.4, 9);
  const auto result = testutil::RunTrace(simulator, engine, trace);
  EXPECT_TRUE(result.all_completed);
}

TEST(LoongServeTest, RecomputesMultiTurnHistory) {
  // The paper's key criticism (§2.3.1): no cross-request KV reuse, so
  // multi-turn sessions pay full-input prefills every turn. We verify
  // by comparing total prefilled work against the reuse-aware optimum.
  const workload::Trace trace = workload::GenerateTrace(
      workload::Dataset::kConversation, 60, 1.0, 11);
  std::int64_t total_input = 0;
  std::int64_t new_only = 0;
  for (const auto& spec : trace.requests) {
    total_input += spec.input_tokens;
    new_only += spec.NewTokens();
  }
  ASSERT_GT(total_input, new_only);  // Reuse exists to be lost.

  sim::Simulator simulator;
  LoongServeEngine engine(&simulator, Llama70bA100(),
                          fault::RecoveryPolicy());
  const auto result = testutil::RunTrace(simulator, engine, trace);
  ASSERT_TRUE(result.all_completed);
  // LoongServe prefilled the full inputs (its engine sets
  // prefill_tokens = input_tokens): E2E input accounting equals
  // total_input, so the recomputation tax is total_input - new_only.
  EXPECT_EQ(result.metrics.input_tokens(), total_input);
}

TEST(LoongServeTest, SlowerThanReuseAwareEngineOnMultiTurn) {
  const workload::Trace trace = workload::GenerateTrace(
      workload::Dataset::kConversation, 60, 1.2, 13);
  sim::Simulator sim_a;
  LoongServeEngine loong(&sim_a, Llama70bA100(), fault::RecoveryPolicy());
  const auto loong_result = testutil::RunTrace(sim_a, loong, trace);
  ASSERT_TRUE(loong_result.all_completed);
  // Mean TTFT suffers from recomputation of long histories: on this
  // workload reused context averages ~4.5K tokens per turn.
  EXPECT_GT(loong_result.metrics.Ttft().mean_ms, 150.0);
}

}  // namespace
}  // namespace muxwise::baselines
