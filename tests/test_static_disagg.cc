#include "baselines/static_disagg.h"

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

TEST(StaticDisaggTest, CompletesShareGptTrace) {
  sim::Simulator simulator;
  StaticDisaggEngine engine(&simulator, Llama70bA100(),
                            fault::RecoveryPolicy());
  EXPECT_STREQ(engine.name(), "SGLang-PD");
  const workload::Trace trace =
      workload::GenerateTrace(workload::Dataset::kShareGpt, 100, 2.0, 5);
  const auto result = testutil::RunTrace(simulator, engine, trace);
  EXPECT_TRUE(result.all_completed);
  EXPECT_EQ(engine.InFlight(), 0u);
}

TEST(StaticDisaggTest, DecodeSideStaysWithinSloAtLowLoad) {
  sim::Simulator simulator;
  StaticDisaggEngine engine(&simulator, Llama70bA100(),
                            fault::RecoveryPolicy());
  const workload::Trace trace =
      workload::GenerateTrace(workload::Dataset::kShareGpt, 60, 0.5, 7);
  const auto result = testutil::RunTrace(simulator, engine, trace);
  ASSERT_TRUE(result.all_completed);
  // Disaggregation's selling point: decode never contends with prefill.
  EXPECT_LE(result.metrics.Tbt().p99_ms, 100.0);
}

TEST(StaticDisaggTest, MigratesKvOverTheLink) {
  sim::Simulator simulator;
  StaticDisaggEngine engine(&simulator, Llama70bA100(),
                            fault::RecoveryPolicy());
  const workload::Trace trace =
      workload::GenerateTrace(workload::Dataset::kShareGpt, 30, 1.0, 9);
  testutil::RunTrace(simulator, engine, trace);
  // Forward prompt-KV migration plus generated-KV copy-back.
  EXPECT_GE(engine.prefill_pool().lookups(), 30);
  EXPECT_GT(engine.decode_pool().cached_tokens(), 0);
}

TEST(StaticDisaggTest, SplitPoolsReduceHitRateVersusAggregated) {
  // Paper Fig. 5 / §2.3.1: halving the pool lowers the multi-turn
  // cache hit rate. Use a memory-pressured setup: long conversations.
  const workload::Trace trace = workload::GenerateTrace(
      workload::Dataset::kConversation, 150, 2.0, 13);
  sim::Simulator simulator;
  StaticDisaggEngine engine(&simulator, Llama70bA100(),
                            fault::RecoveryPolicy());
  const auto result = testutil::RunTrace(simulator, engine, trace);
  ASSERT_TRUE(result.all_completed);
  // Multi-turn reuse does work (prefill pool serves histories)...
  EXPECT_GT(engine.prefill_pool().HitRate(), 0.2);
  // ...but the prefill pool only holds roughly half of what an
  // aggregated deployment would.
  const serve::Deployment d = Llama70bA100();
  EXPECT_LT(engine.prefill_pool().capacity_tokens(), d.PoolTokens(8) / 2);
}

TEST(StaticDisaggTest, SingleTokenOutputsFinishOnPrefillSide) {
  sim::Simulator simulator;
  StaticDisaggEngine engine(&simulator, Llama70bA100(),
                            fault::RecoveryPolicy());
  // LooGLE outputs can be as short as 2 tokens; build a trace where
  // many finish quickly.
  const workload::Trace trace =
      workload::GenerateTrace(workload::Dataset::kLoogle, 15, 0.3, 15);
  const auto result = testutil::RunTrace(simulator, engine, trace);
  EXPECT_TRUE(result.all_completed);
}

TEST(StaticDisaggTest, PrefillBurstLeavesDecodeIdle) {
  // Paper Fig. 4-a: with static disaggregation the decode GPUs idle
  // while a burst of prefills queues on the prefill instance.
  sim::Simulator simulator;
  const serve::Deployment d = Llama70bA100();
  StaticDisaggEngine engine(&simulator, d, fault::RecoveryPolicy());
  const workload::Trace trace =
      workload::GenerateTrace(workload::Dataset::kLoogle, 20, 2.0, 17);
  const auto result = testutil::RunTrace(simulator, engine, trace);
  ASSERT_TRUE(result.all_completed);
  const double prefill_busy = engine.prefill_device().BusyTimeIntegral();
  const double decode_busy = engine.decode_device().BusyTimeIntegral();
  EXPECT_LT(decode_busy, 0.35 * prefill_busy);
}

}  // namespace
}  // namespace muxwise::baselines
