#include "sim/channel.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <string>
#include <vector>

#include "gpu/gpu_spec.h"
#include "harness/runner.h"
#include "llm/model_config.h"
#include "serve/deployment.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "workload/datasets.h"

#include "frozen_digests.h"

namespace muxwise::sim {
namespace {

TEST(ChannelTest, TypedSendDeliversPayloadAfterWireTime) {
  Simulator simulator;
  Channel channel(&simulator, "test/typed", 600e9, Microseconds(10));
  std::int64_t received = -1;
  Time when = -1;
  channel.Send<std::int64_t>(600e6, 42, [&](std::int64_t id) {
    received = id;
    when = simulator.Now();
  });
  simulator.Run();
  EXPECT_EQ(received, 42);
  EXPECT_NEAR(ToMilliseconds(when), 1.01, 0.001);  // 1 ms wire + 10 us.
  EXPECT_EQ(channel.transfers_completed(), 1u);
}

TEST(ChannelTest, TypedSendCarriesOwnedMoveOnlyishPayloads) {
  // A Send must own its payload for the duration of the flight: the
  // caller's copy can die before delivery.
  Simulator simulator;
  Channel channel(&simulator, "test/typed", 600e9, 0);
  std::string received;
  {
    std::string payload = "kv-block-7";
    channel.Send<std::string>(1e6, payload,
                              [&](std::string p) { received = p; });
  }
  simulator.Run();
  EXPECT_EQ(received, "kv-block-7");
}

TEST(ChannelTest, TypedSendFailurePathCarriesPayloadToo) {
  Simulator simulator;
  Channel channel(&simulator, "test/typed", 600e9, 0);
  Channel::FaultModel model;
  model.failure_probability = 0.999999;  // Practically always lost.
  model.max_attempts = 1;
  channel.EnableFaults(model, Rng(7));
  std::int64_t failed_id = -1;
  bool delivered = false;
  channel.Send<std::int64_t>(
      1e6, 99, [&](std::int64_t) { delivered = true; },
      [&](std::int64_t id) { failed_id = id; });
  simulator.Run();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(failed_id, 99);
  EXPECT_EQ(channel.transfers_failed(), 1u);
}

TEST(ChannelTest, ControlChannelDeliversInlineWithoutScheduling) {
  // Deliver() is the same-tick control crossing: it runs the callback
  // immediately, schedules nothing, and therefore cannot perturb the
  // event stream — only the delivery counter observes it.
  Simulator simulator;
  Channel control(&simulator, "test/control");
  int ran_at_events = -1;
  const std::uint64_t digest_before = simulator.EventDigest();
  control.Deliver([&] { ran_at_events = 0; });
  EXPECT_EQ(ran_at_events, 0);
  EXPECT_EQ(control.deliveries(), 1u);
  EXPECT_EQ(simulator.EventDigest(), digest_before);
  simulator.Run();
  EXPECT_EQ(simulator.EventDigest(), digest_before);
}

TEST(ChannelTest, ChannelsAreNamed) {
  Simulator simulator;
  Channel link(&simulator, "cluster/nvlink", 600e9, 0);
  Channel control(&simulator, "cluster/control");
  EXPECT_EQ(link.name(), "cluster/nvlink");
  EXPECT_EQ(control.name(), "cluster/control");
}

// --- The refactor's acceptance criterion, frozen as a regression. ---
//
// Routing every cross-instance interaction through sim::Channel (the
// Interconnect alias, typed Send payloads, control-channel deliveries)
// must be invisible to the simulation: the per-engine event digests of
// the acceptance scenario are bit-identical to the pre-refactor seed.
// The constants live in tests/frozen_digests.h (recorded from the seed
// BEFORE the refactor); any drift means a structural change altered
// scheduling behaviour.

TEST(ChannelTest, SevenEngineDigestsMatchPreRefactorSeed) {
  const serve::Deployment deployment = tests::FrozenDeployment();
  const core::ContentionEstimator estimator =
      core::ContentionEstimator::BuildOffline(deployment);
  const workload::Trace trace = tests::FrozenTrace();

  for (const tests::FrozenDigest& expect : tests::kFrozenEngineDigests) {
    const harness::RunOutcome outcome =
        harness::RunWorkload(expect.kind, deployment, trace, &estimator);
    EXPECT_EQ(outcome.event_digest, expect.event_digest)
        << harness::EngineKindName(expect.kind);
    EXPECT_EQ(outcome.executed_events, expect.executed_events)
        << harness::EngineKindName(expect.kind);
    EXPECT_EQ(harness::OutcomeDigest(outcome), expect.outcome_digest)
        << harness::EngineKindName(expect.kind);
  }
}

}  // namespace
}  // namespace muxwise::sim
