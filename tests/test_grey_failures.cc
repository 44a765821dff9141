// Grey-failure fault model: a zombie answers heartbeats while its
// kernels stall, a flapper winks in and out of reach, a degraded part
// silently loses capacity, an asymmetric partition cuts one direction.
// Covered bottom-up — device freeze/degrade, channel flap/degrade, the
// widened health FSM — and end-to-end through the fleet router, each
// detection behavior paired with its detection-disabled blind twin.

#include <gtest/gtest.h>

#include "fault/fault_plan.h"
#include "gpu/gpu.h"
#include "gpu/gpu_spec.h"
#include "harness/runner.h"
#include "llm/model_config.h"
#include "route/health.h"
#include "serve/deployment.h"
#include "sim/channel.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "workload/datasets.h"

namespace muxwise {
namespace {

// ------------------------------------------------------ device hooks

TEST(GpuGreyTest, FreezeStallsCompletionsAndThawRetainsProgress) {
  sim::Simulator simulator;
  gpu::Gpu device(&simulator, gpu::GpuSpec::A100());
  const gpu::StreamId stream = device.CreateStream(108);
  sim::Time done = -1;
  // ~1 ms memcpy at full speed (see test_cluster.cc).
  device.Launch(stream, gpu::Kernel::Memcpy(2.039e9),
                [&] { done = simulator.Now(); });
  simulator.ScheduleAt(sim::Microseconds(500),
                       [&] { device.SetFrozen(true); });
  simulator.ScheduleAt(sim::Milliseconds(10),
                       [&] { device.SetFrozen(false); });
  simulator.Run();
  EXPECT_FALSE(device.frozen());
  // Froze halfway through: the retained 0.5 ms of progress leaves
  // ~0.5 ms to run after the thaw at 10 ms.
  EXPECT_NEAR(sim::ToMilliseconds(done), 10.5, 0.05);
  EXPECT_EQ(device.kernels_completed(), 1u);
}

TEST(GpuGreyTest, FrozenDeviceAcceptsLaunchesWithoutCompletingThem) {
  // What makes a zombie convincing: it takes work (so the router sees a
  // busy, responsive instance) and simply never finishes any.
  sim::Simulator simulator;
  gpu::Gpu device(&simulator, gpu::GpuSpec::A100());
  const gpu::StreamId stream = device.CreateStream(108);
  device.SetFrozen(true);
  bool fired = false;
  device.Launch(stream, gpu::Kernel::Memcpy(2.039e9), [&] { fired = true; });
  simulator.ScheduleAt(sim::Milliseconds(5), [&] {
    EXPECT_FALSE(fired);  // Frozen: nothing completes.
    device.SetFrozen(false);
  });
  simulator.Run();
  EXPECT_TRUE(fired);  // Thawed: the queued kernel finishes.
}

TEST(GpuGreyTest, BandwidthDegradeStretchesMemcpyByTheFactor) {
  sim::Simulator simulator;
  gpu::Gpu device(&simulator, gpu::GpuSpec::A100());
  const gpu::StreamId stream = device.CreateStream(108);
  device.SetDegrade(1.0, 0.5);
  sim::Time done = -1;
  device.Launch(stream, gpu::Kernel::Memcpy(2.039e9),
                [&] { done = simulator.Now(); });
  simulator.Run();
  // Half the HBM bandwidth: the ~1 ms memcpy takes ~2 ms.
  EXPECT_NEAR(sim::ToMilliseconds(done), 2.0, 0.05);
  device.SetDegrade(1.0, 1.0);
  EXPECT_DOUBLE_EQ(device.degrade_flops_factor(), 1.0);
  EXPECT_DOUBLE_EQ(device.degrade_bandwidth_factor(), 1.0);
}

TEST(GpuGreyTest, FlopsDegradeStretchesComputeBoundKernels) {
  // The same compute-heavy kernel on a pristine device and on one
  // degraded to half its FLOPs: the degraded run takes ~2x. The
  // prediction path (SoloDurationSeconds) must not move — silent
  // degradation is precisely a model/reality gap.
  const gpu::Kernel kernel = gpu::Kernel::Prefill(1e12, 1e6);
  sim::Time full = -1, degraded = -1;
  {
    sim::Simulator simulator;
    gpu::Gpu device(&simulator, gpu::GpuSpec::A100());
    const gpu::StreamId stream = device.CreateStream(108);
    device.Launch(stream, kernel, [&] { full = simulator.Now(); });
    simulator.Run();
  }
  {
    sim::Simulator simulator;
    gpu::Gpu device(&simulator, gpu::GpuSpec::A100());
    const gpu::StreamId stream = device.CreateStream(108);
    const double predicted = device.SoloDurationSeconds(kernel, 108);
    device.SetDegrade(0.5, 1.0);
    EXPECT_DOUBLE_EQ(device.SoloDurationSeconds(kernel, 108), predicted);
    device.Launch(stream, kernel, [&] { degraded = simulator.Now(); });
    simulator.Run();
  }
  ASSERT_GT(full, 0);
  ASSERT_GT(degraded, 0);
  EXPECT_NEAR(static_cast<double>(degraded) / static_cast<double>(full), 2.0,
              0.1);
}

// ----------------------------------------------------- channel hooks

TEST(ChannelGreyTest, BandwidthScaleStretchesWireTimeAndRestoresExactly) {
  sim::Simulator simulator;
  sim::Channel link(&simulator, "test/link", 600e9, 0);
  link.SetBandwidthScale(0.5);
  sim::Time done = -1;
  link.Transfer(600e6, [&] { done = simulator.Now(); });
  simulator.Run();
  // 600 MB over a 600 GB/s wire at half scale: 2 ms instead of 1.
  EXPECT_NEAR(sim::ToMilliseconds(done), 2.0, 0.001);
  link.SetBandwidthScale(1.0);
  EXPECT_DOUBLE_EQ(link.bandwidth_scale(), 1.0);
}

TEST(ChannelGreyTest, DownLinkLosesAttemptsUntilTheLinkReturns) {
  // Unarmed channel (no randomness anywhere): a down link loses the
  // first attempt deterministically after occupying the wire; the
  // backoff retry lands after the link comes back and succeeds.
  sim::Simulator simulator;
  sim::Channel link(&simulator, "test/link", 600e9, 0);
  link.SetLinkUp(false);
  simulator.ScheduleAt(sim::Microseconds(2500),
                       [&] { link.SetLinkUp(true); });
  sim::Time done = -1;
  bool failed = false;
  link.Transfer(600e6, [&] { done = simulator.Now(); },
                [&] { failed = true; });
  simulator.Run();
  EXPECT_FALSE(failed);
  // Attempt 1 occupies [0, 1 ms) and is lost, backs off 2 ms; attempt 2
  // starts at 3 ms against a restored link and lands at 4 ms.
  EXPECT_NEAR(sim::ToMilliseconds(done), 4.0, 0.001);
  EXPECT_EQ(link.attempts_failed(), 1u);
  EXPECT_EQ(link.transfers_completed(), 1u);
}

TEST(ChannelGreyTest, PermanentlyDownLinkFailsTransfersAfterAllAttempts) {
  sim::Simulator simulator;
  sim::Channel link(&simulator, "test/link", 600e9, 0);
  link.SetLinkUp(false);
  bool done = false, failed = false;
  link.Transfer(600e6, [&] { done = true; }, [&] { failed = true; });
  simulator.Run();
  EXPECT_FALSE(done);
  EXPECT_TRUE(failed);
  EXPECT_EQ(link.transfers_failed(), 1u);
}

// --------------------------------------------------- health FSM edges

route::HealthPolicy ZombiePolicy() {
  route::HealthPolicy policy;
  policy.zombie_after_beats = 2;
  policy.zombie_down_beats = 4;
  return policy;
}

TEST(HealthTrackerGreyTest, FrozenWatermarkMarksLyingThenDownAndHolds) {
  route::HealthTracker health(ZombiePolicy(), 1);
  sim::Time now = 0;
  const auto tick = [&](std::uint64_t watermark, std::size_t in_flight) {
    now += sim::Milliseconds(250);
    health.ObserveProgress(0, watermark, in_flight, now);
    health.Beat(0, now);
  };
  tick(7, 3);  // First sample records the watermark; no stall yet.
  EXPECT_EQ(health.state(0), route::ReplicaHealth::kHealthy);
  tick(7, 3);  // Stalled beat 1.
  EXPECT_EQ(health.state(0), route::ReplicaHealth::kHealthy);
  tick(7, 3);  // Stalled beat 2: Suspect, and the reason is the lie.
  EXPECT_EQ(health.state(0), route::ReplicaHealth::kSuspect);
  EXPECT_EQ(health.reason(0), route::SuspectReason::kLying);
  // Good heartbeats are the lie: they must not clear a lying Suspect.
  health.Beat(0, now);
  EXPECT_EQ(health.state(0), route::ReplicaHealth::kSuspect);
  tick(7, 3);  // Stalled beat 3.
  tick(7, 3);  // Stalled beat 4: Down — the zombie failover edge.
  EXPECT_EQ(health.state(0), route::ReplicaHealth::kDown);
  // Held Down: beats alone cannot start recovery while the watermark
  // stays frozen, and the state is deliberately not a fixed point.
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(health.Beat(0, now).changed);
  }
  EXPECT_EQ(health.state(0), route::ReplicaHealth::kDown);
  EXPECT_FALSE(health.Stable(0));
  // The watermark moves: the verdict lifts and ordinary beats walk the
  // replica Down -> Recovering -> (probation) -> Healthy.
  tick(8, 3);
  EXPECT_EQ(health.state(0), route::ReplicaHealth::kRecovering);
  tick(9, 3);
  tick(10, 3);
  EXPECT_EQ(health.state(0), route::ReplicaHealth::kHealthy);
  EXPECT_EQ(health.reason(0), route::SuspectReason::kNone);
}

TEST(HealthTrackerGreyTest, IdleReplicaWithFrozenWatermarkStaysHealthy) {
  // No work in flight means nothing is being lost: an idle replica is
  // indistinguishable from a healthy one and must never be suspected.
  route::HealthTracker health(ZombiePolicy(), 1);
  sim::Time now = 0;
  for (int i = 0; i < 10; ++i) {
    now += sim::Milliseconds(250);
    health.ObserveProgress(0, 7, /*in_flight=*/0, now);
    health.Beat(0, now);
  }
  EXPECT_EQ(health.state(0), route::ReplicaHealth::kHealthy);
  EXPECT_TRUE(health.Stable(0));
}

TEST(HealthTrackerGreyTest, ZombieDetectionDisabledIsBlindToTheStall) {
  // The negative twin: identical frozen-watermark evidence, detection
  // off. The tracker must not move — this is the baseline the zombie
  // end-to-end test's failover is compared against.
  route::HealthPolicy policy = ZombiePolicy();
  policy.zombie_detection = false;
  route::HealthTracker health(policy, 1);
  sim::Time now = 0;
  for (int i = 0; i < 10; ++i) {
    now += sim::Milliseconds(250);
    EXPECT_FALSE(health.ObserveProgress(0, 7, 3, now).changed);
    health.Beat(0, now);
  }
  EXPECT_EQ(health.state(0), route::ReplicaHealth::kHealthy);
  EXPECT_EQ(health.reason(0), route::SuspectReason::kNone);
}

TEST(HealthTrackerGreyTest, SuspectExitTakesConsecutiveGoodBeats) {
  route::HealthPolicy policy;
  policy.suspect_exit_beats = 3;
  route::HealthTracker health(policy, 1);
  sim::Time now = sim::Seconds(1);
  // One silenced beat: Suspect via the miss path.
  health.OnPartitionSignal(0, false, true, now);
  health.Beat(0, now);
  EXPECT_EQ(health.state(0), route::ReplicaHealth::kSuspect);
  EXPECT_EQ(health.reason(0), route::SuspectReason::kMisses);
  health.OnPartitionSignal(0, false, false, now);  // Heal.
  // Hysteresis: two good beats are not enough, the third clears.
  health.Beat(0, now);
  health.Beat(0, now);
  EXPECT_EQ(health.state(0), route::ReplicaHealth::kSuspect);
  health.Beat(0, now);
  EXPECT_EQ(health.state(0), route::ReplicaHealth::kHealthy);
}

TEST(HealthTrackerGreyTest, AlternatingFlapDwellsInSuspectWithoutDown) {
  // A replica flapping faster than either threshold: never two
  // consecutive misses (no Down, no spurious failover) and never
  // suspect_exit_beats consecutive good beats (no premature Healthy) —
  // it dwells in Suspect, which is exactly where a flapper belongs.
  route::HealthPolicy policy;
  policy.suspect_exit_beats = 2;
  route::HealthTracker health(policy, 1);
  sim::Time now = 0;
  bool suspect_seen = false;
  for (int cycle = 0; cycle < 20; ++cycle) {
    now += sim::Milliseconds(250);
    health.OnPartitionSignal(0, false, true, now);  // Down phase.
    const auto miss = health.Beat(0, now);
    EXPECT_NE(health.state(0), route::ReplicaHealth::kDown);
    if (miss.changed) suspect_seen = true;
    now += sim::Milliseconds(250);
    health.OnPartitionSignal(0, false, false, now);  // Up phase.
    health.Beat(0, now);
    if (cycle > 0) {
      EXPECT_EQ(health.state(0), route::ReplicaHealth::kSuspect);
    }
  }
  EXPECT_TRUE(suspect_seen);
  EXPECT_EQ(health.state(0), route::ReplicaHealth::kSuspect);
}

TEST(HealthTrackerGreyTest, UnreachablePinsSuspectUntilThePartitionHeals) {
  route::HealthPolicy policy;
  route::HealthTracker health(policy, 1);
  const auto cut =
      health.OnPartitionSignal(0, /*drop_to=*/true, false, sim::Seconds(2));
  EXPECT_TRUE(cut.changed);
  EXPECT_EQ(cut.to, route::ReplicaHealth::kSuspect);
  EXPECT_EQ(health.reason(0), route::SuspectReason::kUnreachable);
  EXPECT_TRUE(health.unreachable(0));
  // Its heartbeats still arrive, so beats are good — but an unhealed
  // router->replica cut pins Suspect: not routable, never failed over.
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(health.Beat(0, sim::Seconds(3)).changed);
  }
  EXPECT_EQ(health.state(0), route::ReplicaHealth::kSuspect);
  EXPECT_TRUE(health.Stable(0));  // A pinned Suspect is a fixed point.
  health.OnPartitionSignal(0, false, false, sim::Seconds(4));
  health.Beat(0, sim::Seconds(4));
  EXPECT_EQ(health.state(0), route::ReplicaHealth::kHealthy);
}

TEST(HealthTrackerGreyTest, SilencedReplicaAccumulatesMissesTowardDown) {
  // drop_from: the replica is alive and serving but its heartbeats
  // vanish — the router correctly reads silence as an outage, and the
  // silence onset timestamps the failover latency.
  route::HealthPolicy policy;  // suspect after 1 miss, down after 2.
  route::HealthTracker health(policy, 1);
  health.OnPartitionSignal(0, false, /*drop_from=*/true, sim::Seconds(5));
  EXPECT_TRUE(health.silenced(0));
  EXPECT_TRUE(health.alive(0));
  health.Beat(0, sim::Seconds(5) + sim::Milliseconds(500));
  EXPECT_EQ(health.state(0), route::ReplicaHealth::kSuspect);
  const auto down = health.Beat(0, sim::Seconds(6));
  EXPECT_TRUE(down.changed);
  EXPECT_EQ(health.state(0), route::ReplicaHealth::kDown);
  EXPECT_EQ(health.crash_signal_at(0), sim::Seconds(5));
  EXPECT_TRUE(health.Stable(0));  // Stays Down until the heal signal.
  health.OnPartitionSignal(0, false, false, sim::Seconds(7));
  health.Beat(0, sim::Seconds(7));  // Down -> Recovering.
  health.Beat(0, sim::Seconds(7) + sim::Milliseconds(500));
  health.Beat(0, sim::Seconds(8));  // Probation served.
  EXPECT_EQ(health.state(0), route::ReplicaHealth::kHealthy);
}

TEST(HealthTrackerGreyTest, PartitionDetectionDisabledIgnoresSignals) {
  route::HealthPolicy policy;
  policy.partition_detection = false;
  route::HealthTracker health(policy, 1);
  EXPECT_FALSE(
      health.OnPartitionSignal(0, true, false, sim::Seconds(1)).changed);
  EXPECT_FALSE(
      health.OnPartitionSignal(0, false, true, sim::Seconds(1)).changed);
  EXPECT_FALSE(health.silenced(0));
  EXPECT_FALSE(health.unreachable(0));
  health.Beat(0, sim::Seconds(2));
  EXPECT_EQ(health.state(0), route::ReplicaHealth::kHealthy);
}

// ------------------------------------------- fleet router end-to-end

serve::Deployment Llama70bA100() {
  return serve::Deployment::Make(llm::ModelConfig::Llama70B(),
                                 gpu::GpuSpec::A100());
}

class FleetGreyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    estimator_ = new core::ContentionEstimator(
        core::ContentionEstimator::BuildOffline(Llama70bA100()));
    trace_ = new workload::Trace(workload::GenerateTrace(
        workload::Dataset::kShareGpt, 40, 2.5, 20261));
  }
  static void TearDownTestSuite() {
    delete estimator_;
    estimator_ = nullptr;
    delete trace_;
    trace_ = nullptr;
  }

  static harness::RunConfig GreyConfig() {
    harness::RunConfig config;
    config.fleet.enabled = true;
    config.fleet.replicas = 3;
    config.fleet.health.heartbeat_interval = sim::Milliseconds(250);
    return config;
  }

  static core::ContentionEstimator* estimator_;
  static workload::Trace* trace_;
};

core::ContentionEstimator* FleetGreyTest::estimator_ = nullptr;
workload::Trace* FleetGreyTest::trace_ = nullptr;

TEST_F(FleetGreyTest, ZombieIsDetectedByWatermarkAndFailedOverOnce) {
  harness::RunConfig config = GreyConfig();
  config.fault_plan = fault::FaultPlan();
  config.fault_plan->Zombie(1, sim::Seconds(4), sim::Seconds(16));
  const harness::RunOutcome o =
      harness::RunWorkload(harness::EngineKind::kMuxWise, Llama70bA100(),
                           *trace_, estimator_, config);
  EXPECT_TRUE(o.diagnostic.empty()) << o.diagnostic;
  ASSERT_GT(o.fleet.replicas, 0u);
  EXPECT_EQ(o.split.total(), o.total);
  // The frozen replica answered every heartbeat; only the watermark
  // betrayed it. One Down verdict, via the zombie path.
  EXPECT_EQ(o.fleet.zombie_downs, 1u);
  EXPECT_EQ(o.fleet.failovers, 1u);
  // Detection latency is beat-counted from the stall onset: Down lands
  // within zombie_down_beats heartbeats (+1 beat of sampling phase).
  ASSERT_EQ(o.fleet.failover_latency.count, 1u);
  const double bound_ms =
      250.0 * (config.fleet.health.zombie_down_beats + 1);
  EXPECT_LE(o.fleet.failover_latency.p99_ms, bound_ms);
}

TEST_F(FleetGreyTest, ZombieDetectionDisabledNeverFailsOver) {
  // The blind twin: same freeze, watermark detection off. No verdict is
  // ever reached, so the fleet rides out the whole 12 s stall on the
  // zombie. Note the trade the detecting run makes is *latency*, not
  // raw completions: failing the zombie over drops live capacity to 2/3
  // and the mode ladder browns out standard arrivals, so the blind run
  // can finish more requests — at a catastrophic TTFT tail.
  harness::RunConfig config = GreyConfig();
  config.fleet.health.zombie_detection = false;
  config.fault_plan = fault::FaultPlan();
  config.fault_plan->Zombie(1, sim::Seconds(4), sim::Seconds(16));
  const harness::RunOutcome blind =
      harness::RunWorkload(harness::EngineKind::kMuxWise, Llama70bA100(),
                           *trace_, estimator_, config);
  EXPECT_TRUE(blind.diagnostic.empty()) << blind.diagnostic;
  EXPECT_EQ(blind.split.total(), blind.total);  // Still never strands.
  EXPECT_EQ(blind.fleet.zombie_downs, 0u);
  EXPECT_EQ(blind.fleet.failovers, 0u);

  harness::RunConfig detecting = GreyConfig();
  detecting.fault_plan = config.fault_plan;
  const harness::RunOutcome o =
      harness::RunWorkload(harness::EngineKind::kMuxWise, Llama70bA100(),
                           *trace_, estimator_, detecting);
  EXPECT_EQ(o.fleet.zombie_downs, 1u);
  // Detection buys the tail: blind completions queue behind the frozen
  // replica for up to 12 s, so its p99 TTFT must dwarf the detecting
  // run's (which shed or re-homed that work instead).
  EXPECT_GT(blind.ttft.p99_ms, o.ttft.p99_ms);
}

TEST_F(FleetGreyTest, FlappingReplicaDwellsInSuspectWithoutFailover) {
  // Heartbeat flap: 200 ms down phases against a 250 ms beat and a
  // 2-beat exit hysteresis. The replica oscillates around Suspect but
  // never posts two consecutive misses — no Down, no failover thrash.
  harness::RunConfig config = GreyConfig();
  config.fleet.health.suspect_exit_beats = 2;
  config.fault_plan = fault::FaultPlan();
  config.fault_plan->Flap(1, sim::Seconds(4), sim::Seconds(14),
                          sim::Seconds(1), /*duty_up=*/0.8);
  const harness::RunOutcome o =
      harness::RunWorkload(harness::EngineKind::kMuxWise, Llama70bA100(),
                           *trace_, estimator_, config);
  EXPECT_TRUE(o.diagnostic.empty()) << o.diagnostic;
  ASSERT_GT(o.fleet.replicas, 0u);
  EXPECT_EQ(o.split.total(), o.total);
  EXPECT_GT(o.fleet.health_transitions, 0u);  // The FSM saw the flap...
  EXPECT_EQ(o.fleet.failovers, 0u);           // ...and absorbed it.
  EXPECT_EQ(o.fleet.rehome_shed, 0u);
}

TEST_F(FleetGreyTest, FlapDetectionDisabledIsInvisibleToTheRouter) {
  harness::RunConfig config = GreyConfig();
  config.fleet.health.partition_detection = false;
  config.fault_plan = fault::FaultPlan();
  config.fault_plan->Flap(1, sim::Seconds(4), sim::Seconds(14),
                          sim::Seconds(1), /*duty_up=*/0.8);
  const harness::RunOutcome o =
      harness::RunWorkload(harness::EngineKind::kMuxWise, Llama70bA100(),
                           *trace_, estimator_, config);
  EXPECT_TRUE(o.diagnostic.empty()) << o.diagnostic;
  EXPECT_EQ(o.split.total(), o.total);
  EXPECT_EQ(o.fleet.failovers, 0u);
}

TEST_F(FleetGreyTest, AsymmetricSilenceFailsOverExactlyOnce) {
  // replica->router cut: the replica keeps serving but its heartbeats
  // vanish, so deadline detection fires against a live instance —
  // exactly one failover, and after the heal it rejoins with no second
  // Down edge.
  harness::RunConfig config = GreyConfig();
  config.fault_plan = fault::FaultPlan();
  config.fault_plan->Partition(1, sim::Seconds(4), sim::Seconds(16),
                               /*drop_to=*/false, /*drop_from=*/true);
  const harness::RunOutcome o =
      harness::RunWorkload(harness::EngineKind::kMuxWise, Llama70bA100(),
                           *trace_, estimator_, config);
  EXPECT_TRUE(o.diagnostic.empty()) << o.diagnostic;
  ASSERT_GT(o.fleet.replicas, 0u);
  EXPECT_EQ(o.split.total(), o.total);
  EXPECT_EQ(o.fleet.failovers, 1u);
  EXPECT_EQ(o.fleet.zombie_downs, 0u);  // The deadline path, not the lie.
  ASSERT_EQ(o.fleet.failover_latency.count, 1u);
  // Silence onset -> Down takes down_after_misses beats (+1 of phase).
  const double bound_ms =
      250.0 * (config.fleet.health.down_after_misses + 1);
  EXPECT_LE(o.fleet.failover_latency.p99_ms, bound_ms);
}

TEST_F(FleetGreyTest, PartitionDetectionDisabledNeverFailsOver) {
  harness::RunConfig config = GreyConfig();
  config.fleet.health.partition_detection = false;
  config.fault_plan = fault::FaultPlan();
  config.fault_plan->Partition(1, sim::Seconds(4), sim::Seconds(16),
                               /*drop_to=*/false, /*drop_from=*/true);
  const harness::RunOutcome o =
      harness::RunWorkload(harness::EngineKind::kMuxWise, Llama70bA100(),
                           *trace_, estimator_, config);
  EXPECT_TRUE(o.diagnostic.empty()) << o.diagnostic;
  EXPECT_EQ(o.split.total(), o.total);
  EXPECT_EQ(o.fleet.failovers, 0u);
}

TEST_F(FleetGreyTest, GreyChaosRunsAreBitReproducible) {
  harness::RunConfig config = GreyConfig();
  config.fault_plan = fault::FaultPlan();
  config.fault_plan->Zombie(1, sim::Seconds(4), sim::Seconds(12))
      .Flap(2, sim::Seconds(6), sim::Seconds(12), sim::Seconds(1), 0.8)
      .Degrade(0, sim::Seconds(2), sim::Seconds(8), 0.7, 0.8)
      .Partition(2, sim::Seconds(13), sim::Seconds(16), false, true);
  const harness::DeterminismReport report = harness::VerifyDeterminism(
      harness::EngineKind::kMuxWise, Llama70bA100(), *trace_, estimator_,
      config);
  EXPECT_TRUE(report.deterministic) << report.mismatch;
}

}  // namespace
}  // namespace muxwise
