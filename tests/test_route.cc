#include "route/fleet_router.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>

#include "fault/fault_plan.h"
#include "frozen_digests.h"
#include "gpu/gpu_spec.h"
#include "harness/runner.h"
#include "llm/model_config.h"
#include "route/affinity.h"
#include "route/health.h"
#include "serve/deployment.h"
#include "sim/hash.h"
#include "sim/time.h"
#include "workload/datasets.h"
#include "workload/slo.h"

namespace muxwise::route {
namespace {

// ------------------------------------------------------------ affinity

kv::TokenSeq Span(std::int64_t stream, std::int64_t begin, std::int64_t end) {
  return {{stream, begin, end}};
}

TEST(AffinityKeyTest, EqualPrefixesHashEqual) {
  EXPECT_EQ(PrefixAffinityKey(Span(7, 0, 500), 256),
            PrefixAffinityKey(Span(7, 0, 500), 256));
  // Prompts differing only past the hashed prefix share the key: both
  // truncate to the same first 256 tokens of stream 7.
  EXPECT_EQ(PrefixAffinityKey(Span(7, 0, 500), 256),
            PrefixAffinityKey(Span(7, 0, 300), 256));
}

TEST(AffinityKeyTest, DifferentStreamsOrOffsetsHashDifferent) {
  EXPECT_NE(PrefixAffinityKey(Span(7, 0, 256), 256),
            PrefixAffinityKey(Span(8, 0, 256), 256));
  EXPECT_NE(PrefixAffinityKey(Span(7, 0, 256), 256),
            PrefixAffinityKey(Span(7, 1, 257), 256));
}

TEST(AffinityKeyTest, ShortPromptsHashTheirFullLength) {
  EXPECT_EQ(PrefixAffinityKey(Span(7, 0, 100), 256),
            PrefixAffinityKey(Span(7, 0, 100), 256));
  EXPECT_NE(PrefixAffinityKey(Span(7, 0, 100), 256),
            PrefixAffinityKey(Span(7, 0, 101), 256));
}

TEST(AffinityTableTest, RecordsLooksUpAndEvictsPerReplica) {
  AffinityTable table;
  table.Record(1, 0);
  table.Record(2, 1);
  table.Record(3, 1);
  ASSERT_TRUE(table.Lookup(1).has_value());
  EXPECT_EQ(*table.Lookup(1), 0u);
  EXPECT_EQ(*table.Lookup(2), 1u);
  EXPECT_FALSE(table.Lookup(99).has_value());
  table.EvictReplica(1);
  EXPECT_FALSE(table.Lookup(2).has_value());
  EXPECT_FALSE(table.Lookup(3).has_value());
  EXPECT_TRUE(table.Lookup(1).has_value());  // Replica 0 untouched.
  EXPECT_EQ(table.size(), 1u);
}

// ---------------------------------------------------------- health FSM

HealthPolicy TestPolicy() {
  HealthPolicy policy;
  policy.suspect_after_misses = 1;
  policy.down_after_misses = 2;
  policy.recovery_probation_beats = 2;
  return policy;
}

TEST(HealthTrackerTest, CrashWalksSuspectThenDown) {
  HealthTracker tracker(TestPolicy(), 2);
  EXPECT_EQ(tracker.state(0), ReplicaHealth::kHealthy);
  EXPECT_TRUE(tracker.Stable(0));
  tracker.OnCrashSignal(0, sim::Seconds(30));
  EXPECT_FALSE(tracker.Stable(0));

  auto t = tracker.Beat(0, sim::Seconds(30) + sim::Milliseconds(500));
  EXPECT_TRUE(t.changed);
  EXPECT_EQ(t.to, ReplicaHealth::kSuspect);

  t = tracker.Beat(0, sim::Seconds(31));
  EXPECT_TRUE(t.changed);
  EXPECT_EQ(t.to, ReplicaHealth::kDown);
  EXPECT_EQ(tracker.crash_signal_at(0), sim::Seconds(30));

  // Down is absorbing while the replica stays dead.
  t = tracker.Beat(0, sim::Seconds(32));
  EXPECT_FALSE(t.changed);
  EXPECT_TRUE(tracker.Stable(0));
  // The sibling replica never moved.
  EXPECT_EQ(tracker.state(1), ReplicaHealth::kHealthy);
}

TEST(HealthTrackerTest, RecoveryServesProbationBeforeHealthy) {
  HealthTracker tracker(TestPolicy(), 1);
  tracker.OnCrashSignal(0, sim::Seconds(10));
  tracker.Beat(0, sim::Seconds(10));
  tracker.Beat(0, sim::Seconds(11));
  ASSERT_EQ(tracker.state(0), ReplicaHealth::kDown);

  tracker.OnRecoverySignal(0);
  EXPECT_FALSE(tracker.Stable(0));
  auto t = tracker.Beat(0, sim::Seconds(12));
  EXPECT_EQ(t.to, ReplicaHealth::kRecovering);
  t = tracker.Beat(0, sim::Seconds(13));  // Probation beat 1 of 2.
  EXPECT_FALSE(t.changed);
  t = tracker.Beat(0, sim::Seconds(14));  // Probation served.
  EXPECT_TRUE(t.changed);
  EXPECT_EQ(t.to, ReplicaHealth::kHealthy);
  EXPECT_TRUE(tracker.Stable(0));
}

TEST(HealthTrackerTest, StragglerMarksSuspectAndClearanceRestores) {
  HealthTracker tracker(TestPolicy(), 1);
  EXPECT_TRUE(tracker.OnStragglerSignal(0, 2.0));
  EXPECT_EQ(tracker.state(0), ReplicaHealth::kSuspect);
  EXPECT_TRUE(tracker.straggling(0));
  // A straggling suspect is a fixed point: heartbeats answer (slowly).
  EXPECT_TRUE(tracker.Stable(0));
  tracker.Beat(0, sim::Seconds(1));
  EXPECT_EQ(tracker.state(0), ReplicaHealth::kSuspect);

  EXPECT_TRUE(tracker.OnStragglerSignal(0, 1.0));
  EXPECT_EQ(tracker.state(0), ReplicaHealth::kHealthy);
}

TEST(HealthTrackerTest, TransientMissClearsOnTheNextGoodBeat) {
  // Crash signal followed by recovery before the Down threshold: the
  // suspect clears instead of failing over.
  HealthTracker tracker(TestPolicy(), 1);
  tracker.OnCrashSignal(0, sim::Seconds(5));
  auto t = tracker.Beat(0, sim::Seconds(5) + sim::Milliseconds(500));
  ASSERT_EQ(t.to, ReplicaHealth::kSuspect);
  tracker.OnRecoverySignal(0);
  t = tracker.Beat(0, sim::Seconds(6));
  EXPECT_TRUE(t.changed);
  EXPECT_EQ(t.to, ReplicaHealth::kHealthy);
}

// ------------------------------------------------------- fleet routing

serve::Deployment Llama70bA100() {
  return serve::Deployment::Make(llm::ModelConfig::Llama70B(),
                                 gpu::GpuSpec::A100());
}

class FleetRouterTest : public ::testing::Test {
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

core::ContentionEstimator* FleetRouterTest::estimator_ = nullptr;
workload::Trace* FleetRouterTest::trace_ = nullptr;

TEST_F(FleetRouterTest, DisabledFleetKeepsTheBaselineDigest) {
  // Fleet knobs without enabled=true must be inert: bit-identical
  // digests, no router constructed (single-replica seed invariant).
  harness::RunConfig baseline;
  harness::RunConfig knobs;
  knobs.fleet.replicas = 4;
  knobs.fleet.failover = false;
  knobs.fleet.autoscale = true;
  const harness::RunOutcome a = harness::RunWorkload(
      harness::EngineKind::kMuxWise, Llama70bA100(), *trace_, estimator_,
      baseline);
  const harness::RunOutcome b = harness::RunWorkload(
      harness::EngineKind::kMuxWise, Llama70bA100(), *trace_, estimator_,
      knobs);
  EXPECT_EQ(harness::OutcomeDigest(a), harness::OutcomeDigest(b));
  EXPECT_EQ(a.event_digest, b.event_digest);
  EXPECT_EQ(a.fleet.replicas, 0u);
  EXPECT_EQ(b.fleet.replicas, 0u);
}

TEST_F(FleetRouterTest, SingleReplicaFleetCompletesEveryRequest) {
  harness::RunConfig config;
  config.fleet.enabled = true;
  config.fleet.replicas = 1;
  const harness::RunOutcome outcome = harness::RunWorkload(
      harness::EngineKind::kMuxWise, Llama70bA100(), *trace_, estimator_,
      config);
  EXPECT_TRUE(outcome.diagnostic.empty()) << outcome.diagnostic;
  EXPECT_EQ(outcome.fleet.replicas, 1u);
  EXPECT_EQ(outcome.completed, outcome.total);
  ASSERT_EQ(outcome.fleet.routed_per_replica.size(), 1u);
  EXPECT_EQ(outcome.fleet.routed_per_replica[0], outcome.total);
}

TEST_F(FleetRouterTest, FleetSpreadsLoadAndKeepsSessionsAffine) {
  // Conversation is the multi-turn dataset (ShareGPT is single-turn
  // here): later turns must find their session's KV.
  const workload::Trace trace = workload::GenerateTrace(
      workload::Dataset::kConversation, 60, 1.0, 4242);
  harness::RunConfig config;
  config.fleet.enabled = true;
  config.fleet.replicas = 4;
  const harness::RunOutcome outcome = harness::RunWorkload(
      harness::EngineKind::kMuxWise, Llama70bA100(), trace, estimator_,
      config);
  EXPECT_TRUE(outcome.diagnostic.empty()) << outcome.diagnostic;
  EXPECT_EQ(outcome.completed, outcome.total);
  ASSERT_EQ(outcome.fleet.routed_per_replica.size(), 4u);
  std::size_t used = 0;
  std::size_t routed = 0;
  for (std::size_t n : outcome.fleet.routed_per_replica) {
    if (n > 0) ++used;
    routed += n;
  }
  EXPECT_GT(used, 1u);  // Least-loaded fallback spreads fresh sessions.
  EXPECT_EQ(routed, outcome.total);
  // Later turns of a session must ride the affinity table or the
  // session-home map, never round-robin away from their KV.
  EXPECT_GT(outcome.fleet.affinity_hits + outcome.fleet.session_hits, 0u);
}

TEST_F(FleetRouterTest, ReplicaCrashFailsOverAndRehomesOrphans) {
  harness::RunConfig config;
  config.fleet.enabled = true;
  config.fleet.replicas = 4;
  config.fault_plan = fault::FaultPlan();
  config.fault_plan->Crash(1, sim::Seconds(20));  // Never recovers.
  const harness::RunOutcome outcome = harness::RunWorkload(
      harness::EngineKind::kMuxWise, Llama70bA100(), *trace_, estimator_,
      config);
  EXPECT_TRUE(outcome.diagnostic.empty()) << outcome.diagnostic;
  EXPECT_EQ(outcome.split.total(), outcome.total);  // All accounted.
  EXPECT_EQ(outcome.fleet.failovers, 1u);
  EXPECT_GT(outcome.fleet.failover_latency.count, 0u);
  // Detection is bounded by the heartbeat FSM: with 500 ms beats and
  // down_after_misses = 2, Down is declared exactly one second after
  // the crash signal.
  EXPECT_NEAR(outcome.fleet.failover_latency.mean_ms, 1000.0, 1e-6);
  EXPECT_GT(outcome.split.attained, 0u);
}

TEST_F(FleetRouterTest, RehomedSessionsMigrateDurableKvWhenWireIsCheaper) {
  // Multi-turn sessions carry durable prior-turn KV (reused_tokens);
  // for those orphans the cost model prefers re-migrating the prefix
  // over the fleet host link to recomputing it. (ShareGPT orphans have
  // no reuse and always take the recompute row.)
  const workload::Trace trace = workload::GenerateTrace(
      workload::Dataset::kConversation, 120, 2.0, 31337);
  harness::RunConfig config;
  config.fleet.enabled = true;
  config.fleet.replicas = 4;
  config.fault_plan = fault::FaultPlan();
  config.fault_plan->Crash(1, sim::Seconds(25));
  const harness::RunOutcome outcome = harness::RunWorkload(
      harness::EngineKind::kMuxWise, Llama70bA100(), trace, estimator_,
      config);
  EXPECT_TRUE(outcome.diagnostic.empty()) << outcome.diagnostic;
  EXPECT_EQ(outcome.split.total(), outcome.total);
  EXPECT_GT(outcome.fleet.rehomed, 0u);
  EXPECT_GT(outcome.fleet.rehome_migrations, 0u);
  EXPECT_EQ(outcome.fleet.rehomed, outcome.fleet.rehome_migrations +
                                       outcome.fleet.rehome_recomputes);
}

TEST_F(FleetRouterTest, RecoveredReplicaRejoinsTheRotation) {
  harness::RunConfig config;
  config.fleet.enabled = true;
  config.fleet.replicas = 2;
  config.fault_plan = fault::FaultPlan();
  config.fault_plan->Crash(1, sim::Seconds(10), sim::Seconds(20));
  const harness::RunOutcome outcome = harness::RunWorkload(
      harness::EngineKind::kMuxWise, Llama70bA100(), *trace_, estimator_,
      config);
  EXPECT_TRUE(outcome.diagnostic.empty()) << outcome.diagnostic;
  EXPECT_EQ(outcome.split.total(), outcome.total);
  // Down -> Recovering -> Healthy transitions all happened.
  EXPECT_GE(outcome.fleet.health_transitions, 4u);
  // The degradation ladder visited a degraded mode and came back.
  EXPECT_GE(outcome.fleet.mode_transitions, 2u);
}

TEST_F(FleetRouterTest, AutoscaleDrainsIdleReplicasDeterministically) {
  harness::RunConfig config;
  config.fleet.enabled = true;
  config.fleet.replicas = 4;
  config.fleet.autoscale = true;
  config.fleet.min_replicas = 1;
  config.fleet.scale_dwell_beats = 2;
  const harness::RunOutcome outcome = harness::RunWorkload(
      harness::EngineKind::kMuxWise, Llama70bA100(), *trace_, estimator_,
      config);
  EXPECT_TRUE(outcome.diagnostic.empty()) << outcome.diagnostic;
  EXPECT_EQ(outcome.completed, outcome.total);
  // 80 requests at 1 rps never fill four 70B pools: the dwell counter
  // trips and high-index replicas drain and park.
  EXPECT_GT(outcome.fleet.scale_downs, 0u);

  const harness::DeterminismReport report = harness::VerifyDeterminism(
      harness::EngineKind::kMuxWise, Llama70bA100(), *trace_, estimator_,
      config);
  EXPECT_TRUE(report.deterministic) << report.mismatch;
}

TEST_F(FleetRouterTest, RouterAuditsRunAtQuiescence) {
  // RunWorkload aborts on any audit violation; a clean pass means the
  // router's quiescence audit (zero in-flight, empty re-home buffer,
  // dormant heartbeat, drained per-replica demand) held, including the
  // per-replica engine audits it forwards.
  harness::RunConfig config;
  config.fleet.enabled = true;
  config.fleet.replicas = 3;
  const harness::RunOutcome outcome = harness::RunWorkload(
      harness::EngineKind::kMuxWise, Llama70bA100(), *trace_, estimator_,
      config);
  EXPECT_TRUE(outcome.diagnostic.empty()) << outcome.diagnostic;
}


// ------------------------------------------------- pinned driver digest

/**
 * Fleet goodput scaling: the MMPP burst replayed through the fleet
 * router at 1/2/4 replicas, each with and without a replica crash at
 * t=30 s (never recovering). The digest folds every run's event digest,
 * SLO-attained goodput, and re-home counters, so a routing or failover
 * regression — fewer attained completions, orphans shed instead of
 * re-homed — shows up as a digest change.
 */
tests::DriverDigest DriveFleetGoodput(double duration_seconds) {
  static const serve::Deployment deployment = serve::Deployment::Make(
      llm::ModelConfig::Llama70B(), gpu::GpuSpec::A100());
  static const core::ContentionEstimator estimator =
      core::ContentionEstimator::BuildOffline(deployment);

  workload::MmppOptions options;
  options.dataset = workload::Dataset::kShareGpt;
  options.calm_rate_per_second = 2.0;
  options.burst_multiplier = 4.0;
  options.mean_calm_seconds = 15.0;
  options.mean_burst_seconds = 10.0;
  options.duration_seconds = duration_seconds;
  options.class_mix = {0.3, 0.5, 0.2};
  const workload::Trace trace = GenerateMmppTrace(options, 20260);

  tests::DriverDigest run{0, 0x13198a2e03707344ULL};
  for (const std::size_t replicas : {1, 2, 4}) {
    for (const bool crash : {false, true}) {
      harness::RunConfig config;
      config.fleet.enabled = true;
      config.fleet.replicas = replicas;
      if (crash) {
        config.fault_plan = fault::FaultPlan();
        // A fleet of one has no survivor: the crash arm then measures
        // the total-outage shed path instead of failover.
        config.fault_plan->Crash(replicas > 1 ? 1 : 0, sim::Seconds(30));
      }
      const harness::RunOutcome outcome =
          harness::RunWorkload(harness::EngineKind::kMuxWise, deployment,
                               trace, &estimator, config);
      std::uint64_t goodput = 0;
      for (const serve::ClassMetrics& slice : outcome.per_class) {
        goodput += slice.TtftAttained();
      }
      run.events += outcome.executed_events;
      run.digest = sim::MixDigest(run.digest, outcome.event_digest);
      run.digest = sim::MixDigest(run.digest, goodput);
      run.digest = sim::MixDigest(
          run.digest, static_cast<std::uint64_t>(outcome.fleet.rehomed));
      run.digest = sim::MixDigest(
          run.digest, static_cast<std::uint64_t>(outcome.fleet.fleet_shed));
    }
  }
  return run;
}

TEST(FleetGoodputTest, SweepMatchesItsPinnedDigest) {
  // Run twice: both runs must reproduce the pinned witnesses.
  for (int run = 0; run < 2; ++run) {
    EXPECT_EQ(DriveFleetGoodput(40.0), tests::kFleetGoodputDigest)
        << "run " << run;
  }
}

}  // namespace
}  // namespace muxwise::route
