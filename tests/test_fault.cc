#include "fault/injector.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "baselines/chunked_prefill.h"
#include "baselines/loongserve.h"
#include "baselines/static_disagg.h"
#include "engine_test_util.h"
#include "fault/fault_plan.h"
#include "fault/recovery.h"
#include "gpu/cluster.h"
#include "gpu/gpu.h"
#include "gpu/gpu_spec.h"
#include "harness/runner.h"
#include "llm/model_config.h"
#include "serve/deployment.h"
#include "serve/frontend.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "workload/datasets.h"

namespace muxwise::fault {
namespace {

serve::Deployment Llama70bA100() {
  return serve::Deployment::Make(llm::ModelConfig::Llama70B(),
                                 gpu::GpuSpec::A100());
}

// ---------------------------------------------------------------- plans

TEST(FaultPlanTest, FluentBuilderAccumulatesEntries) {
  FaultPlan plan;
  plan.Crash(0, sim::Seconds(30), sim::Seconds(45))
      .Straggle(1, sim::Seconds(50), sim::Seconds(60), 2.0)
      .DropTransfers(sim::Seconds(0), sim::Seconds(120), 0.01);
  EXPECT_FALSE(plan.Empty());
  ASSERT_EQ(plan.crashes.size(), 1u);
  ASSERT_EQ(plan.stragglers.size(), 1u);
  ASSERT_EQ(plan.transfer_faults.size(), 1u);
  EXPECT_EQ(plan.crashes[0].recover_at, sim::Seconds(45));
  plan.Validate();  // Well-formed plan must not abort.
}

TEST(FaultPlanDeathTest, ValidateRejectsInvertedStragglerWindow) {
  FaultPlan plan;
  plan.Straggle(0, sim::Seconds(10), sim::Seconds(5), 2.0);
  EXPECT_EXIT(plan.Validate(), ::testing::ExitedWithCode(1), "");
}

TEST(FaultPlanDeathTest, ValidateRejectsRecoveryBeforeCrash) {
  FaultPlan plan;
  plan.Crash(0, sim::Seconds(10), sim::Seconds(5));
  EXPECT_EXIT(plan.Validate(), ::testing::ExitedWithCode(1), "");
}

TEST(FaultPlanDeathTest, ValidateRejectsRecoveryAtTheCrashInstant) {
  // recover_at == at silently produced an always-down instance before
  // the strictly-later rule; regression-pin the rejection.
  FaultPlan plan;
  plan.Crash(0, sim::Seconds(10), sim::Seconds(10));
  EXPECT_EXIT(plan.Validate(), ::testing::ExitedWithCode(1), "");
}

TEST(FaultPlanDeathTest, ValidateRejectsOverlappingCrashWindows) {
  // The second crash fires before the first recovery: the injected
  // event order would resurrect the instance with a stale recovery.
  FaultPlan plan;
  plan.Crash(0, sim::Seconds(10), sim::Seconds(40))
      .Crash(0, sim::Seconds(20), sim::Seconds(30));
  EXPECT_EXIT(plan.Validate(), ::testing::ExitedWithCode(1), "");
}

TEST(FaultPlanDeathTest, ValidateRejectsCrashAfterNeverRecoveringCrash) {
  // A crash scheduled after a never-recovering crash of the same
  // instance can never fire against a live instance.
  FaultPlan plan;
  plan.Crash(0, sim::Seconds(10))  // kTimeNever: never recovers.
      .Crash(0, sim::Seconds(50), sim::Seconds(60));
  EXPECT_EXIT(plan.Validate(), ::testing::ExitedWithCode(1), "");
}

TEST(FaultPlanTest, ValidateAcceptsSequentialCrashWindowsPerInstance) {
  FaultPlan plan;
  plan.Crash(0, sim::Seconds(10), sim::Seconds(20))
      .Crash(0, sim::Seconds(20), sim::Seconds(30))  // Back-to-back OK.
      .Crash(1, sim::Seconds(15), sim::Seconds(25))  // Other instance.
      .Crash(1, sim::Seconds(40));                   // Final, never back.
  plan.Validate();  // Must not abort.
}

// ------------------------------------------------- grey-failure plans

TEST(FaultPlanTest, GreyKindsBuildAndValidate) {
  // One well-formed entry per grey kind (and both link-targeted
  // flavours); a clean Validate() is the positive fixture the death
  // tests below are the negatives of.
  FaultPlan plan;
  plan.Zombie(1, sim::Seconds(5), sim::Seconds(10))
      .Flap(2, sim::Seconds(12), sim::Seconds(20), sim::Seconds(2), 0.5)
      .FlapLink(sim::Seconds(1), sim::Seconds(3), sim::Milliseconds(500), 0.6)
      .Degrade(0, sim::Seconds(4), sim::Seconds(9), 0.5, 0.7)
      .DegradeLink(sim::Seconds(10), sim::Seconds(15), 0.5)
      .Partition(1, sim::Seconds(21), sim::Seconds(25), /*drop_to=*/true,
                 /*drop_from=*/false)
      .Partition(2, sim::Seconds(21), sim::Seconds(25), /*drop_to=*/false,
                 /*drop_from=*/true);
  EXPECT_FALSE(plan.Empty());
  plan.Validate();  // Must not abort.
}

TEST(FaultPlanDeathTest, ValidateRejectsInvertedZombieWindow) {
  FaultPlan plan;
  plan.Zombie(0, sim::Seconds(10), sim::Seconds(5));
  EXPECT_EXIT(plan.Validate(), ::testing::ExitedWithCode(1),
              "inverted zombie window");
}

TEST(FaultPlanDeathTest, ValidateRejectsNeverEndingZombieWindow) {
  // A frozen device that never thaws strands its in-flight work, so the
  // run could never drain; the plan must say when the zombie ends.
  FaultPlan plan;
  plan.Zombie(2, sim::Seconds(10), sim::kTimeNever);
  EXPECT_EXIT(plan.Validate(), ::testing::ExitedWithCode(1),
              "zombie window on instance 2 never ends");
}

TEST(FaultPlanTest, NoWindowKindMayNeverEnd) {
  // A plan file cannot say "never" for a window's end, so Check rejects
  // it for every kind; a crash that never recovers is no window.
  const sim::Time from = sim::Seconds(1);
  const sim::Time never = sim::kTimeNever;
  FaultPlan straggler;
  straggler.Straggle(1, from, never, 2.0);
  FaultPlan drops;
  drops.DropTransfers(from, never, 0.1);
  FaultPlan flap;
  flap.Flap(0, from, never, sim::Milliseconds(500), 0.5);
  FaultPlan degrade;
  degrade.DegradeLink(from, never, 0.5);
  FaultPlan partition;
  partition.Partition(2, from, never, true, false);
  const std::pair<const FaultPlan*, std::string> cases[] = {
      {&straggler, "stragglers[0]: straggler window on instance 1 never ends"},
      {&drops, "transfer_drops[0]: transfer-fault window never ends"},
      {&flap, "flaps[0]: flap window on instance 0 never ends"},
      {&degrade, "degrades[0]: degrade window on the link never ends"},
      {&partition, "partitions[0]: partition window on instance 2 never ends"},
  };
  for (const auto& [plan, error] : cases) EXPECT_EQ(plan->Check(), error);
  FaultPlan crash;
  crash.Crash(0, from, never);
  EXPECT_EQ(crash.Check(), "");
}

TEST(FaultPlanDeathTest, ValidateRejectsOverlappingZombieWindows) {
  FaultPlan plan;
  plan.Zombie(0, sim::Seconds(5), sim::Seconds(15))
      .Zombie(0, sim::Seconds(10), sim::Seconds(20));
  EXPECT_EXIT(plan.Validate(), ::testing::ExitedWithCode(1),
              "overlapping zombie windows on instance 0");
}

TEST(FaultPlanTest, ZombieWindowsOnDistinctInstancesMayOverlap) {
  FaultPlan plan;
  plan.Zombie(0, sim::Seconds(5), sim::Seconds(15))
      .Zombie(1, sim::Seconds(10), sim::Seconds(20));
  plan.Validate();  // Overlap is only a defect per target.
}

TEST(FaultPlanDeathTest, ValidateRejectsNonPositiveFlapPeriod) {
  FaultPlan plan;
  plan.Flap(0, sim::Seconds(5), sim::Seconds(10), sim::Seconds(0), 0.5);
  EXPECT_EXIT(plan.Validate(), ::testing::ExitedWithCode(1),
              "flap period");
}

TEST(FaultPlanDeathTest, ValidateRejectsFlapDutyCycleAtTheBoundary) {
  // duty_up == 1 would be a no-op flap, duty_up == 0 a plain outage;
  // both are misuses of the kind, rejected rather than silently odd.
  FaultPlan plan;
  plan.Flap(0, sim::Seconds(5), sim::Seconds(10), sim::Seconds(1), 1.0);
  EXPECT_EXIT(plan.Validate(), ::testing::ExitedWithCode(1),
              "flap duty cycle");
}

TEST(FaultPlanDeathTest, ValidateRejectsDegradeFactorOutsideUnitInterval) {
  FaultPlan plan;
  plan.Degrade(0, sim::Seconds(5), sim::Seconds(10), 1.5, 0.5);
  EXPECT_EXIT(plan.Validate(), ::testing::ExitedWithCode(1),
              "degrade factors");
}

TEST(FaultPlanDeathTest, ValidateRejectsZeroDegradeFactor) {
  // Factor 0 is an outage, not a degradation (and divides by zero in
  // the wire-time model); the kind's domain is (0, 1].
  FaultPlan plan;
  plan.Degrade(0, sim::Seconds(5), sim::Seconds(10), 1.0, 0.0);
  EXPECT_EXIT(plan.Validate(), ::testing::ExitedWithCode(1),
              "degrade factors");
}

TEST(FaultPlanDeathTest, ValidateRejectsLinkDegradeWithFlopsFactor) {
  FaultPlan plan;
  plan.degrades.push_back({0, /*link=*/true, sim::Seconds(5),
                           sim::Seconds(10), /*flops_factor=*/0.5,
                           /*bandwidth_factor=*/0.5});
  EXPECT_EXIT(plan.Validate(), ::testing::ExitedWithCode(1),
              "link degrade carries flops_factor");
}

TEST(FaultPlanDeathTest, ValidateRejectsPartitionDroppingBothDirections) {
  FaultPlan plan;
  plan.Partition(1, sim::Seconds(5), sim::Seconds(10), /*drop_to=*/true,
                 /*drop_from=*/true);
  EXPECT_EXIT(plan.Validate(), ::testing::ExitedWithCode(1),
              "drops both directions");
}

TEST(FaultPlanDeathTest, ValidateRejectsPartitionDroppingNeitherDirection) {
  FaultPlan plan;
  plan.Partition(1, sim::Seconds(5), sim::Seconds(10), /*drop_to=*/false,
                 /*drop_from=*/false);
  EXPECT_EXIT(plan.Validate(), ::testing::ExitedWithCode(1),
              "drops neither direction");
}

// ------------------------------------------------------------- deadlines

TEST(RecoveryPolicyTest, DisabledPolicyNeverExpires) {
  const workload::SloTargets slo;
  workload::RequestSpec spec;
  spec.input_tokens = 500;
  spec.output_tokens = 100;
  RecoveryPolicy policy;  // Disabled by default.
  EXPECT_EQ(RequestDeadline(sim::Seconds(1), spec, slo, policy),
            sim::kTimeNever);
}

TEST(RecoveryPolicyTest, DeadlineScalesWithRequestLength) {
  const workload::SloTargets slo;
  RecoveryPolicy policy;
  policy.enabled = true;
  workload::RequestSpec small;
  small.input_tokens = 100;
  small.output_tokens = 10;
  workload::RequestSpec large;
  large.input_tokens = 4000;
  large.output_tokens = 400;
  const sim::Time arrival = sim::Seconds(2);
  const sim::Time d_small = RequestDeadline(arrival, small, slo, policy);
  const sim::Time d_large = RequestDeadline(arrival, large, slo, policy);
  EXPECT_GT(d_small, arrival);
  EXPECT_GT(d_large, d_small);  // Longer requests earn more patience.
}

// ------------------------------------------------- interconnect faults

TEST(InterconnectFaultTest, PermanentLossExhaustsAttemptsWithBackoff) {
  sim::Simulator simulator;
  gpu::Interconnect link(&simulator, "test/link", 600e9, 0);
  gpu::Interconnect::FaultModel model;
  model.failure_probability = 0.999999;  // Every attempt is lost.
  model.max_attempts = 2;
  model.initial_backoff = sim::Milliseconds(2);
  link.EnableFaults(model, sim::Rng(7));
  sim::Time failed_at = -1;
  bool done_fired = false;
  link.Transfer(
      600e6, [&] { done_fired = true; }, [&] { failed_at = simulator.Now(); });
  simulator.Run();
  EXPECT_FALSE(done_fired);
  // Attempt 1 occupies the wire [0, 1 ms), backs off 2 ms; attempt 2
  // starts at 3 ms and fails permanently when its wire time ends.
  EXPECT_NEAR(sim::ToMilliseconds(failed_at), 4.0, 0.001);
  EXPECT_EQ(link.attempts_failed(), 2u);
  EXPECT_EQ(link.transfers_failed(), 1u);
  EXPECT_EQ(link.transfers_completed(), 0u);
  EXPECT_DOUBLE_EQ(link.bytes_transferred(), 0.0);  // Counted at success.
}

TEST(InterconnectFaultTest, LossyLinkConservesTransferAccounting) {
  sim::Simulator simulator;
  gpu::Interconnect link(&simulator, "test/link", 600e9, 0);
  gpu::Interconnect::FaultModel model;
  model.failure_probability = 0.5;
  model.max_attempts = 3;
  model.initial_backoff = sim::Microseconds(100);
  link.EnableFaults(model, sim::Rng(11));
  std::size_t done = 0, failed = 0;
  constexpr int kTransfers = 100;
  for (int i = 0; i < kTransfers; ++i) {
    link.Transfer(1e6, [&] { ++done; }, [&] { ++failed; });
  }
  simulator.Run();
  EXPECT_EQ(done + failed, static_cast<std::size_t>(kTransfers));
  EXPECT_GT(done, 0u);    // At p=0.5 with 3 attempts most succeed...
  EXPECT_GT(failed, 0u);  // ...but 100 transfers see some p^3 streaks.
  EXPECT_EQ(link.transfers_completed(), done);
  EXPECT_EQ(link.transfers_failed(), failed);
  EXPECT_DOUBLE_EQ(link.bytes_transferred(), 1e6 * static_cast<double>(done));
}

TEST(InterconnectFaultTest, UnarmedLinkBehaviorIsUnchanged) {
  // A link that never had EnableFaults() called must take the exact
  // fault-free path: same completion time, no failure accounting.
  sim::Simulator simulator;
  gpu::Interconnect link(&simulator, "test/link", 600e9,
                         sim::Microseconds(10));
  sim::Time done = -1;
  link.Transfer(600e6, [&] { done = simulator.Now(); });
  simulator.Run();
  EXPECT_NEAR(sim::ToMilliseconds(done), 1.01, 0.001);
  EXPECT_EQ(link.attempts_failed(), 0u);
  EXPECT_EQ(link.transfers_failed(), 0u);
}

// ------------------------------------------------------- gpu fault hooks

TEST(GpuFaultTest, StragglerSlowdownStretchesRealizedDurations) {
  sim::Simulator simulator;
  gpu::Gpu device(&simulator, gpu::GpuSpec::A100());
  const gpu::StreamId stream = device.CreateStream(108);
  device.SetSlowdown(2.0);
  sim::Time done = -1;
  device.Launch(stream, gpu::Kernel::Memcpy(2.039e9),
                [&] { done = simulator.Now(); });
  simulator.Run();
  // The same memcpy takes ~1 ms at full speed (see test_cluster.cc).
  EXPECT_NEAR(sim::ToMilliseconds(done), 2.0, 0.05);
  device.SetSlowdown(1.0);
  EXPECT_DOUBLE_EQ(device.slowdown(), 1.0);
}

TEST(GpuFaultTest, AbortAllDropsInFlightCompletions) {
  sim::Simulator simulator;
  gpu::Gpu device(&simulator, gpu::GpuSpec::A100());
  const gpu::StreamId stream = device.CreateStream(108);
  bool fired = false;
  device.Launch(stream, gpu::Kernel::Memcpy(2.039e9), [&] { fired = true; });
  simulator.ScheduleAt(sim::Microseconds(100),
                       [&] { EXPECT_EQ(device.AbortAll(), 1u); });
  simulator.Run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(device.kernels_aborted(), 1u);
}

// ------------------------------------------------------------- injector

TEST(FaultInjectorTest, DeliversPlanAndCountsSkippedWindows) {
  sim::Simulator simulator;
  const serve::Deployment d = Llama70bA100();
  baselines::ChunkedPrefillEngine::Options options;
  options.token_budget = 256;
  options.recovery.enabled = true;
  baselines::ChunkedPrefillEngine engine(&simulator, d, options);

  FaultPlan plan;
  plan.Crash(0, sim::Seconds(2), sim::Seconds(3))
      .Straggle(0, sim::Seconds(4), sim::Seconds(5), 2.0)
      .DropTransfers(sim::Seconds(0), sim::Seconds(10), 0.01);
  FaultInjector injector(&simulator, plan);
  injector.Arm(engine);

  const workload::Trace trace =
      workload::GenerateTrace(workload::Dataset::kShareGpt, 30, 2.0, 41);
  const auto result = testutil::RunTrace(simulator, engine, trace);
  EXPECT_TRUE(result.all_completed);
  EXPECT_EQ(engine.InFlight(), 0u);

  EXPECT_EQ(injector.crashes_injected(), 1u);
  EXPECT_EQ(injector.recoveries_injected(), 1u);
  EXPECT_EQ(injector.straggler_edges_injected(), 2u);
  EXPECT_EQ(injector.transfer_edges_injected(), 0u);
  EXPECT_EQ(injector.windows_skipped(), 1u);  // Chunked has no link.

  check::InvariantRegistry registry;
  injector.RegisterAudits(registry);
  EXPECT_TRUE(registry.RunAll().empty());
}

TEST(FaultInjectorTest, DeliversGreyEdgesAndSkipsLinklessLinkWindows) {
  sim::Simulator simulator;
  const serve::Deployment d = Llama70bA100();
  baselines::ChunkedPrefillEngine::Options options;
  options.token_budget = 256;
  options.recovery.enabled = true;
  baselines::ChunkedPrefillEngine engine(&simulator, d, options);

  FaultPlan plan;
  plan.Zombie(0, sim::Seconds(2), sim::Seconds(3))
      .Degrade(0, sim::Seconds(1), sim::Seconds(2), 0.8, 0.9)
      .Flap(0, sim::Seconds(4), sim::Seconds(5), sim::Milliseconds(500), 0.5)
      .Partition(0, sim::Seconds(6), sim::Seconds(7), /*drop_to=*/false,
                 /*drop_from=*/true)
      .FlapLink(sim::Seconds(1), sim::Seconds(2), sim::Milliseconds(500), 0.5)
      .DegradeLink(sim::Seconds(3), sim::Seconds(4), 0.5);
  FaultInjector injector(&simulator, plan);
  injector.Arm(engine);

  const workload::Trace trace =
      workload::GenerateTrace(workload::Dataset::kShareGpt, 30, 2.0, 51);
  const auto result = testutil::RunTrace(simulator, engine, trace);
  EXPECT_TRUE(result.all_completed);
  EXPECT_EQ(engine.InFlight(), 0u);

  EXPECT_EQ(injector.zombie_edges_injected(), 2u);   // Freeze + thaw.
  EXPECT_EQ(injector.degrade_edges_injected(), 2u);  // Begin + restore.
  // The 1 s instance flap at period 500 ms toggles twice: down/up pairs
  // at t=4.0 and t=4.5.
  EXPECT_EQ(injector.flap_edges_injected(), 4u);
  EXPECT_EQ(injector.partition_edges_injected(), 2u);  // Cut + heal.
  // Chunked has no inter-instance link: the link flap and link degrade
  // windows are dropped and counted, not silently half-armed.
  EXPECT_EQ(injector.windows_skipped(), 2u);

  check::InvariantRegistry registry;
  injector.RegisterAudits(registry);
  EXPECT_TRUE(registry.RunAll().empty());
}

// ----------------------------------------------------- engine recovery

TEST(ChunkedRecoveryTest, CrashAndRecoverRetriesLostWork) {
  sim::Simulator simulator;
  const serve::Deployment d = Llama70bA100();
  baselines::ChunkedPrefillEngine::Options options;
  options.token_budget = 256;
  options.recovery.enabled = true;
  baselines::ChunkedPrefillEngine engine(&simulator, d, options);

  FaultPlan plan;
  plan.Crash(0, sim::Seconds(2), sim::Seconds(4));
  FaultInjector injector(&simulator, plan);
  injector.Arm(engine);

  const workload::Trace trace =
      workload::GenerateTrace(workload::Dataset::kShareGpt, 40, 2.0, 42);
  const auto result = testutil::RunTrace(simulator, engine, trace);
  EXPECT_TRUE(result.all_completed);
  EXPECT_EQ(engine.InFlight(), 0u);
  EXPECT_GT(engine.crash_requeues(), 0u);  // The crash hit live work.
  const serve::GoodputSplit split = result.metrics.Split();
  EXPECT_EQ(split.total(), trace.requests.size());
  EXPECT_GT(split.attained, 0u);
}

TEST(ChunkedRecoveryTest, OutageBacklogShedsNewWork) {
  // During a permanent outage nothing admits, so queued KV demand
  // accumulates; once it crosses the shed threshold new arrivals are
  // rejected up front rather than joining a hopeless queue.
  const serve::Deployment d = Llama70bA100();
  double capacity = 0.0;
  {
    sim::Simulator probe;
    baselines::ChunkedPrefillEngine::Options defaults;
    defaults.token_budget = 256;
    baselines::ChunkedPrefillEngine probe_engine(&probe, d, defaults);
    capacity = static_cast<double>(probe_engine.pool().capacity_tokens());
  }
  sim::Simulator simulator;
  baselines::ChunkedPrefillEngine::Options options;
  options.token_budget = 256;
  options.recovery.enabled = true;
  // Shed once ~20K tokens of demand are queued (a fraction of the
  // trace's total), so the run sheds some arrivals but not all.
  options.recovery.shed_demand_factor = 20000.0 / capacity;
  baselines::ChunkedPrefillEngine engine(&simulator, d, options);

  FaultPlan plan;
  plan.Crash(0, sim::Milliseconds(1));  // Never recovers.
  FaultInjector injector(&simulator, plan);
  injector.Arm(engine);

  workload::Trace trace =
      workload::GenerateTrace(workload::Dataset::kShareGpt, 80, 2.0, 43);
  workload::ResampleArrivalsPoisson(trace, 40.0, 43);  // Burst overload.
  const auto result = testutil::RunTrace(simulator, engine, trace);
  EXPECT_TRUE(result.all_completed);  // Shed requests are still notified.
  EXPECT_EQ(engine.InFlight(), 0u);
  EXPECT_GT(engine.shed_requests(), 0u);
  EXPECT_GT(engine.timed_out_requests(), 0u);  // The queued ones expire.
  const serve::GoodputSplit split = result.metrics.Split();
  EXPECT_EQ(split.shed, engine.shed_requests());
  EXPECT_EQ(split.attained, 0u);
  EXPECT_EQ(split.total(), trace.requests.size());
}

TEST(ChunkedRecoveryTest, PermanentOutageTimesOutEveryRequest) {
  sim::Simulator simulator;
  const serve::Deployment d = Llama70bA100();
  baselines::ChunkedPrefillEngine::Options options;
  options.token_budget = 256;
  options.recovery.enabled = true;
  baselines::ChunkedPrefillEngine engine(&simulator, d, options);

  FaultPlan plan;
  plan.Crash(0, sim::Milliseconds(1));  // Never recovers.
  FaultInjector injector(&simulator, plan);
  injector.Arm(engine);

  const workload::Trace trace =
      workload::GenerateTrace(workload::Dataset::kShareGpt, 20, 2.0, 44);
  const auto result = testutil::RunTrace(simulator, engine, trace);
  EXPECT_TRUE(result.all_completed);  // Deadlines reap everything.
  EXPECT_EQ(engine.InFlight(), 0u);
  const serve::GoodputSplit split = result.metrics.Split();
  EXPECT_EQ(split.attained, 0u);
  EXPECT_EQ(split.total(), trace.requests.size());
  EXPECT_GT(split.timed_out + split.shed, 0u);
}

TEST(StaticDisaggRecoveryTest, SurvivesCrashesOnBothDomains) {
  sim::Simulator simulator;
  const serve::Deployment d = Llama70bA100();
  RecoveryPolicy recovery;
  recovery.enabled = true;
  baselines::StaticDisaggEngine engine(&simulator, d, recovery);
  EXPECT_EQ(engine.NumFaultDomains(), 2u);

  FaultPlan plan;
  plan.Crash(0, sim::Seconds(2), sim::Seconds(3))   // Prefill instance.
      .Crash(1, sim::Seconds(6), sim::Seconds(7));  // Decode instance.
  FaultInjector injector(&simulator, plan);
  injector.Arm(engine);

  const workload::Trace trace =
      workload::GenerateTrace(workload::Dataset::kShareGpt, 30, 1.5, 45);
  const auto result = testutil::RunTrace(simulator, engine, trace);
  EXPECT_TRUE(result.all_completed);
  EXPECT_EQ(engine.InFlight(), 0u);
  EXPECT_EQ(result.metrics.Split().total(), trace.requests.size());
}

TEST(LoongServeRecoveryTest, SurvivesCrashWithLossyResharding) {
  sim::Simulator simulator;
  const serve::Deployment d = Llama70bA100();
  RecoveryPolicy recovery;
  recovery.enabled = true;
  baselines::LoongServeEngine engine(&simulator, d, recovery);

  FaultPlan plan;
  plan.Crash(0, sim::Seconds(2), sim::Seconds(3))
      .DropTransfers(sim::Seconds(0), sim::Seconds(30), 0.05);
  FaultInjector injector(&simulator, plan);
  injector.Arm(engine);
  EXPECT_NE(engine.FaultableLink(), nullptr);

  const workload::Trace trace =
      workload::GenerateTrace(workload::Dataset::kShareGpt, 30, 1.5, 46);
  const auto result = testutil::RunTrace(simulator, engine, trace);
  EXPECT_TRUE(result.all_completed);
  EXPECT_EQ(engine.InFlight(), 0u);
  EXPECT_EQ(injector.transfer_edges_injected(), 2u);
  EXPECT_EQ(result.metrics.Split().total(), trace.requests.size());
}

// ------------------------------------------------- drive-loop guards

/** Schedules a zero-delay event loop forever; time never advances. */
class LivelockEngine : public serve::Engine {
 public:
  explicit LivelockEngine(sim::Simulator* sim) : sim_(sim) {}
  const char* name() const override { return "Livelock"; }
  void Enqueue(std::unique_ptr<serve::Request> request) override {
    held_.push_back(std::move(request));
    if (held_.size() == 1) Spin();
  }
  std::size_t InFlight() const override { return held_.size(); }

 private:
  void Spin() {
    sim_->ScheduleAfter(0, [this] { Spin(); });
  }
  sim::Simulator* sim_;
  std::vector<std::unique_ptr<serve::Request>> held_;
};

/** Accepts requests and never schedules or completes anything. */
class BlackHoleEngine : public serve::Engine {
 public:
  const char* name() const override { return "BlackHole"; }
  void Enqueue(std::unique_ptr<serve::Request> request) override {
    held_.push_back(std::move(request));
  }
  std::size_t InFlight() const override { return held_.size(); }

 private:
  std::vector<std::unique_ptr<serve::Request>> held_;
};

TEST(DriveScenarioTest, LivelockedEngineTerminatesWithDiagnostic) {
  sim::Simulator simulator;
  LivelockEngine engine(&simulator);
  serve::MetricsCollector metrics;
  const workload::Trace trace =
      workload::GenerateTrace(workload::Dataset::kShareGpt, 2, 1.0, 47);
  serve::Frontend frontend(&simulator, &engine, &trace, &metrics);
  frontend.Start();
  harness::RunConfig config;
  config.event_budget = 10'000;  // Small budget so the test is instant.
  const harness::DriveResult result =
      harness::DriveScenario(simulator, frontend, trace, config);
  EXPECT_FALSE(result.stable);
  EXPECT_NE(result.diagnostic.find("livelock"), std::string::npos)
      << result.diagnostic;
}

TEST(DriveScenarioTest, StalledEngineHitsDrainTimeoutWithDiagnostic) {
  sim::Simulator simulator;
  BlackHoleEngine engine;
  serve::MetricsCollector metrics;
  const workload::Trace trace =
      workload::GenerateTrace(workload::Dataset::kShareGpt, 3, 1.0, 48);
  serve::Frontend frontend(&simulator, &engine, &trace, &metrics);
  frontend.Start();
  const harness::DriveResult result =
      harness::DriveScenario(simulator, frontend, trace,
                             harness::RunConfig());
  EXPECT_FALSE(result.stable);
  EXPECT_NE(result.diagnostic.find("never reached a terminal state"),
            std::string::npos)
      << result.diagnostic;
}

TEST(DriveScenarioTest, HealthyRunIsStableWithNoDiagnostic) {
  sim::Simulator simulator;
  const serve::Deployment d = Llama70bA100();
  baselines::ChunkedPrefillEngine::Options options;
  options.token_budget = 256;
  baselines::ChunkedPrefillEngine engine(&simulator, d, options);
  serve::MetricsCollector metrics;
  const workload::Trace trace =
      workload::GenerateTrace(workload::Dataset::kShareGpt, 10, 2.0, 49);
  serve::Frontend frontend(&simulator, &engine, &trace, &metrics);
  frontend.Start();
  const harness::DriveResult result =
      harness::DriveScenario(simulator, frontend, trace,
                             harness::RunConfig());
  EXPECT_TRUE(result.stable);
  EXPECT_TRUE(result.diagnostic.empty()) << result.diagnostic;
}

}  // namespace
}  // namespace muxwise::fault
