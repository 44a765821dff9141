#include "overload/controller.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "check/invariant_registry.h"
#include "kv/kv_pool.h"
#include "sim/time.h"
#include "workload/slo.h"

namespace muxwise::overload {
namespace {

using sim::Milliseconds;
using sim::Seconds;
using workload::SloClass;

Policy EnabledPolicy() {
  Policy policy;
  policy.enabled = true;
  return policy;
}

std::size_t AuditFailures(const check::InvariantRegistry& registry) {
  return registry.RunAll().size();
}

// ---------------------------------------------------------------- modes

TEST(ControllerModeTest, DisabledControllerNeverMoves) {
  Controller ctl{Policy{}};
  EXPECT_FALSE(ctl.Observe(Seconds(1), 0.99, Seconds(100)));
  EXPECT_EQ(ctl.mode(), Mode::kNormal);
  EXPECT_DOUBLE_EQ(ctl.PrefillScale(), 1.0);
  EXPECT_FALSE(ctl.DeferBatch());
  EXPECT_FALSE(ctl.PreemptionEligible());
  const auto decision = ctl.Admit(SloClass::kBatch, 1 << 20, Seconds(1), 0);
  EXPECT_EQ(decision.action, AdmissionDecision::Action::kAdmit);
}

TEST(ControllerModeTest, EscalatesImmediatelyOnEitherSignal) {
  Controller ctl{EnabledPolicy()};
  // Occupancy alone trips Pressure.
  EXPECT_TRUE(ctl.Observe(Seconds(1), 0.72, 0));
  EXPECT_EQ(ctl.mode(), Mode::kPressure);
  // Queue delay alone trips Shed, skipping Brownout (no dwell on the
  // way up — overload never waits).
  EXPECT_TRUE(ctl.Observe(Seconds(1) + Milliseconds(1), 0.72, Seconds(25)));
  EXPECT_EQ(ctl.mode(), Mode::kShed);
  EXPECT_EQ(ctl.mode_transitions(), 2u);
  EXPECT_EQ(ctl.mode_entries(Mode::kShed), 1u);
}

TEST(ControllerModeTest, DeEscalationIsDwellGatedAndOneRungAtATime) {
  Controller ctl{EnabledPolicy()};
  ASSERT_TRUE(ctl.Observe(Seconds(1), 0.96, 0));  // -> Shed.
  ASSERT_EQ(ctl.mode(), Mode::kShed);
  // Signals clear instantly, but the dwell (500 ms) has not elapsed.
  EXPECT_FALSE(ctl.Observe(Seconds(1) + Milliseconds(100), 0.10, 0));
  EXPECT_EQ(ctl.mode(), Mode::kShed);
  // After the dwell: one rung down, not straight to Normal.
  EXPECT_TRUE(ctl.Observe(Seconds(2), 0.10, 0));
  EXPECT_EQ(ctl.mode(), Mode::kBrownout);
  EXPECT_TRUE(ctl.Observe(Seconds(3), 0.10, 0));
  EXPECT_EQ(ctl.mode(), Mode::kPressure);
  EXPECT_TRUE(ctl.Observe(Seconds(4), 0.10, 0));
  EXPECT_EQ(ctl.mode(), Mode::kNormal);
}

TEST(ControllerModeTest, HysteresisBandHoldsTheMode) {
  Controller ctl{EnabledPolicy()};
  ASSERT_TRUE(ctl.Observe(Seconds(1), 0.72, 0));  // -> Pressure at 0.70.
  // 0.65 is below the 0.70 entry but above the 0.60 exit: no flap.
  EXPECT_FALSE(ctl.Observe(Seconds(5), 0.65, 0));
  EXPECT_EQ(ctl.mode(), Mode::kPressure);
  EXPECT_TRUE(ctl.Observe(Seconds(6), 0.55, 0));
  EXPECT_EQ(ctl.mode(), Mode::kNormal);
}

TEST(ControllerModeTest, PrefillScaleFollowsTheLadder) {
  Policy policy = EnabledPolicy();
  Controller ctl{policy};
  EXPECT_DOUBLE_EQ(ctl.PrefillScale(), kPrefillScale[0]);
  ctl.Observe(Seconds(1), 0.72, 0);
  EXPECT_DOUBLE_EQ(ctl.PrefillScale(), kPrefillScale[1]);
  ctl.Observe(Seconds(2), 0.86, 0);
  EXPECT_DOUBLE_EQ(ctl.PrefillScale(), kPrefillScale[2]);
  EXPECT_TRUE(ctl.DeferBatch());
  ctl.Observe(Seconds(3), 0.96, 0);
  EXPECT_DOUBLE_EQ(ctl.PrefillScale(), kPrefillScale[3]);
  EXPECT_TRUE(ctl.PreemptionEligible());
}

// ------------------------------------------------------------ admission

TEST(ControllerAdmitTest, BucketMathIsDeterministic) {
  Policy policy = EnabledPolicy();
  policy.bucket_rate_tokens_per_s[workload::SloClassRank(
      SloClass::kStandard)] = 1000.0;
  policy.bucket_capacity_tokens[workload::SloClassRank(
      SloClass::kStandard)] = 500.0;
  Controller ctl{policy};

  // Bucket starts full: 400 of 500 admits and leaves 100.
  auto first = ctl.Admit(SloClass::kStandard, 400, Seconds(1), 0);
  EXPECT_EQ(first.action, AdmissionDecision::Action::kAdmit);
  // 400 more: deficit 300 at 1000 tok/s -> retry in exactly 300 ms.
  auto second = ctl.Admit(SloClass::kStandard, 400, Seconds(1), 1);
  EXPECT_EQ(second.action, AdmissionDecision::Action::kDelay);
  EXPECT_EQ(second.retry_at, Seconds(1) + Milliseconds(300));
  // At the retry time the bucket has refilled to exactly the demand.
  auto third = ctl.Admit(SloClass::kStandard, 400, second.retry_at, 1);
  EXPECT_EQ(third.action, AdmissionDecision::Action::kAdmit);
  EXPECT_EQ(ctl.admitted(SloClass::kStandard), 2u);
  EXPECT_EQ(ctl.delayed(SloClass::kStandard), 1u);
}

TEST(ControllerAdmitTest, ZeroRateDisablesTheBucket) {
  Controller ctl{EnabledPolicy()};
  const auto decision =
      ctl.Admit(SloClass::kInteractive, 1 << 30, Seconds(1), 0);
  EXPECT_EQ(decision.action, AdmissionDecision::Action::kAdmit);
}

TEST(ControllerAdmitTest, BucketsAreIndependentPerClass) {
  Policy policy = EnabledPolicy();
  const int batch = workload::SloClassRank(SloClass::kBatch);
  policy.bucket_rate_tokens_per_s[batch] = 100.0;
  policy.bucket_capacity_tokens[batch] = 100.0;
  Controller ctl{policy};
  // Draining the batch bucket leaves interactive unlimited.
  EXPECT_EQ(ctl.Admit(SloClass::kBatch, 100, Seconds(1), 0).action,
            AdmissionDecision::Action::kAdmit);
  EXPECT_EQ(ctl.Admit(SloClass::kBatch, 100, Seconds(1), 1).action,
            AdmissionDecision::Action::kDelay);
  EXPECT_EQ(ctl.Admit(SloClass::kInteractive, 100, Seconds(1), 0).action,
            AdmissionDecision::Action::kAdmit);
}

TEST(ControllerAdmitTest, ModeLadderShedsBatchFirstInteractiveLast) {
  Controller ctl{EnabledPolicy()};
  ctl.Observe(Seconds(1), 0.86, 0);  // -> Brownout.
  // Brownout defers batch but leaves standard and interactive alone.
  EXPECT_EQ(ctl.Admit(SloClass::kBatch, 10, Seconds(1), 0).action,
            AdmissionDecision::Action::kDelay);
  EXPECT_EQ(ctl.Admit(SloClass::kStandard, 10, Seconds(1), 0).action,
            AdmissionDecision::Action::kAdmit);
  EXPECT_EQ(ctl.Admit(SloClass::kInteractive, 10, Seconds(1), 0).action,
            AdmissionDecision::Action::kAdmit);
  ctl.Observe(Seconds(2), 0.96, 0);  // -> Shed.
  EXPECT_EQ(ctl.Admit(SloClass::kBatch, 10, Seconds(2), 0).action,
            AdmissionDecision::Action::kShed);
  EXPECT_EQ(ctl.Admit(SloClass::kStandard, 10, Seconds(2), 0).action,
            AdmissionDecision::Action::kShed);
  // Interactive is never mode-shed, only bounded by the hard queue cap.
  EXPECT_EQ(ctl.Admit(SloClass::kInteractive, 10, Seconds(2), 0).action,
            AdmissionDecision::Action::kAdmit);
}

TEST(ControllerAdmitTest, HardQueueBoundShedsEveryClass) {
  Policy policy = EnabledPolicy();
  policy.max_queue_per_class = 8;
  Controller ctl{policy};
  EXPECT_EQ(ctl.Admit(SloClass::kInteractive, 10, Seconds(1), 8).action,
            AdmissionDecision::Action::kShed);
  EXPECT_EQ(ctl.Admit(SloClass::kInteractive, 10, Seconds(1), 7).action,
            AdmissionDecision::Action::kAdmit);
  EXPECT_EQ(ctl.shed(SloClass::kInteractive), 1u);
}

// ----------------------------------------------- preemption primitives

TEST(PreemptBeforeTest, OrdersByClassProgressCostThenId) {
  const VictimKey batch{SloClass::kBatch, 10, 5.0, 7};
  const VictimKey standard{SloClass::kStandard, 0, 0.0, 1};
  EXPECT_TRUE(PreemptBefore(batch, standard));   // Lowest class first.
  EXPECT_FALSE(PreemptBefore(standard, batch));

  const VictimKey early{SloClass::kBatch, 2, 9.0, 9};
  EXPECT_TRUE(PreemptBefore(early, batch));      // Least progress first.

  const VictimKey cheap{SloClass::kBatch, 10, 1.0, 9};
  EXPECT_TRUE(PreemptBefore(cheap, batch));      // Cheapest recompute.

  const VictimKey tie_low{SloClass::kBatch, 10, 5.0, 3};
  EXPECT_TRUE(PreemptBefore(tie_low, batch));    // Id tie-break.
  EXPECT_FALSE(PreemptBefore(batch, batch));     // Strict ordering.
}

TEST(PreemptBeforeTest, SortYieldsDeterministicVictimOrder) {
  std::vector<VictimKey> keys = {
      {SloClass::kInteractive, 0, 0.1, 4},
      {SloClass::kBatch, 5, 2.0, 3},
      {SloClass::kStandard, 0, 0.5, 2},
      {SloClass::kBatch, 0, 2.0, 1},
  };
  std::sort(keys.begin(), keys.end(), PreemptBefore);
  EXPECT_EQ(keys[0].request_id, 1);  // Batch, least progress.
  EXPECT_EQ(keys[1].request_id, 3);  // Batch, more progress.
  EXPECT_EQ(keys[2].request_id, 2);  // Standard.
  EXPECT_EQ(keys[3].request_id, 4);  // Interactive, preempted last.
}

TEST(ControllerSpillTest, SpillCheaperModelsTheRoundTrip) {
  // 1 GB each way at 1 GB/s plus 2 ms latency: 2.002 s round trip.
  EXPECT_TRUE(SpillCheaper(1.0e9, 3.0, 1.0e9, Milliseconds(1)));
  EXPECT_FALSE(SpillCheaper(1.0e9, 1.0, 1.0e9, Milliseconds(1)));

  Policy policy = EnabledPolicy();
  policy.spill = false;
  Controller no_spill{policy};
  EXPECT_FALSE(no_spill.SpillCheaper(1.0, 1.0e9));
}

// ------------------------------------------------------- spill ledger

TEST(KvSpillLedgerTest, SpillFreesHbmAndRestoreReclaimsIt) {
  kv::KvPool pool(1000);
  ASSERT_TRUE(pool.TryReserve(600));
  pool.SpillReserved(400);
  EXPECT_EQ(pool.reserved_tokens(), 200);
  EXPECT_EQ(pool.free_tokens(), 800);  // Spilled pages left the HBM.
  EXPECT_EQ(pool.spilled_tokens(), 400);

  EXPECT_TRUE(pool.TryRestoreSpilled(400));
  EXPECT_EQ(pool.reserved_tokens(), 600);
  EXPECT_EQ(pool.spilled_tokens(), 0);
  EXPECT_EQ(pool.restored_total(), 400);
  pool.ReleaseReserved(600);

  check::InvariantRegistry registry;
  pool.RegisterAudits(registry);
  EXPECT_EQ(AuditFailures(registry), 0u);
}

TEST(KvSpillLedgerTest, RestoreFailsWhenTheHbmIsFull) {
  kv::KvPool pool(1000);
  ASSERT_TRUE(pool.TryReserve(1000));
  pool.SpillReserved(300);
  // 700 still reserved; restoring 300 fits exactly.
  ASSERT_TRUE(pool.TryReserve(300));  // Steal the freed room.
  EXPECT_FALSE(pool.TryRestoreSpilled(300));
  EXPECT_EQ(pool.spilled_tokens(), 300);  // Unchanged on failure.
  pool.ReleaseReserved(300);
  EXPECT_TRUE(pool.TryRestoreSpilled(300));
  pool.ReleaseReserved(1000);
}

TEST(KvSpillLedgerTest, DroppedSpillBalancesTheLedger) {
  kv::KvPool pool(1000);
  ASSERT_TRUE(pool.TryReserve(500));
  pool.SpillReserved(500);
  pool.DropSpilled(500);  // Crash path: pages on the host are lost.
  EXPECT_EQ(pool.spilled_tokens(), 0);
  EXPECT_EQ(pool.dropped_spill_total(), 500);
  EXPECT_EQ(pool.spilled_in_total(), 500);

  check::InvariantRegistry registry;
  pool.RegisterAudits(registry);
  EXPECT_EQ(AuditFailures(registry), 0u);
}

TEST(KvSpillLedgerTest, UnreturnedSpillFailsTheQuiescenceAudit) {
  kv::KvPool pool(1000);
  ASSERT_TRUE(pool.TryReserve(100));
  pool.SpillReserved(100);
  check::InvariantRegistry registry;
  pool.RegisterAudits(registry);
  // Quiescence demands every spilled page restored or dropped.
  EXPECT_GT(AuditFailures(registry), 0u);
  pool.DropSpilled(100);
  EXPECT_EQ(AuditFailures(registry), 0u);
}

}  // namespace
}  // namespace muxwise::overload
