#include "muxwise/fuzz.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "fault/fault_plan.h"
#include "harness/scenario.h"
#include "sim/json.h"
#include "sim/time.h"

namespace muxwise::cli {
namespace {

std::string PlanFingerprint(const fault::FaultPlan& plan) {
  return json::Dump(PlanToJson(plan));
}

// A compact but complete scenario document the repro tests graft fault
// plans onto — small trace, fleet routing on, an existing plan that
// MakeReproText must *replace*, not merge with.
constexpr char kBaseScenario[] = R"({
  "name": "fuzz-base",
  "engine": "muxwise",
  "deployment": {"model": "Llama-70B", "gpu": "A100", "num_gpus": 8},
  "trace": {
    "mix": [
      {"dataset": "sharegpt", "requests": 20, "rate_per_second": 2.0,
       "seed": 7}
    ]
  },
  "fleet": {"enabled": true, "replicas": 3, "failover": true,
            "migration": true, "heartbeat_ms": 250},
  "faults": {
    "seed": 1,
    "zombies": [{"instance": 0, "from_seconds": 1, "to_seconds": 2}]
  }
})";

json::Value ParseBaseDoc() {
  json::Value doc;
  std::string error;
  EXPECT_TRUE(json::Parse(kBaseScenario, doc, error)) << error;
  return doc;
}

// ---------------------------------------------------------------------------
// Generation.
// ---------------------------------------------------------------------------

TEST(GeneratePlanTest, SameSeedYieldsTheSamePlan) {
  const PlanShape shape;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    const fault::FaultPlan a = GeneratePlan(seed, shape);
    const fault::FaultPlan b = GeneratePlan(seed, shape);
    EXPECT_EQ(PlanFingerprint(a), PlanFingerprint(b)) << "seed " << seed;
  }
}

TEST(GeneratePlanTest, DistinctSeedsExploreDistinctPlans) {
  const PlanShape shape;
  std::set<std::string> fingerprints;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    fingerprints.insert(PlanFingerprint(GeneratePlan(seed, shape)));
  }
  // Sixteen seeds collapsing onto a handful of plans would mean the
  // campaign barely explores; demand real diversity.
  EXPECT_GE(fingerprints.size(), 12u);
}

TEST(GeneratePlanTest, PlansAreValidateCleanAndNonEmpty) {
  PlanShape shape;
  shape.max_faults = 6;
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    const fault::FaultPlan plan = GeneratePlan(seed, shape);
    EXPECT_FALSE(plan.Empty()) << "seed " << seed;
    EXPECT_EQ(plan.Check(), "") << "seed " << seed;
  }
}

TEST(GeneratePlanTest, WindowsRespectTheShapeBounds) {
  PlanShape shape;
  shape.horizon_seconds = 20.0;
  shape.instances = 2;
  shape.max_faults = 5;
  const sim::Time horizon = sim::Seconds(shape.horizon_seconds);
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const fault::FaultPlan plan = GeneratePlan(seed, shape);
    const auto in_bounds = [&](sim::Time from, sim::Time to,
                               std::size_t instance) {
      EXPECT_GE(from, sim::Seconds(1)) << "seed " << seed;
      EXPECT_LE(to, horizon) << "seed " << seed;
      EXPECT_LT(from, to) << "seed " << seed;
      EXPECT_LT(instance, shape.instances) << "seed " << seed;
      // The millisecond grid is what makes the DSL round-trip exact.
      EXPECT_EQ(from % sim::Milliseconds(1), 0) << "seed " << seed;
      EXPECT_EQ(to % sim::Milliseconds(1), 0) << "seed " << seed;
    };
    for (const auto& w : plan.stragglers) in_bounds(w.from, w.to, w.instance);
    for (const auto& w : plan.zombies) in_bounds(w.from, w.to, w.instance);
    for (const auto& w : plan.flaps) in_bounds(w.from, w.to, w.instance);
    for (const auto& w : plan.degrades) in_bounds(w.from, w.to, w.instance);
    for (const auto& w : plan.partitions) in_bounds(w.from, w.to, w.instance);
    for (const auto& c : plan.crashes) {
      EXPECT_GE(c.at, sim::Seconds(1)) << "seed " << seed;
      EXPECT_LT(c.instance, shape.instances) << "seed " << seed;
    }
  }
}

// ---------------------------------------------------------------------------
// Repro serialization: the scenario-DSL round trip.
// ---------------------------------------------------------------------------

fault::FaultPlan AllKindsPlan() {
  fault::FaultPlan plan;
  plan.seed = 424242;
  plan.Crash(0, sim::Seconds(9), sim::Seconds(11))
      .Straggle(1, sim::Seconds(2), sim::Seconds(4), 2.5)
      .DropTransfers(sim::Seconds(1), sim::Seconds(20), 0.05)
      .Zombie(1, sim::Seconds(5), sim::Seconds(8))
      .Flap(2, sim::Seconds(12), sim::Seconds(15), sim::Milliseconds(750),
            0.6)
      .FlapLink(sim::Seconds(3), sim::Seconds(5), sim::Milliseconds(500),
                0.5)
      .Degrade(0, sim::Seconds(2), sim::Seconds(6), 0.7, 0.8)
      .DegradeLink(sim::Seconds(13), sim::Seconds(16), 0.5)
      .Partition(2, sim::Seconds(16), sim::Seconds(18), false, true);
  return plan;
}

TEST(ReproTest, MakeReproTextIsByteDeterministic) {
  const json::Value doc = ParseBaseDoc();
  const fault::FaultPlan plan = AllKindsPlan();
  const std::string a = MakeReproText(doc, plan, "repro-bytes");
  const std::string b = MakeReproText(doc, plan, "repro-bytes");
  EXPECT_EQ(a, b);
}

TEST(ReproTest, AllSevenKindsRoundTripThroughTheScenarioDsl) {
  const json::Value doc = ParseBaseDoc();
  const fault::FaultPlan plan = AllKindsPlan();
  const std::string text = MakeReproText(doc, plan, "repro-roundtrip");

  const harness::ScenarioParseResult parsed =
      harness::ParseScenarioJson(text, "repro-roundtrip");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(parsed.spec->name, "repro-roundtrip");
  ASSERT_TRUE(parsed.spec->config.fault_plan.has_value());
  // The repro's plan replaces the base document's (no merge with the
  // zombie the base carried), and survives serialization exactly.
  EXPECT_EQ(PlanFingerprint(*parsed.spec->config.fault_plan),
            PlanFingerprint(plan));
}

TEST(ReproTest, GeneratedPlansSurviveTheRoundTripExactly) {
  const json::Value doc = ParseBaseDoc();
  PlanShape shape;
  shape.max_faults = 6;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const fault::FaultPlan plan = GeneratePlan(seed, shape);
    const std::string text = MakeReproText(doc, plan, "repro-gen");
    const harness::ScenarioParseResult parsed =
        harness::ParseScenarioJson(text, "repro-gen");
    ASSERT_TRUE(parsed.ok()) << "seed " << seed << ": " << parsed.error;
    ASSERT_TRUE(parsed.spec->config.fault_plan.has_value());
    EXPECT_EQ(PlanFingerprint(*parsed.spec->config.fault_plan),
              PlanFingerprint(plan))
        << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Shrinking, against synthetic predicates (no simulation runs — the
// predicate *is* the oracle, so minimality and determinism are exact).
// ---------------------------------------------------------------------------

fault::FaultPlan NoisyPlan() {
  fault::FaultPlan plan;
  plan.Zombie(1, sim::Seconds(5), sim::Seconds(40))
      .Flap(2, sim::Seconds(3), sim::Seconds(9), sim::Seconds(1), 0.5)
      .Degrade(0, sim::Seconds(10), sim::Seconds(20), 0.3, 0.4)
      .Partition(0, sim::Seconds(25), sim::Seconds(30), true, false)
      .Straggle(2, sim::Seconds(12), sim::Seconds(18), 3.0);
  return plan;
}

TEST(ShrinkTest, DropsEveryIrrelevantFaultAndNarrowsTheWindow) {
  const auto fails = [](const fault::FaultPlan& p) {
    for (const auto& w : p.zombies) {
      if (w.instance == 1) return true;
    }
    return false;
  };
  const ShrinkResult r = ShrinkWith(NoisyPlan(), fails);
  ASSERT_EQ(r.plan.zombies.size(), 1u);
  EXPECT_EQ(r.plan.zombies[0].instance, 1u);
  EXPECT_TRUE(r.plan.flaps.empty());
  EXPECT_TRUE(r.plan.degrades.empty());
  EXPECT_TRUE(r.plan.partitions.empty());
  EXPECT_TRUE(r.plan.stragglers.empty());
  // 35 s of window collapses to tens of milliseconds: halving runs to
  // the 10 ms floor and the onset binary search closes within 20 ms.
  const sim::Duration len = r.plan.zombies[0].to - r.plan.zombies[0].from;
  EXPECT_LE(len, sim::Milliseconds(50));
  EXPECT_GE(len, sim::Milliseconds(10));
  EXPECT_EQ(r.plan.Check(), "");
}

TEST(ShrinkTest, IsDeterministicAndAFixpoint) {
  const auto fails = [](const fault::FaultPlan& p) {
    for (const auto& w : p.zombies) {
      if (w.instance == 1) return true;
    }
    return false;
  };
  const ShrinkResult a = ShrinkWith(NoisyPlan(), fails);
  const ShrinkResult b = ShrinkWith(NoisyPlan(), fails);
  EXPECT_EQ(PlanFingerprint(a.plan), PlanFingerprint(b.plan));
  EXPECT_EQ(a.attempts, b.attempts);
  // Shrinking the minimum again must change nothing (and spend only
  // the probing attempts, not find further cuts).
  const ShrinkResult again = ShrinkWith(a.plan, fails);
  EXPECT_EQ(PlanFingerprint(again.plan), PlanFingerprint(a.plan));
}

TEST(ShrinkTest, SoftensMagnitudesTowardIdentity) {
  fault::FaultPlan plan;
  plan.Degrade(0, sim::Seconds(2), sim::Seconds(30), 0.3, 0.4);
  // The predicate only cares that *a* degrade exists, so softening is
  // free to walk both factors toward 1.0 (the last candidate the
  // 2-decimal rounding can distinguish from identity still fails).
  const auto fails = [](const fault::FaultPlan& p) {
    return !p.degrades.empty();
  };
  const ShrinkResult r = ShrinkWith(plan, fails);
  ASSERT_EQ(r.plan.degrades.size(), 1u);
  EXPECT_GE(r.plan.degrades[0].flops_factor, 0.9);
  EXPECT_GE(r.plan.degrades[0].bandwidth_factor, 0.9);
  EXPECT_EQ(r.plan.Check(), "");
}

TEST(ShrinkTest, NeverShrinksToAnEmptyPlan) {
  fault::FaultPlan plan;
  plan.Zombie(0, sim::Seconds(2), sim::Seconds(4));
  // A predicate that fails for every plan (e.g. a scenario-level bug
  // independent of the faults) must still leave one entry standing —
  // an empty repro reproduces nothing.
  const auto fails = [](const fault::FaultPlan&) { return true; };
  const ShrinkResult r = ShrinkWith(plan, fails);
  EXPECT_FALSE(r.plan.Empty());
}

TEST(ShrinkTest, KeepsOnlyTheFailingMemberOfAnInteractingPair) {
  // The flap matters, the zombie rides along; the minimized plan keeps
  // exactly the flap and narrows it.
  fault::FaultPlan plan;
  plan.Zombie(0, sim::Seconds(2), sim::Seconds(10))
      .FlapLink(sim::Seconds(4), sim::Seconds(30), sim::Milliseconds(500),
                0.5);
  const auto fails = [](const fault::FaultPlan& p) {
    return !p.flaps.empty() && p.flaps[0].link;
  };
  const ShrinkResult r = ShrinkWith(plan, fails);
  EXPECT_TRUE(r.plan.zombies.empty());
  ASSERT_EQ(r.plan.flaps.size(), 1u);
  EXPECT_TRUE(r.plan.flaps[0].link);
  EXPECT_LT(r.plan.flaps[0].to - r.plan.flaps[0].from, sim::Seconds(26));
  // Duty softens toward mostly-up (0.9), the mildest flap that fails.
  EXPECT_GE(r.plan.flaps[0].duty_up, 0.5);
}

}  // namespace
}  // namespace muxwise::cli
