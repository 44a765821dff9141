#ifndef MUXWISE_TOOLS_MUXWISE_FUZZ_H_
#define MUXWISE_TOOLS_MUXWISE_FUZZ_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "muxwise/check.h"
#include "sim/json.h"

namespace muxwise::cli {

/**
 * Deterministic property-based chaos campaign over the scenario DSL.
 *
 * A campaign crosses seeded random FaultPlans (all seven fault kinds)
 * with a base scenario file and checks every run against the repo's
 * robustness properties through CheckScenario: harness::CheckRun's
 * property set (stable drain, ledger balance, double-run identity),
 * plus the end-of-run invariant audits (a violated audit panics, which
 * the fork-isolated checker reports as a crash). A failing plan is
 * shrunk — drop faults, narrow windows, soften magnitudes, binary-
 * search onsets — to a minimal still-failing plan, and emitted as a
 * self-contained scenario JSON repro that `muxwise check` (and the
 * checked-in tests/chaos_corpus/ regression suite) re-runs.
 *
 * Everything is seed-determined: the same seed yields the same plans,
 * the same verdicts, and a byte-identical minimized repro.
 */

/** Bounds of one generated plan. */
struct PlanShape {
  /** Fault windows live inside [1, horizon_seconds). */
  double horizon_seconds = 60.0;

  /** Instance indices targeted (mapped onto fault domains mod N). */
  std::size_t instances = 3;

  /** Fault entries drawn per plan (at least 1). */
  std::size_t max_faults = 4;
};

/**
 * Generates a Validate-clean plan from `seed`: every draw comes from a
 * forked sim::Rng, entries that would collide (overlapping windows on
 * one target) are re-drawn a bounded number of times, and all times
 * land on a millisecond grid so the plan round-trips exactly through
 * the scenario DSL.
 */
fault::FaultPlan GeneratePlan(std::uint64_t seed, const PlanShape& shape);

/** The plan as a scenario-DSL "faults" object (empty arrays omitted). */
json::Value PlanToJson(const fault::FaultPlan& plan);

/**
 * Self-contained repro: `base_doc` (a parsed scenario object) with its
 * "name" and "faults" members replaced. Deterministic serialization —
 * the byte-identity the regression corpus relies on.
 */
std::string MakeReproText(const json::Value& base_doc,
                          const fault::FaultPlan& plan,
                          const std::string& name);

/**
 * Round-trips `plan` through the scenario DSL against `base_doc`
 * (serialize, re-parse, run) and checks it. The round-trip is the
 * point: a verdict earned here is a verdict the emitted repro file
 * reproduces byte-for-byte.
 */
Verdict CheckPlan(const json::Value& base_doc,
                  const fault::FaultPlan& plan);

struct ShrinkResult {
  fault::FaultPlan plan;
  std::size_t attempts = 0;  // Candidate evaluations spent.
  Verdict verdict;           // Verdict of the minimized plan.
};

/** Does this candidate plan still fail? (Shrink keeps failing ones.) */
using FailurePredicate = std::function<bool(const fault::FaultPlan&)>;

/**
 * Greedy deterministic shrink of a failing plan, in a fixed pass
 * order: (1) drop whole fault entries to a fixpoint, (2) halve window
 * durations from the right and binary-search the latest still-failing
 * onset, (3) soften magnitudes toward their identity (slowdown -> 1,
 * drop probability -> 0, degrade factors -> 1, flap duty -> mostly
 * up). Same plan + same predicate => same minimized plan, always.
 * The verdict field of the result is left kPass; campaign callers use
 * Shrink() below, which re-checks the minimized plan.
 */
ShrinkResult ShrinkWith(const fault::FaultPlan& plan,
                        const FailurePredicate& fails);

/**
 * ShrinkWith against the real checker: every candidate is judged
 * through CheckPlan's DSL round-trip, so the minimized plan's failure
 * is reproducible from its emitted JSON. `verdict` carries the
 * minimized plan's (still-failing) verdict.
 */
ShrinkResult Shrink(const json::Value& base_doc,
                    const fault::FaultPlan& plan);

struct CampaignOptions {
  std::uint64_t seed = 1;
  std::size_t runs = 50;
  PlanShape shape;
  std::string out_dir = ".";  // Where minimized repros are written.
};

struct CampaignFailure {
  std::uint64_t seed = 0;
  Verdict verdict;          // Of the minimized (or original) plan.
  std::string repro_path;   // Emitted repro file.
  std::size_t shrink_attempts = 0;
};

struct CampaignResult {
  std::size_t runs = 0;
  std::vector<CampaignFailure> failures;
  std::string error;  // Non-empty when the campaign could not start.

  bool ok() const { return error.empty() && failures.empty(); }
};

/**
 * Runs `options.runs` seeded plans against the scenario at
 * `scenario_path`. Per-run seeds are derived from `options.seed`, so
 * a campaign is exactly repeatable. Progress lines go to `log` (may
 * be nullptr). The estimator cache is warmed in-process first, so
 * forked children inherit the profile instead of re-profiling.
 */
CampaignResult RunCampaign(const std::string& scenario_path,
                           const CampaignOptions& options, std::FILE* log);

}  // namespace muxwise::cli

#endif  // MUXWISE_TOOLS_MUXWISE_FUZZ_H_
