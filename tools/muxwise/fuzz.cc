#include "muxwise/fuzz.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <utility>

#include "harness/runner.h"
#include "muxwise/cli.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace muxwise::cli {

using json::SetKey;
using json::Str;

namespace {

// ---------------------------------------------------------------------------
// Millisecond grid. Generated and shrunk times/magnitudes are snapped
// so plans round-trip exactly through the scenario DSL's *_seconds
// doubles, keeping repro files both readable and faithful.
// ---------------------------------------------------------------------------

double Round3(double x) { return std::round(x * 1000.0) / 1000.0; }
double Round2(double x) { return std::round(x * 100.0) / 100.0; }

sim::Time SnapMs(sim::Time t) { return (t / 1'000'000) * 1'000'000; }

/** Uniform draw snapped to the millisecond grid. */
double DrawSeconds(sim::Rng& rng, double lo, double hi) {
  return Round3(rng.Uniform(lo, hi));
}

/**
 * Seconds-on-the-grid to sim::Time. sim::Seconds truncates, so
 * 7.123 * 1e9 (stored as 7122999999.99…) would land 1 ns off the
 * millisecond grid; building from a rounded millisecond count is
 * exact for every value the generator draws.
 */
sim::Time GridTime(double seconds) {
  return sim::Milliseconds(
      static_cast<double>(std::llround(seconds * 1000.0)));
}

void AddRandomFault(fault::FaultPlan& plan, sim::Rng& rng,
                    const PlanShape& shape) {
  const double h = shape.horizon_seconds;
  const auto inst = static_cast<std::size_t>(rng.UniformInt(
      0, static_cast<std::int64_t>(shape.instances) - 1));
  switch (rng.UniformInt(0, 6)) {
    case 0: {  // Crash (always recovers, so runs always drain).
      const double at = DrawSeconds(rng, 1.0, 0.6 * h);
      const double dur = DrawSeconds(rng, 0.5, 0.3 * h);
      plan.Crash(inst, GridTime(at), GridTime(at + dur));
      break;
    }
    case 1: {  // Straggler.
      const double from = DrawSeconds(rng, 1.0, 0.7 * h);
      const double dur = DrawSeconds(rng, 0.5, 0.25 * h);
      plan.Straggle(inst, GridTime(from), GridTime(from + dur),
                    Round2(rng.Uniform(1.25, 6.0)));
      break;
    }
    case 2: {  // Transfer-loss window.
      const double from = DrawSeconds(rng, 1.0, 0.7 * h);
      const double dur = DrawSeconds(rng, 0.5, 0.25 * h);
      plan.DropTransfers(GridTime(from), GridTime(from + dur),
                         Round2(rng.Uniform(0.05, 0.8)));
      break;
    }
    case 3: {  // Zombie.
      const double from = DrawSeconds(rng, 1.0, 0.6 * h);
      const double dur = DrawSeconds(rng, 0.5, 0.2 * h);
      plan.Zombie(inst, GridTime(from), GridTime(from + dur));
      break;
    }
    case 4: {  // Flap (heartbeat path, or the fleet link).
      const bool link = rng.Bernoulli(0.3);
      const double from = DrawSeconds(rng, 1.0, 0.6 * h);
      const double dur = DrawSeconds(rng, 1.0, 0.3 * h);
      const double period = Round3(rng.Uniform(0.2, 2.5));
      const double duty = Round2(rng.Uniform(0.2, 0.8));
      if (link) {
        plan.FlapLink(GridTime(from), GridTime(from + dur),
                      GridTime(period), duty);
      } else {
        plan.Flap(inst, GridTime(from), GridTime(from + dur),
                  GridTime(period), duty);
      }
      break;
    }
    case 5: {  // Degrade (instance compute/HBM, or the fleet link).
      const bool link = rng.Bernoulli(0.3);
      const double from = DrawSeconds(rng, 1.0, 0.6 * h);
      const double dur = DrawSeconds(rng, 0.5, 0.25 * h);
      const double ff = Round2(rng.Uniform(0.3, 0.95));
      const double bf = Round2(rng.Uniform(0.3, 0.95));
      if (link) {
        plan.DegradeLink(GridTime(from), GridTime(from + dur), bf);
      } else {
        plan.Degrade(inst, GridTime(from), GridTime(from + dur), ff,
                     bf);
      }
      break;
    }
    default: {  // Asymmetric partition (one direction only).
      const bool drop_to = rng.Bernoulli(0.5);
      const double from = DrawSeconds(rng, 1.0, 0.6 * h);
      const double dur = DrawSeconds(rng, 0.5, 0.2 * h);
      plan.Partition(inst, GridTime(from), GridTime(from + dur),
                     drop_to, !drop_to);
      break;
    }
  }
}

}  // namespace

fault::FaultPlan GeneratePlan(std::uint64_t seed, const PlanShape& shape) {
  sim::Rng rng = sim::Rng(seed).Fork("chaosfuzz-plan");
  fault::FaultPlan plan;
  // Transfer-loss stream seed; bounded so it survives a JSON double.
  plan.seed =
      static_cast<std::uint64_t>(rng.UniformInt(1, 1'000'000'000'000));
  const std::int64_t n = rng.UniformInt(
      1, static_cast<std::int64_t>(std::max<std::size_t>(1, shape.max_faults)));
  for (std::int64_t i = 0; i < n; ++i) {
    // Re-draw entries that would collide (overlap on one target); the
    // retry budget keeps generation total, and since every draw comes
    // from the same forked stream the outcome is seed-determined.
    for (int attempt = 0; attempt < 16; ++attempt) {
      fault::FaultPlan candidate = plan;
      AddRandomFault(candidate, rng, shape);
      if (candidate.Check().empty()) {
        plan = std::move(candidate);
        break;
      }
    }
  }
  if (plan.Empty()) {  // All retries collided; never hand back a no-op.
    plan.Straggle(0, sim::Seconds(1.0), sim::Seconds(2.0), 2.0);
  }
  return plan;
}

std::string MakeReproText(const json::Value& base_doc,
                          const fault::FaultPlan& plan,
                          const std::string& name) {
  json::Value doc = base_doc;
  SetKey(doc, "name", Str(name));
  SetKey(doc, "faults", fault::PlanToJson(plan));
  return json::Dump(doc) + "\n";
}

Verdict CheckPlan(const json::Value& base_doc, const fault::FaultPlan& plan) {
  const std::string text = MakeReproText(base_doc, plan, "chaosfuzz-candidate");
  const harness::ScenarioParseResult parsed =
      harness::ParseScenarioJson(text, "chaosfuzz-candidate");
  if (!parsed.ok()) {
    Verdict v;
    v.result = Verdict::Result::kInvalid;
    v.detail = parsed.error;
    return v;
  }
  return CheckScenario(*parsed.spec, "chaosfuzz-candidate");
}

// ---------------------------------------------------------------------------
// Shrinking.
// ---------------------------------------------------------------------------

namespace {

constexpr sim::Duration kMinWindow = sim::Milliseconds(10);

template <typename T>
bool DropPass(std::vector<T> fault::FaultPlan::* member,
              fault::FaultPlan& best, const auto& fails) {
  bool any = false;
  for (std::size_t i = 0; i < (best.*member).size();) {
    fault::FaultPlan candidate = best;
    auto& entries = candidate.*member;
    entries.erase(entries.begin() + static_cast<std::ptrdiff_t>(i));
    if (!candidate.Empty() && fails(candidate)) {
      best = std::move(candidate);
      any = true;
    } else {
      ++i;
    }
  }
  return any;
}

/**
 * Narrows one window greedily: halve the duration from the right while
 * the failure persists, then binary-search the latest still-failing
 * onset. `mutate(plan, from, to)` rewrites the window in a candidate.
 */
template <typename Mutate>
void ShrinkWindow(fault::FaultPlan& best, sim::Time from, sim::Time to,
                  const Mutate& mutate, const auto& fails) {
  while (to - from > 2 * kMinWindow) {
    const sim::Time mid = SnapMs(from + (to - from) / 2);
    if (mid <= from || mid >= to) break;
    fault::FaultPlan candidate = best;
    mutate(candidate, from, mid);
    if (!fails(candidate)) break;
    best = std::move(candidate);
    to = mid;
  }
  sim::Time lo = from;
  sim::Time hi = to - kMinWindow;
  while (hi - lo > sim::Milliseconds(20)) {
    const sim::Time mid = SnapMs(lo + (hi - lo) / 2);
    if (mid <= lo || mid >= hi) break;
    fault::FaultPlan candidate = best;
    mutate(candidate, mid, to);
    if (fails(candidate)) {
      best = std::move(candidate);
      lo = mid;
    } else {
      hi = mid;
    }
  }
}

/** ShrinkWindow on every entry of one window kind, in order. */
template <typename T>
void NarrowPass(std::vector<T> fault::FaultPlan::* member,
                fault::FaultPlan& best, const auto& fails) {
  for (std::size_t i = 0; i < (best.*member).size(); ++i) {
    ShrinkWindow(best, (best.*member)[i].from, (best.*member)[i].to,
                 [member, i](fault::FaultPlan& p, sim::Time f, sim::Time t) {
                   (p.*member)[i].from = f;
                   (p.*member)[i].to = t;
                 },
                 fails);
  }
}

/** Moves one magnitude toward its identity while the failure holds. */
template <typename Get, typename Set>
void SoftenMagnitude(fault::FaultPlan& best, double identity, const Get& get,
                     const Set& set, const auto& fails) {
  for (int iter = 0; iter < 8; ++iter) {
    const double current = get(best);
    const double next = Round2((current + identity) / 2.0);
    if (next == current) break;
    fault::FaultPlan candidate = best;
    set(candidate, next);
    if (!fails(candidate)) break;
    best = std::move(candidate);
  }
}

}  // namespace

ShrinkResult ShrinkWith(const fault::FaultPlan& plan,
                        const FailurePredicate& predicate) {
  ShrinkResult result;
  result.plan = plan;
  fault::FaultPlan& best = result.plan;
  const auto fails = [&](const fault::FaultPlan& candidate) {
    ++result.attempts;
    return predicate(candidate);
  };

  // Pass 1: drop whole entries, kinds in fixed order, to a fixpoint.
  bool changed = true;
  while (changed) {
    changed = false;
    changed |= DropPass(&fault::FaultPlan::crashes, best, fails);
    changed |= DropPass(&fault::FaultPlan::stragglers, best, fails);
    changed |= DropPass(&fault::FaultPlan::transfer_faults, best, fails);
    changed |= DropPass(&fault::FaultPlan::zombies, best, fails);
    changed |= DropPass(&fault::FaultPlan::flaps, best, fails);
    changed |= DropPass(&fault::FaultPlan::degrades, best, fails);
    changed |= DropPass(&fault::FaultPlan::partitions, best, fails);
  }

  // Pass 2: narrow the surviving windows.
  NarrowPass(&fault::FaultPlan::stragglers, best, fails);
  NarrowPass(&fault::FaultPlan::transfer_faults, best, fails);
  NarrowPass(&fault::FaultPlan::zombies, best, fails);
  NarrowPass(&fault::FaultPlan::flaps, best, fails);
  NarrowPass(&fault::FaultPlan::degrades, best, fails);
  NarrowPass(&fault::FaultPlan::partitions, best, fails);

  // Pass 3: soften magnitudes toward their identity.
  for (std::size_t i = 0; i < best.stragglers.size(); ++i) {
    SoftenMagnitude(
        best, 1.0,
        [i](const fault::FaultPlan& p) { return p.stragglers[i].slowdown; },
        [i](fault::FaultPlan& p, double v) { p.stragglers[i].slowdown = v; },
        fails);
  }
  for (std::size_t i = 0; i < best.transfer_faults.size(); ++i) {
    SoftenMagnitude(best, 0.0,
                    [i](const fault::FaultPlan& p) {
                      return p.transfer_faults[i].failure_probability;
                    },
                    [i](fault::FaultPlan& p, double v) {
                      p.transfer_faults[i].failure_probability = v;
                    },
                    fails);
  }
  for (std::size_t i = 0; i < best.degrades.size(); ++i) {
    if (!best.degrades[i].link) {
      SoftenMagnitude(
          best, 1.0,
          [i](const fault::FaultPlan& p) {
            return p.degrades[i].flops_factor;
          },
          [i](fault::FaultPlan& p, double v) {
            p.degrades[i].flops_factor = v;
          },
          fails);
    }
    SoftenMagnitude(
        best, 1.0,
        [i](const fault::FaultPlan& p) {
          return p.degrades[i].bandwidth_factor;
        },
        [i](fault::FaultPlan& p, double v) {
          p.degrades[i].bandwidth_factor = v;
        },
        fails);
  }
  for (std::size_t i = 0; i < best.flaps.size(); ++i) {
    // Higher duty_up is a milder flap (mostly up).
    SoftenMagnitude(
        best, 0.9,
        [i](const fault::FaultPlan& p) { return p.flaps[i].duty_up; },
        [i](fault::FaultPlan& p, double v) { p.flaps[i].duty_up = v; },
        fails);
  }

  return result;
}

ShrinkResult Shrink(const json::Value& base_doc,
                    const fault::FaultPlan& plan) {
  ShrinkResult result = ShrinkWith(plan, [&](const fault::FaultPlan& c) {
    return CheckPlan(base_doc, c).Failed();
  });
  result.verdict = CheckPlan(base_doc, result.plan);
  ++result.attempts;
  return result;
}

// ---------------------------------------------------------------------------
// Campaign driver and the `fuzz` subcommand.
// ---------------------------------------------------------------------------

CampaignResult RunCampaign(const std::string& scenario_path,
                           const CampaignOptions& options, std::FILE* log) {
  CampaignResult result;
  std::string text;
  if (!ReadFile(scenario_path, text)) {
    result.error = "cannot read " + scenario_path;
    return result;
  }
  json::Value doc;
  std::string json_error;
  if (!json::Parse(text, doc, json_error)) {
    result.error = scenario_path + ": " + json_error;
    return result;
  }
  const harness::ScenarioParseResult parsed =
      harness::ParseScenarioJson(text, scenario_path);
  if (!parsed.ok()) {
    result.error = parsed.error;
    return result;
  }
  // Warm the per-process estimator cache so every forked child
  // inherits the offline profile instead of re-profiling it.
  (void)harness::RunScenario(*parsed.spec);

  std::filesystem::create_directories(options.out_dir);
  for (std::size_t i = 0; i < options.runs; ++i) {
    ++result.runs;
    const std::uint64_t seed = options.seed * 1'000'003ULL + i;
    const fault::FaultPlan plan = GeneratePlan(seed, options.shape);
    const Verdict verdict = CheckPlan(doc, plan);
    if (!verdict.Failed()) {
      if (log != nullptr) {
        std::fprintf(log, "ok   seed %llu\n",
                     static_cast<unsigned long long>(seed));
      }
      continue;
    }
    CampaignFailure failure;
    failure.seed = seed;
    failure.verdict = verdict;
    fault::FaultPlan minimized = plan;
    ShrinkResult shrunk = Shrink(doc, plan);
    failure.shrink_attempts = shrunk.attempts;
    if (shrunk.verdict.Failed()) {
      minimized = std::move(shrunk.plan);
      failure.verdict = shrunk.verdict;
    }
    const std::string repro_name =
        parsed.spec->name + "-chaos-seed" + std::to_string(seed);
    failure.repro_path = options.out_dir + "/chaos_repro_seed" +
                         std::to_string(seed) + ".json";
    std::ofstream out(failure.repro_path, std::ios::binary);
    out << MakeReproText(doc, minimized, repro_name);
    if (log != nullptr) {
      std::fprintf(log, "FAIL seed %llu: %s\n     repro %s (%zu shrink runs)\n",
                   static_cast<unsigned long long>(seed),
                   failure.verdict.detail.c_str(), failure.repro_path.c_str(),
                   failure.shrink_attempts);
    }
    result.failures.push_back(std::move(failure));
  }
  return result;
}

int FuzzCommand(const std::vector<std::string>& args) {
  FlagSet flags("fuzz", args);
  CampaignOptions options;
  options.runs = flags.Count("runs", options.runs, 1);
  options.seed = flags.Count("seed", options.seed);
  options.shape.max_faults =
      flags.Count("max-faults", options.shape.max_faults, 1);
  options.out_dir = flags.String("out-dir", options.out_dir);
  if (!flags.Done(1, 1,
                  "muxwise fuzz SCENARIO [--runs=N] [--seed=S] "
                  "[--max-faults=K] [--out-dir=D]")) {
    return 2;
  }
  const CampaignResult result =
      RunCampaign(flags.positional()[0], options, stdout);
  if (!result.error.empty()) {
    std::fprintf(stderr, "muxwise fuzz: %s\n", result.error.c_str());
    return 2;
  }
  std::printf("%zu/%zu runs passed\n", result.runs - result.failures.size(),
              result.runs);
  return result.failures.empty() ? 0 : 1;
}

}  // namespace muxwise::cli
