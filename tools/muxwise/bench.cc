// `muxwise bench`: the benchmark driver and its regression gate.
//
// Run mode measures the simcore microbenchmarks, with --scenarios=DIR
// every scenario file in DIR as a "scenario.<name>" row (digest = the
// run's outcome digest), and with --bench-dir=DIR a named subset of
// the bench/ paper-figure binaries; it writes a schema-versioned JSON
// report. Diff mode compares two reports and fails on any digest or
// event-count change, or a median wall-time regression past 10%.
//
//   muxwise bench [--smoke|--full] [--repeat=N] [--filter=S]
//                 [--bench-dir=DIR] [--scenarios=DIR] [--out=FILE]
//   muxwise bench --diff BASE.json CANDIDATE.json [--no-wall]
//                 [--allow-missing]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "harness/runner.h"
#include "harness/scenario.h"
#include "muxwise/cli.h"
#include "muxwise/report.h"
#include "muxwise/simcore.h"

namespace muxwise::cli {
namespace {

/** bench/ binaries worth running from the driver, by suite. */
const std::vector<std::string>& SmokeExternalBenches() {
  static const std::vector<std::string> kBenches = {
      "bench_fig03_resource_demand",
      "bench_tab02_predictor_accuracy",
  };
  return kBenches;
}

const std::vector<std::string>& FullExternalBenches() {
  static const std::vector<std::string> kBenches = {
      "bench_fig03_resource_demand",  "bench_fig05_cache_hit_rate",
      "bench_fig06_chunked_dilemma",  "bench_tab02_predictor_accuracy",
      "bench_fig11_contention_profile", "bench_fig13_trace_stats",
      "bench_fig14_realworld",        "bench_fig15_slo_goodput",
      "bench_fig16_h100_h200",        "bench_fig17_synthetic",
      "bench_fig18_partition_dynamics", "bench_fig19_bubble_ablation",
      "bench_fig20_preemption_cdf",   "bench_sec45_overheads",
      "bench_sec6_variants",          "bench_chaos_goodput",
  };
  return kBenches;
}

/** Runs one bench/ executable once, discarding its output. */
BenchResult RunExternalBench(const std::string& dir,
                             const std::string& name) {
  const std::string command = dir + "/" + name + " > /dev/null 2>&1";
  SimcoreOptions once;
  once.repeat = 1;
  BenchResult result = Measure("extern." + name, once, [&command] {
    const int status = std::system(command.c_str());
    OneRun run;
    if (status != 0) {
      run.failure = command + " (exit status " + std::to_string(status) + ")";
    }
    return run;
  });
  if (result.ok) result.note = command;
  return result;
}

/**
 * Every scenario file (`*.json`) directly under `dir`, in sorted order,
 * as a "scenario.<name>" bench row whose witnesses are the run's
 * OutcomeDigest and executed-event count. Through the diff gate this
 * pins every checked-in scenario's digest against the frozen baseline.
 * A file that fails to parse, or a run harness::CheckRun rejects,
 * yields ok = false with the reason in `note`.
 */
std::vector<BenchResult> RunScenarioBenches(const std::string& dir,
                                            const SimcoreOptions& options) {
  std::vector<std::string> paths;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file() && entry.path().extension() == ".json") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());

  std::vector<BenchResult> results;
  if (ec) {
    BenchResult result;
    result.name = "scenario.<dir>";
    result.ok = false;
    result.note = dir + ": " + ec.message();
    results.push_back(std::move(result));
    return results;
  }
  for (const std::string& path : paths) {
    const harness::ScenarioParseResult parsed =
        harness::LoadScenarioFile(path);
    if (!parsed.ok()) {
      BenchResult result;
      result.name = "scenario." + path;
      result.ok = false;
      result.note = parsed.error;
      results.push_back(std::move(result));
      continue;
    }
    const harness::ScenarioSpec& spec = *parsed.spec;
    results.push_back(Measure("scenario." + spec.name, options, [&spec] {
      const harness::RunOutcome outcome = harness::RunScenario(spec);
      const harness::RunCheck check = harness::CheckRun(outcome);
      return OneRun{outcome.executed_events, harness::OutcomeDigest(outcome),
                    check.ok() ? "" : check.failures.front()};
    }));
  }
  return results;
}

int RunDiff(FlagSet& flags) {
  DiffOptions options;
  options.check_wall = !flags.Switch("no-wall");
  options.require_coverage = !flags.Switch("allow-missing");
  if (!flags.Done(2, 2,
                  "muxwise bench --diff BASE CAND [--no-wall] "
                  "[--allow-missing]")) {
    return 2;
  }
  const std::string& base_path = flags.positional()[0];
  const std::string& candidate_path = flags.positional()[1];
  BenchReport base, candidate;
  std::string error;
  if (!LoadReport(base_path, base, error)) {
    std::fprintf(stderr, "muxwise bench: baseline %s: %s\n",
                 base_path.c_str(), error.c_str());
    return 2;
  }
  if (!LoadReport(candidate_path, candidate, error)) {
    std::fprintf(stderr, "muxwise bench: candidate %s: %s\n",
                 candidate_path.c_str(), error.c_str());
    return 2;
  }

  const DiffResult diff = DiffReports(base, candidate, options);
  for (const std::string& note : diff.notes) {
    std::printf("note: %s\n", note.c_str());
  }
  for (const std::string& failure : diff.failures) {
    std::printf("FAIL: %s\n", failure.c_str());
  }
  if (!diff.ok()) {
    std::printf("bench diff: %zu failure(s) vs %s\n", diff.failures.size(),
                base_path.c_str());
    return 1;
  }
  std::printf("bench diff: ok (%zu baseline benches compared)\n",
              base.benches.size());
  return 0;
}

/** Records `result` in `report`, printing its row; false when it failed. */
bool Record(BenchResult result, BenchReport& report) {
  std::printf("[bench] %-38s ... %9.2f ms  %10llu events  %016llx%s\n",
              result.name.c_str(), result.wall_ms_median,
              static_cast<unsigned long long>(result.sim_events),
              static_cast<unsigned long long>(result.digest),
              result.ok ? "" : "  FAILED");
  if (!result.ok && !result.note.empty()) {
    std::fprintf(stderr, "  %s\n", result.note.c_str());
  }
  const bool ok = result.ok;
  report.benches.push_back(std::move(result));
  return ok;
}

}  // namespace

int BenchCommand(const std::vector<std::string>& args) {
  FlagSet flags("bench", args);
  if (flags.Switch("diff")) return RunDiff(flags);

  SimcoreOptions options;
  options.smoke = !flags.Switch("full");
  flags.Switch("smoke");  // The default suite.
  if (!options.smoke) options.repeat = 3;  // Full workloads are ~10x larger.
  options.repeat =
      static_cast<int>(flags.Count("repeat", options.repeat, 1));
  const std::string filter = flags.String("filter");
  const std::string bench_dir = flags.String("bench-dir");
  const std::string scenarios_dir = flags.String("scenarios");
  const std::string out_path = flags.String("out");
  if (!flags.Done(0, 0,
                  "muxwise bench [--smoke|--full] [--repeat=N] "
                  "[--filter=S] [--bench-dir=D] [--scenarios=D] "
                  "[--out=F]")) {
    return 2;
  }
  const auto selected = [&filter](const std::string& name) {
    return filter.empty() || name.find(filter) != std::string::npos;
  };

  BenchReport report;
  report.suite = options.smoke ? "smoke" : "full";
  report.repeat = options.repeat;
  report.machine = MachineInfo::Detect();

  bool all_ok = true;
  for (const std::string& name : SimcoreBenchNames()) {
    if (!selected(name)) continue;
    all_ok &= Record(RunSimcoreBench(name, options), report);
  }
  if (!scenarios_dir.empty()) {
    for (BenchResult& result : RunScenarioBenches(scenarios_dir, options)) {
      if (!selected(result.name)) continue;
      all_ok &= Record(std::move(result), report);
    }
  }
  if (!bench_dir.empty()) {
    for (const std::string& name : options.smoke ? SmokeExternalBenches()
                                                 : FullExternalBenches()) {
      if (!selected("extern." + name)) continue;
      all_ok &= Record(RunExternalBench(bench_dir, name), report);
    }
  }

  if (report.benches.empty()) {
    std::fprintf(stderr, "muxwise bench: filter matched no benchmarks\n");
    return 2;
  }
  if (!out_path.empty()) {
    if (!SaveReport(out_path, report)) {
      std::fprintf(stderr, "muxwise bench: failed to write %s\n",
                   out_path.c_str());
      return 1;
    }
    std::printf("wrote %s (%zu benches, suite=%s, repeat=%d)\n",
                out_path.c_str(), report.benches.size(),
                report.suite.c_str(), options.repeat);
  }
  return all_ok ? 0 : 1;
}

}  // namespace muxwise::cli
