// benchrun: the canonical benchmark driver + regression gate.
//
// Run mode measures the simcore microbenchmarks (and, with --bench-dir,
// a named subset of the bench/ paper-figure binaries) and writes a
// schema-versioned JSON report; diff mode (`benchdiff`) compares two
// reports and exits non-zero on any digest change or a median wall-time
// regression beyond the threshold.
//
// Usage:
//   benchrun [--smoke|--full] [--repeat=N] [--filter=substr]
//            [--bench-dir=DIR] [--scenarios=DIR] [--out=FILE] [--list]
//   benchrun --diff BASE.json CANDIDATE.json
//            [--threshold=0.10] [--no-wall] [--allow-missing]
//
// --scenarios=DIR sweeps every scenario DSL file in DIR as a
// "scenario.<name>" bench row (digest = the run's outcome digest), so
// checked-in scenarios — including the chaos ones — ride the same
// gated digest/wall pipeline as the simcore rows.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "benchrun/report.h"
#include "benchrun/scenarios.h"
#include "benchrun/simcore.h"

namespace {

using muxwise::benchrun::BenchReport;
using muxwise::benchrun::BenchResult;
using muxwise::benchrun::DiffOptions;
using muxwise::benchrun::DiffResult;
using muxwise::benchrun::MachineInfo;
using muxwise::benchrun::SimcoreOptions;

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

// Wall time is the measured quantity in a benchmark driver.
namespace chr = std::chrono;  // muxlint: allow(wall-clock)

double NowMs() {
  const auto t = chr::steady_clock::now().time_since_epoch();
  return chr::duration<double, std::milli>(t).count();
}

/** Runs one bench/ executable, discarding its stdout. */
BenchResult RunExternalBench(const std::string& dir,
                             const std::string& name) {
  BenchResult result;
  result.name = "extern." + name;
  const std::string command = dir + "/" + name + " > /dev/null 2>&1";
  result.note = command;
  const double start = NowMs();
  const int status = std::system(command.c_str());
  result.wall_ms.push_back(NowMs() - start);
  result.wall_ms_median = result.wall_ms[0];
  result.ok = status == 0;
  if (!result.ok) {
    result.note += " (exit status " + std::to_string(status) + ")";
  }
  return result;
}

bool HasPrefixArg(const std::string& arg, const std::string& prefix,
                  std::string* value) {
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  benchrun [--smoke|--full] [--repeat=N] [--filter=substr]\n"
      "           [--bench-dir=DIR] [--scenarios=DIR] [--out=FILE] [--list]\n"
      "  benchrun --diff BASE.json CANDIDATE.json [--threshold=0.10]\n"
      "           [--no-wall] [--allow-missing]\n");
  return 2;
}

int RunDiff(const std::vector<std::string>& args) {
  DiffOptions options;
  std::vector<std::string> files;
  for (const std::string& arg : args) {
    std::string value;
    if (HasPrefixArg(arg, "--threshold=", &value)) {
      options.wall_regression_threshold = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--no-wall") {
      options.check_wall = false;
    } else if (arg == "--allow-missing") {
      options.require_coverage = false;
    } else if (arg.rfind("--", 0) == 0) {
      return Usage();
    } else {
      files.push_back(arg);
    }
  }
  if (files.size() != 2) return Usage();

  BenchReport base, candidate;
  std::string error;
  if (!LoadReport(files[0], base, error)) {
    std::fprintf(stderr, "benchdiff: baseline %s: %s\n", files[0].c_str(),
                 error.c_str());
    return 2;
  }
  if (!LoadReport(files[1], candidate, error)) {
    std::fprintf(stderr, "benchdiff: candidate %s: %s\n", files[1].c_str(),
                 error.c_str());
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
    std::printf("benchdiff: %zu failure(s) vs %s\n", diff.failures.size(),
                files[0].c_str());
    return 1;
  }
  std::printf("benchdiff: ok (%zu baseline benches compared)\n",
              base.benches.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);

  if (!args.empty() && args[0] == "--diff") {
    return RunDiff({args.begin() + 1, args.end()});
  }

  SimcoreOptions options;
  options.smoke = true;  // Default suite; --full widens it.
  std::string suite = "smoke";
  std::string filter;
  std::string bench_dir;
  std::string scenarios_dir;
  std::string out_path;
  int repeat = 0;  // An explicit --repeat wins over the suite default.
  bool list_only = false;

  for (const std::string& arg : args) {
    std::string value;
    if (arg == "--smoke") {
      options.smoke = true;
      suite = "smoke";
    } else if (arg == "--full") {
      options.smoke = false;
      suite = "full";
      options.repeat = 3;  // Full workloads are ~10x larger.
    } else if (arg == "--list") {
      list_only = true;
    } else if (HasPrefixArg(arg, "--repeat=", &value)) {
      repeat = std::atoi(value.c_str());
      if (repeat < 1) return Usage();
    } else if (HasPrefixArg(arg, "--filter=", &value)) {
      filter = value;
    } else if (HasPrefixArg(arg, "--bench-dir=", &value)) {
      bench_dir = value;
    } else if (HasPrefixArg(arg, "--scenarios=", &value)) {
      scenarios_dir = value;
    } else if (HasPrefixArg(arg, "--out=", &value)) {
      out_path = value;
    } else {
      return Usage();
    }
  }
  if (repeat > 0) options.repeat = repeat;

  std::vector<std::string> names = muxwise::benchrun::SimcoreBenchNames();
  const std::vector<std::string>& external =
      options.smoke ? SmokeExternalBenches() : FullExternalBenches();

  if (list_only) {
    for (const std::string& name : names) std::printf("%s\n", name.c_str());
    for (const std::string& name : external) {
      std::printf("extern.%s\n", name.c_str());
    }
    return 0;
  }

  BenchReport report;
  report.suite = suite;
  report.repeat = options.repeat;
  report.machine = MachineInfo::Detect();

  bool all_ok = true;
  for (const std::string& name : names) {
    if (!filter.empty() && name.find(filter) == std::string::npos) continue;
    std::printf("[bench] %-22s ...", name.c_str());
    std::fflush(stdout);
    BenchResult result = muxwise::benchrun::RunSimcoreBench(name, options);
    std::printf(" %9.2f ms  %12.0f ev/s  %10llu events  %016llx%s\n",
                result.wall_ms_median, result.events_per_sec,
                static_cast<unsigned long long>(result.sim_events),
                static_cast<unsigned long long>(result.digest),
                result.ok ? "" : "  FAILED");
    if (!result.ok) {
      all_ok = false;
      if (!result.note.empty()) {
        std::fprintf(stderr, "  %s\n", result.note.c_str());
      }
    }
    report.benches.push_back(std::move(result));
  }

  if (!scenarios_dir.empty()) {
    for (BenchResult& result :
         muxwise::benchrun::RunScenarioBenches(scenarios_dir, options)) {
      if (!filter.empty() && result.name.find(filter) == std::string::npos) {
        continue;
      }
      std::printf("[bench] %-38s ... %9.2f ms  %10llu events  %016llx%s\n",
                  result.name.c_str(), result.wall_ms_median,
                  static_cast<unsigned long long>(result.sim_events),
                  static_cast<unsigned long long>(result.digest),
                  result.ok ? "" : "  FAILED");
      if (!result.ok) {
        all_ok = false;
        if (!result.note.empty()) {
          std::fprintf(stderr, "  %s\n", result.note.c_str());
        }
      }
      report.benches.push_back(std::move(result));
    }
  }

  if (!bench_dir.empty()) {
    for (const std::string& name : external) {
      const std::string full = "extern." + name;
      if (!filter.empty() && full.find(filter) == std::string::npos) continue;
      std::printf("[bench] %-38s ...", full.c_str());
      std::fflush(stdout);
      BenchResult result = RunExternalBench(bench_dir, name);
      std::printf(" %9.2f ms%s\n", result.wall_ms_median,
                  result.ok ? "" : "  FAILED");
      if (!result.ok) all_ok = false;
      report.benches.push_back(std::move(result));
    }
  }

  if (report.benches.empty()) {
    std::fprintf(stderr, "benchrun: filter matched no benchmarks\n");
    return 2;
  }

  if (!out_path.empty()) {
    if (!muxwise::benchrun::SaveReport(out_path, report)) {
      std::fprintf(stderr, "benchrun: failed to write %s\n",
                   out_path.c_str());
      return 1;
    }
    std::printf("wrote %s (%zu benches, suite=%s, repeat=%d)\n",
                out_path.c_str(), report.benches.size(), suite.c_str(),
                options.repeat);
  }
  return all_ok ? 0 : 1;
}
