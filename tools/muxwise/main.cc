// muxwise: the one command-line tool over the scenario runner.
//
//   muxwise run SCENARIO [--out=F] [--rss-ceiling-mb=N]
//               [--rss-baseline=F --rss-growth-max=R]
//       Runs one scenario file in-process, so the peak RSS reported is
//       this run's, and checks it with harness::CheckRun (stable,
//       balanced ledger, sketch accuracy). Optional RSS gates: an
//       absolute ceiling, and growth against the peak recorded in a
//       previous run's --out artifact.
//   muxwise check FILE... [--out=F]
//       Runs every scenario twice, each in a forked child, and checks
//       the runs with harness::CheckRun including double-run identity.
//   muxwise fuzz SCENARIO [--runs=N] [--seed=S] [--max-faults=K]
//                [--out-dir=D]
//       Seeded chaos campaign; failing fault plans are shrunk and
//       written as repro scenario files (see fuzz.h).
//   muxwise bench [...] | muxwise bench --diff BASE CAND [...]
//       Benchmark suite and its digest / wall-time gate (see bench.cc).
//   muxwise trace SCENARIO OUT.bin [OUT.json]
//       Traced run written as a MUXT binary, optionally as Chrome JSON.
//
// Exit status: 0 ok, 1 a check or gate failed, 2 usage or input error.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "muxwise/check.h"
#include "muxwise/cli.h"

namespace muxwise::cli {
namespace {

double PeakRssMb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
#if defined(__APPLE__)
    return static_cast<double>(usage.ru_maxrss) / (1024.0 * 1024.0);
#else
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
#endif
  }
#endif
  return 0.0;
}

/** Peak RSS recorded in a previous --out artifact (the max across its
 * scenarios); <= 0 with `error` set when absent or unreadable. */
double BaselinePeakRssMb(const std::string& path, std::string& error) {
  std::string text;
  if (!ReadFile(path, text)) {
    error = "cannot open RSS baseline " + path;
    return 0.0;
  }
  json::Value root;
  if (!json::Parse(text, root, error)) return 0.0;
  const json::Value* scenarios = root.Find("scenarios");
  if (scenarios == nullptr || !scenarios->IsArray()) {
    error = "RSS baseline has no scenarios array";
    return 0.0;
  }
  double peak = 0.0;
  for (const json::Value& entry : scenarios->array) {
    peak = std::max(peak, json::GetNumber(entry.Find("peak_rss_mb")));
  }
  if (peak <= 0.0) error = "RSS baseline records no peak_rss_mb";
  return peak;
}

void PrintEntry(const json::Value& e) {
  std::printf("%s %s", json::GetBool(e.Find("ok")) ? "ok  " : "FAIL",
              json::GetString(e.Find("name")).c_str());
  if (e.Find("engine") != nullptr) {
    std::printf(" [%s/%s] digest %s  %.0f/%.0f completed",
                json::GetString(e.Find("kind")).c_str(),
                json::GetString(e.Find("engine")).c_str(),
                json::GetString(e.Find("outcome_digest")).c_str(),
                json::GetNumber(e.Find("completed")),
                json::GetNumber(e.Find("total")));
  }
  if (const json::Value* rss = e.Find("peak_rss_mb")) {
    std::printf("  rss %.1f MiB", rss->number);
  }
  std::printf("\n");
  if (const json::Value* failures = e.Find("failures")) {
    for (const json::Value& failure : failures->array) {
      std::printf("     - %s\n", failure.string.c_str());
    }
  }
}

/** Writes `{"schema_version": 1, "scenarios": [...]}`; false on I/O error. */
bool WriteArtifact(const std::string& path, json::Value scenarios) {
  json::Value root = json::Obj();
  json::SetKey(root, "schema_version", json::Num(1));
  json::SetKey(root, "scenarios", std::move(scenarios));
  std::ofstream out(path, std::ios::binary);
  out << json::Dump(root) << "\n";
  if (out) return true;
  std::fprintf(stderr, "muxwise: cannot write %s\n", path.c_str());
  return false;
}

}  // namespace

int RunCommand(const std::vector<std::string>& args) {
  FlagSet flags("run", args);
  const std::string out_path = flags.String("out");
  const double rss_ceiling_mb = flags.Number("rss-ceiling-mb", 0.0);
  const std::string rss_baseline_path = flags.String("rss-baseline");
  const double rss_growth_max = flags.Number("rss-growth-max", 0.0);
  if (!flags.Done(1, 1,
                  "muxwise run SCENARIO [--out=F] [--rss-ceiling-mb=N] "
                  "[--rss-baseline=F --rss-growth-max=R]")) {
    return 2;
  }
  const std::string& path = flags.positional()[0];
  const harness::ScenarioParseResult parsed = harness::LoadScenarioFile(path);
  if (!parsed.ok()) {
    std::fprintf(stderr, "muxwise run: %s\n", parsed.error.c_str());
    return 1;
  }

  const harness::RunOutcome outcome = harness::RunScenario(*parsed.spec);
  harness::RunCheck check = harness::CheckRun(outcome);
  const double peak_rss_mb = PeakRssMb();
  char buf[192];
  if (rss_ceiling_mb > 0.0 && peak_rss_mb > rss_ceiling_mb) {
    std::snprintf(buf, sizeof(buf),
                  "peak RSS %.1f MiB exceeds ceiling %.1f MiB", peak_rss_mb,
                  rss_ceiling_mb);
    check.failures.push_back(buf);
  }
  if (!rss_baseline_path.empty() && rss_growth_max > 0.0) {
    std::string error;
    const double baseline = BaselinePeakRssMb(rss_baseline_path, error);
    if (baseline <= 0.0) {
      check.failures.push_back("RSS baseline unusable: " + error);
    } else if (peak_rss_mb > baseline * rss_growth_max) {
      std::snprintf(buf, sizeof(buf),
                    "peak RSS %.1f MiB exceeds %.2fx the %.1f MiB "
                    "baseline — metric memory is not O(1) in request count",
                    peak_rss_mb, rss_growth_max, baseline);
      check.failures.push_back(buf);
    }
  }

  json::Value entry = ScenarioEntry(path, *parsed.spec, outcome, check);
  json::SetKey(entry, "peak_rss_mb", json::Num(peak_rss_mb));
  PrintEntry(entry);
  const bool written =
      out_path.empty() || WriteArtifact(out_path, json::Arr({entry}));
  return check.ok() && written ? 0 : 1;
}

int CheckCommand(const std::vector<std::string>& args) {
  FlagSet flags("check", args);
  const std::string out_path = flags.String("out");
  if (!flags.Done(1, args.size(), "muxwise check FILE... [--out=F]")) {
    return 2;
  }
  bool all_ok = true;
  json::Value entries = json::Arr();
  for (const std::string& path : flags.positional()) {
    Verdict verdict = CheckFile(path);
    all_ok = all_ok && verdict.result == Verdict::Result::kPass;
    PrintEntry(verdict.entry);
    entries.array.push_back(std::move(verdict.entry));
  }
  const bool written =
      out_path.empty() || WriteArtifact(out_path, std::move(entries));
  return all_ok && written ? 0 : 1;
}

}  // namespace muxwise::cli

int main(int argc, char** argv) {
  using namespace muxwise::cli;
  struct Command {
    const char* name;
    int (*run)(const std::vector<std::string>&);
  };
  static constexpr Command kCommands[] = {
      {"run", RunCommand},     {"check", CheckCommand},
      {"fuzz", FuzzCommand},   {"bench", BenchCommand},
      {"trace", TraceCommand},
  };
  if (argc >= 2) {
    const std::vector<std::string> args(argv + 2, argv + argc);
    for (const Command& command : kCommands) {
      if (argv[1] == std::string(command.name)) return command.run(args);
    }
  }
  std::fprintf(stderr,
               "usage: muxwise run|check|fuzz|bench|trace ...\n"
               "  run SCENARIO [--out=F] [--rss-ceiling-mb=N] "
               "[--rss-baseline=F --rss-growth-max=R]\n"
               "  check FILE... [--out=F]\n"
               "  fuzz SCENARIO [--runs=N] [--seed=S] [--max-faults=K] "
               "[--out-dir=D]\n"
               "  bench [--smoke|--full] [--repeat=N] [--filter=S] "
               "[--bench-dir=D] [--scenarios=D] [--out=F]\n"
               "  bench --diff BASE CAND [--no-wall] [--allow-missing]\n"
               "  trace SCENARIO OUT.bin [OUT.json]\n");
  return 2;
}
