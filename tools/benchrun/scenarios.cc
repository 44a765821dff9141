#include "benchrun/scenarios.h"

#include <algorithm>
#include <filesystem>

#include "harness/runner.h"
#include "harness/scenario.h"

namespace muxwise::benchrun {

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
      OneRun run{outcome.executed_events, harness::OutcomeDigest(outcome), {}};
      if (!outcome.stable) run.failure = "unstable: " + outcome.diagnostic;
      return run;
    }));
  }
  return results;
}

}  // namespace muxwise::benchrun
