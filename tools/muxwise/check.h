#ifndef MUXWISE_TOOLS_MUXWISE_CHECK_H_
#define MUXWISE_TOOLS_MUXWISE_CHECK_H_

#include <string>

#include "harness/runner.h"
#include "harness/scenario.h"
#include "sim/json.h"

namespace muxwise::cli {

/**
 * One scenario's entry in a `run` / `check` artifact: identity, event
 * and outcome digests, sketch-vs-exact TTFT quantiles and the
 * properties harness::CheckRun found failed.
 */
json::Value ScenarioEntry(const std::string& path,
                          const harness::ScenarioSpec& spec,
                          const harness::RunOutcome& outcome,
                          const harness::RunCheck& check);

struct Verdict {
  enum class Result {
    kPass = 0,
    kViolation = 1,  // A property failed; `detail` says which.
    kCrash = 2,      // Invariant panic / signal in the child.
    kInvalid = 3,    // The scenario did not parse.
  };
  Result result = Result::kPass;
  std::string detail;  // The failed properties, "; "-joined.
  json::Value entry;   // The scenario's artifact entry.

  bool Failed() const {
    return result == Result::kViolation || result == Result::kCrash;
  }
};

/**
 * Runs `spec` twice in a forked child (POSIX; in-process elsewhere)
 * and judges it with harness::CheckRun. An invariant audit that panics
 * aborts only the child and comes back as kCrash. The child's stdio is
 * silenced; `muxwise run` the scenario to see its diagnostics.
 */
Verdict CheckScenario(const harness::ScenarioSpec& spec,
                      const std::string& path);

/** Parses the scenario file at `path` and CheckScenario()s it. */
Verdict CheckFile(const std::string& path);

}  // namespace muxwise::cli

#endif  // MUXWISE_TOOLS_MUXWISE_CHECK_H_
