#ifndef MUXWISE_TOOLS_BENCHRUN_SCENARIOS_H_
#define MUXWISE_TOOLS_BENCHRUN_SCENARIOS_H_

#include <string>
#include <vector>

#include "benchrun/simcore.h"

namespace muxwise::benchrun {

/**
 * Runs every scenario DSL file (`*.json`) directly under `dir` as a
 * benchmark: `repeat` timed repetitions each, named
 * "scenario.<scenario-name>", with the run's OutcomeDigest and
 * executed-event count as the deterministic witnesses. Routed through
 * the same benchdiff gate as the simcore rows, this pins every
 * checked-in scenario's digest — including the chaos ones — against
 * the frozen baseline on each push. Files are
 * visited in sorted order so reports are stable; a scenario that fails
 * to parse or run yields ok = false with the reason in `note`.
 */
std::vector<BenchResult> RunScenarioBenches(const std::string& dir,
                                            const SimcoreOptions& options);

}  // namespace muxwise::benchrun

#endif  // MUXWISE_TOOLS_BENCHRUN_SCENARIOS_H_
