#ifndef MUXWISE_TOOLS_BENCHRUN_SIMCORE_H_
#define MUXWISE_TOOLS_BENCHRUN_SIMCORE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace muxwise::benchrun {

/**
 * One measured benchmark: per-repetition wall times plus the
 * deterministic witnesses (simulated-event count and event-stream
 * digest) that must be bit-identical across repetitions, runs, and —
 * for the regression gate — across commits.
 */
struct BenchResult {
  std::string name;
  std::vector<double> wall_ms;   // One entry per repetition.
  double wall_ms_median = 0.0;
  std::uint64_t sim_events = 0;  // Simulated events per repetition.
  double events_per_sec = 0.0;   // sim_events / median wall time.
  std::uint64_t digest = 0;      // Event-stream digest (0 = none).
  bool ok = true;
  std::string note;
};

/** Knobs shared by every simcore microbenchmark. */
struct SimcoreOptions {
  /** Smoke mode shrinks workloads ~10x for CI gating. */
  bool smoke = false;

  /** Repetitions; the reported wall time is the median. */
  int repeat = 5;
};

/**
 * Names of the built-in simulator-substrate microbenchmarks:
 *
 *   simcore.events      raw event-queue throughput (self-rescheduling
 *                       actors with interleaved schedule/cancel churn)
 *   simcore.storm       same-tick event storms exercising the heap's
 *                       FIFO tie-break path
 *   simcore.launches    Gpu kernel launch/complete/re-rate churn across
 *                       concurrent streams
 *   simcore.acceptance  end-to-end acceptance scenario: every engine
 *                       replayed over the standard ShareGPT trace
 *   overload.goodput    1x/2x/4x MMPP bursts on MuxWise with overload
 *                       control on/off vs chunked-prefill and static
 *                       disaggregation; digests fold SLO-attained
 *                       goodput
 *   fleet.goodput       the MMPP burst through the fleet router at
 *                       1/2/4 replicas, with and without a mid-run
 *                       replica crash; digests fold attained goodput
 *                       and the re-home/shed counters
 */
std::vector<std::string> SimcoreBenchNames();

/**
 * Runs one named simcore benchmark. The simulated work is identical
 * across repetitions (asserted via event counts and digests), so only
 * wall time varies. Unknown names return ok = false.
 */
BenchResult RunSimcoreBench(const std::string& name,
                            const SimcoreOptions& options);

/** The deterministic witnesses of one repetition, and why it failed
 * (empty when it did not). */
struct OneRun {
  std::uint64_t sim_events = 0;
  std::uint64_t digest = 0;
  std::string failure;
};

/**
 * Times `body` options.repeat times (at least once). The result fails
 * when a repetition reports a failure or its witnesses differ from the
 * first repetition's.
 */
BenchResult Measure(const std::string& name, const SimcoreOptions& options,
                    const std::function<OneRun()>& body);

/** Median of `samples` (by copy; 0.0 for empty input). */
double Median(std::vector<double> samples);

}  // namespace muxwise::benchrun

#endif  // MUXWISE_TOOLS_BENCHRUN_SIMCORE_H_
