#ifndef MUXWISE_TOOLS_MUXWISE_REPORT_H_
#define MUXWISE_TOOLS_MUXWISE_REPORT_H_

#include <string>
#include <vector>

#include "muxwise/simcore.h"

namespace muxwise::cli {

/** Host/toolchain metadata stamped into every report. */
struct MachineInfo {
  std::string host;
  std::string compiler;
  std::string build_type;

  /**
   * CPUs actually available to this process (Linux: the scheduling
   * affinity mask, so cgroup/container limits are respected), floor 1.
   * Part of the machine class that decides whether two reports' wall
   * times are comparable.
   */
  int cpus = 0;

  /**
   * std::thread::hardware_concurrency() — the machine's full thread
   * count, ignoring affinity limits. Recorded separately so a report
   * from a pinned container (cpus < hw_threads) is recognizable.
   */
  int hw_threads = 0;

  /** Fills in the current process's metadata. */
  static MachineInfo Detect();
};

/**
 * A full bench report: schema-versioned so `muxwise bench --diff` can refuse
 * files it does not understand instead of mis-diffing them.
 */
struct BenchReport {
  static constexpr int kSchemaVersion = 1;

  int schema_version = kSchemaVersion;
  std::string suite;  // "smoke" | "full" | "custom".
  int repeat = 0;
  MachineInfo machine;
  std::vector<BenchResult> benches;
};

/** Serializes a report as pretty-printed JSON (stable field order). */
std::string ToJson(const BenchReport& report);

/**
 * Parses a report previously produced by ToJson. Returns false (with
 * `error` set) on malformed input or a schema-version mismatch.
 */
bool FromJson(const std::string& text, BenchReport& report,
              std::string& error);

/** Reads and parses a report file. */
bool LoadReport(const std::string& path, BenchReport& report,
                std::string& error);

/** Writes a report file. Returns false on I/O failure. */
bool SaveReport(const std::string& path, const BenchReport& report);

/** Knobs for DiffReports (the `muxwise bench --diff` gate). */
struct DiffOptions {
  /** Fail when candidate median wall time exceeds base by this factor. */
  double wall_regression_threshold = 0.10;

  /** Compare wall times at all (digests are always compared). */
  bool check_wall = true;

  /** Treat a baseline bench missing from the candidate as a failure. */
  bool require_coverage = true;
};

/** Outcome of diffing a candidate report against a baseline. */
struct DiffResult {
  std::vector<std::string> failures;
  std::vector<std::string> notes;  // Informational (improvements, extras).

  bool ok() const { return failures.empty(); }
};

/**
 * Diffs `candidate` against `base` bench-by-bench (matched by name):
 * any digest or simulated-event-count change fails (the work itself
 * drifted — a correctness signal, not a performance one), and a median
 * wall-time regression beyond the threshold fails. New benches only in
 * the candidate are noted, never failed.
 */
DiffResult DiffReports(const BenchReport& base, const BenchReport& candidate,
                       const DiffOptions& options = DiffOptions());

}  // namespace muxwise::cli

#endif  // MUXWISE_TOOLS_MUXWISE_REPORT_H_
