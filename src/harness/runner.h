#ifndef MUXWISE_HARNESS_RUNNER_H_
#define MUXWISE_HARNESS_RUNNER_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/estimator.h"
#include "core/muxwise_engine.h"
#include "fault/fault_plan.h"
#include "fault/recovery.h"
#include "obs/trace.h"
#include "overload/controller.h"
#include "route/fleet_router.h"
#include "serve/deployment.h"
#include "serve/frontend.h"
#include "serve/metrics.h"
#include "sim/simulator.h"
#include "workload/request_spec.h"

namespace muxwise::baselines {
class ChunkedPrefillEngine;
class StaticDisaggEngine;
class LoongServeEngine;
}  // namespace muxwise::baselines

namespace muxwise::harness {

/** Every serving system implemented in this repository. */
enum class EngineKind {
  kMuxWise,
  kChunked,
  kNanoFlow,
  kSglangPd,
  kLoongServe,
  kWindServe,   // §6 prototype: unmanaged-stream multiplexing.
  kTemporal,    // §6 prototype: temporal-only layered multiplexing.
};

const char* EngineKindName(EngineKind kind);

/** Per-run knobs (defaults reproduce the paper's configurations). */
struct RunConfig {
  /** Chunked/NanoFlow token budget; 0 tunes offline for the TBT SLO. */
  int token_budget = 0;

  /** MuxWise option overrides (ablations). */
  std::optional<core::MuxWiseEngine::Options> muxwise_options;

  /**
   * Simulated-time cap after the last arrival; a run that cannot drain
   * within it is reported unstable (paper: "the serving system becomes
   * unstable"). Seconds.
   */
  double drain_timeout_seconds = 600.0;

  /**
   * Steady-state mode (goodput sweeps): the drain allowance shrinks to
   * max(30 s, 35% of the arrival span), so a run that merely queues up
   * work and drains it long after arrivals stop counts as unstable.
   */
  bool steady_state = false;

  /**
   * Hard cap on executed events per drive phase — the guard that turns a
   * livelocked scenario (zero-delay event loop that never advances time)
   * into a diagnosed, terminating run instead of a hang. Generously above
   * any legitimate scenario in the suite.
   */
  std::size_t event_budget = 100'000'000;

  /**
   * Chaos schedule; when set, recovery is forced on and a FaultInjector
   * delivers the plan against the engine's fault domains.
   */
  std::optional<fault::FaultPlan> fault_plan;

  /**
   * Engine-side recovery knobs (deadlines, shed factor, retry budgets).
   * `recovery.enabled` is implied by `fault_plan`; set it explicitly to
   * exercise recovery paths (shedding, deadlines) without any fault.
   */
  fault::RecoveryPolicy recovery;

  /**
   * Overload-control policy (MuxWise-family engines only; baselines
   * ignore it). When `overload.enabled` is set it overrides the policy
   * in `muxwise_options`, replacing the blunt shed_demand_factor cutoff
   * with SLO-class admission, brownout modes, and KV-spill preemption.
   */
  overload::Policy overload;

  /**
   * Fleet routing (MuxWise-family engines only): when `fleet.enabled`,
   * the run constructs `fleet.replicas` MuxWiseEngine instances behind
   * a route::FleetRouter instead of one engine — cache-affinity
   * dispatch, health-tracked failover with session re-homing, and the
   * fleet degradation ladder. Fault-plan instances then map onto
   * replicas (one fault domain per replica). Disabled (the default)
   * leaves every engine's event stream bit-identical to pre-fleet
   * builds.
   */
  route::FleetOptions fleet;

  /**
   * When set, the engine (and the fault injector, if any) are
   * instrumented into this recorder. Tracing never schedules events or
   * alters behaviour, so the simulated event stream — and its digest —
   * is identical with or without a recorder attached.
   */
  obs::TraceRecorder* trace = nullptr;

  /**
   * Event-loop threads. The simulator is single-threaded, so 1 is the
   * only accepted value; every run rejects any other. Kept only until
   * the benchmark driver stops assigning it.
   */
  int threads = 1;
};

/**
 * One constructed serving engine plus typed views into it. The engine
 * pointer owns the instance; exactly one of the typed views is non-null
 * (which one depends on the EngineKind and on RunConfig::fleet), giving
 * callers access to engine-specific reporting surfaces — utilization,
 * cache hit rates, preemption counts — without downcasting.
 */
struct EngineInstance {
  std::unique_ptr<serve::Engine> engine;
  core::MuxWiseEngine* muxwise = nullptr;
  route::FleetRouter* fleet = nullptr;
  baselines::ChunkedPrefillEngine* chunked = nullptr;
  baselines::StaticDisaggEngine* disagg = nullptr;
  baselines::LoongServeEngine* loong = nullptr;
};

/**
 * Builds the engine a run of `kind` drives, wired to `simulator`:
 * recovery policy resolved (a fault plan implies it), overload policy
 * and fleet routing applied per `config`.
 */
EngineInstance MakeEngine(EngineKind kind, sim::Simulator* simulator,
                          const serve::Deployment& deployment,
                          const core::ContentionEstimator* shared_estimator,
                          const RunConfig& config);

/**
 * Everything the paper's tables/figures report about one run, whatever
 * its arrival source: a replayed trace (RunWorkload) or a lazy stream
 * (RunStreamingWorkload).
 */
struct RunOutcome {
  std::string engine;
  bool stable = true;           // All requests completed in time.
  std::size_t completed = 0;    // Requests that reached a terminal state.
  std::size_t total = 0;

  serve::LatencySummary ttft;
  serve::LatencySummary tbt;
  serve::LatencySummary tpot;
  serve::LatencySummary e2e;
  serve::LatencySummary ttft_per_token;

  /** Per-token TTFT population (ms) for CDF plots — a bounded sketch
   * instead of raw samples, exact below its exact-tier capacity. */
  serve::QuantileSketch ttft_per_token_sketch;

  /** Full-population TTFT sketch (the subject of the accuracy gate). */
  serve::QuantileSketch ttft_sketch;

  /**
   * Exact TTFT samples (ms) of a deterministic 1-in-K request subsample,
   * in completion order — the oracle the sketch is checked against.
   * Empty unless the arrival source keeps one (streams do).
   */
  std::vector<double> ttft_subsample_ms;

  /** High-water mark of simultaneously in-flight request specs (streams
   * only; a replayed trace holds every spec for the whole run). */
  std::size_t peak_in_flight = 0;

  /** Bytes held by every metric sketch at end of run — the O(1)
   * metric-memory witness the nightly smoke asserts on. */
  std::size_t metric_bytes = 0;

  /**
   * Order-invariant digest over every metric sketch's state, and
   * whether any population spilled past the exact tier. Folded into
   * OutcomeDigest only when `metrics_overflowed` — below the capacity
   * the latency summaries already pin the full population bit-for-bit,
   * so historical digests stay untouched; past it the summaries
   * quantise and the sketch state itself becomes the witness.
   */
  std::uint64_t metrics_state_digest = 0;
  bool metrics_overflowed = false;

  double tbt_attainment = 0.0;  // Fraction of gaps within the target.
  bool meets_slo = false;

  double token_throughput = 0.0;  // (input+output) tokens / s.
  double request_throughput = 0.0;

  /** SM-utilization percentages; disaggregated engines report P and D. */
  std::vector<double> gpu_utilization;

  double bubble_ratio = 0.0;    // MuxWise / chunked streams (§4.4.2).
  double cache_hit_rate = 0.0;  // Token-weighted, where applicable.
  std::size_t preemptions = 0;
  std::vector<core::MuxWiseEngine::PartitionSample> partition_trace;

  /**
   * Terminal disposition of every request: attained goodput plus the
   * degraded outcomes (timed-out / shed / crash-failed). In fault-free
   * runs `split.attained == completed` and the rest are zero.
   */
  serve::GoodputSplit split;

  /**
   * Per-SLO-class slices of the split, with queue-delay p99 and TTFT
   * attainment — the overload-control report card (indexed by
   * SloClassRank). All-standard traces leave the interactive and batch
   * slices empty, and the digest then ignores these fields.
   */
  std::array<serve::ClassMetrics, workload::kNumSloClasses> per_class;

  /** True when any request carried a non-standard SLO class. */
  bool has_class_mix = false;

  // Overload-control activity (MuxWise-family engines; zero elsewhere
  // and in disabled runs — folded into the digest only when active).
  bool overload_active = false;
  std::size_t overload_mode_transitions = 0;
  std::size_t kv_spills = 0;
  std::size_t kv_recomputes = 0;
  std::size_t kv_restores = 0;

  /**
   * Fleet-routing activity (RunConfig::fleet.enabled runs only; the
   * stats stay default elsewhere and are folded into the digest only
   * when `fleet_active` — per-class goodput, re-home counts, and the
   * failover-latency summary the fleet report card needs).
   */
  bool fleet_active = false;
  route::FleetStats fleet;

  /**
   * Empty on a run that terminated normally. Non-empty when the drive
   * loop had to cut the scenario off (drain timeout with work still
   * stuck, or event budget exhausted on a livelocked scheduler); the
   * end-of-run invariant audits are skipped for such runs because the
   * engine was interrupted mid-flight.
   */
  std::string diagnostic;

  /**
   * Order-sensitive digest of the simulator's executed event stream
   * (sim::Simulator::EventDigest) and its length. Two runs of the same
   * scenario must agree on both — the reproducibility witness that
   * VerifyDeterminism compares.
   */
  std::uint64_t event_digest = 0;
  std::size_t executed_events = 0;
};

/**
 * Hashes the observable results of a run (completion counts, latency
 * summaries, throughputs, and the event-stream digest) into one value
 * for cheap equality comparison across repeated runs.
 */
std::uint64_t OutcomeDigest(const RunOutcome& outcome);

/** What an arrival source observed while running a scenario to its end. */
struct DriveResult {
  /** All requests reached a terminal state within the drain horizon. */
  bool stable = false;

  /** Empty on termination; else why the run was cut off (see RunOutcome). */
  std::string diagnostic;

  /** Requests that reached a terminal state (RunOutcome::completed). */
  std::size_t terminal = 0;

  /** Time the last request reached a terminal state (0 if none did). */
  sim::Time last_completion = 0;
};

/**
 * Drives an already-started scenario (frontend arrivals scheduled)
 * under `config`'s bounds: events run until the drain horizon after the
 * last arrival, then — if work remains — through one bounded backlog
 * drain so partial statistics survive. Both phases respect
 * `config.event_budget`, so a livelocked engine terminates with a
 * diagnostic rather than hanging the process (the enforcement behind
 * RunConfig::drain_timeout_seconds).
 */
DriveResult DriveScenario(sim::Simulator& simulator,
                          const serve::Frontend& frontend,
                          const workload::Trace& trace,
                          const RunConfig& config = RunConfig());

/** The pieces of a run an arrival source feeds (see RunArrivals). */
struct RunContext {
  sim::Simulator& simulator;
  EngineInstance& instance;
  serve::MetricsCollector& metrics;
  RunOutcome& outcome;
};

/**
 * The run path every arrival source shares. On a fresh simulator it
 * builds the engine (MakeEngine), attaches `config.trace`, arms
 * `config.fault_plan` — all before any arrival — and hands the run to
 * `drive`, which starts its arrivals and runs the event loop to the
 * end. It then collects the outcome (goodput split, latency summaries,
 * sketch-state witness, throughput, per-engine stats, event digest) and
 * runs the end-of-run invariant audits unless the drive was cut off.
 * `total` is the number of requests the source will send.
 */
RunOutcome RunArrivals(EngineKind kind, const serve::Deployment& deployment,
                       const core::ContentionEstimator* shared_estimator,
                       const RunConfig& config, std::size_t total,
                       const std::function<DriveResult(RunContext&)>& drive);

/**
 * Replays `trace` through the chosen engine via a serve::Frontend and
 * DriveScenario. `shared_estimator` (required for MuxWise-family
 * engines) is the deployment's offline-profiled estimator; the engine
 * copies it.
 */
RunOutcome RunWorkload(EngineKind kind, const serve::Deployment& deployment,
                       const workload::Trace& trace,
                       const core::ContentionEstimator* shared_estimator,
                       const RunConfig& config = RunConfig());

/** One point of an SLO-attainment sweep (paper Fig. 15). */
struct SweepPoint {
  double rate_rps = 0.0;
  RunOutcome outcome;
};

/**
 * Replays `requests` with Poisson arrivals at each rate (ascending),
 * stopping after the first rate that is unstable or misses the SLO.
 * The goodput is the highest stable, SLO-meeting rate (0 if none).
 */
struct GoodputResult {
  std::vector<SweepPoint> points;
  double goodput_rps = 0.0;
  std::optional<RunOutcome> at_goodput;
};

GoodputResult SweepGoodput(EngineKind kind,
                           const serve::Deployment& deployment,
                           const workload::Trace& base_trace,
                           const std::vector<double>& rates,
                           const core::ContentionEstimator* shared_estimator,
                           const RunConfig& config = RunConfig(),
                           std::uint64_t arrival_seed = 2024);

/** Result of running one scenario twice (see CompareRuns). */
struct DeterminismReport {
  bool deterministic = false;
  std::uint64_t first_digest = 0;   // OutcomeDigest of run 1.
  std::uint64_t second_digest = 0;  // OutcomeDigest of run 2.
  std::size_t first_events = 0;
  std::size_t second_events = 0;
  std::string mismatch;  // Empty when deterministic.
};

/**
 * The double-run check: compares two runs of one scenario on their
 * event-stream digests, executed-event counts, outcome digests and
 * metric sketch states, in that order, naming the first that differs.
 * Bit-reproducibility is the property that lets scheduler conclusions
 * transfer from this simulator to real hardware; this is its enforcer.
 */
DeterminismReport CompareRuns(const RunOutcome& first,
                              const RunOutcome& second);

/**
 * Tolerances of CheckRun's sketch-accuracy property: the largest
 * relative error of the full-population TTFT sketch's p50 / p99
 * against the exact quantiles of the run's 1-in-K subsample. The
 * subsample is itself a random draw from the same population, so they
 * bound sketch quantization and sampling noise together.
 */
inline constexpr double kSketchP50Tolerance = 0.05;
inline constexpr double kSketchP99Tolerance = 0.10;

/** Verdict of CheckRun. */
struct RunCheck {
  /** One line per failed property, in check order; empty on a pass. */
  std::vector<std::string> failures;

  /** Exact p50 / p99 (ms) of the run's TTFT subsample; 0 without one. */
  double ttft_p50_exact_ms = 0.0;
  double ttft_p99_exact_ms = 0.0;

  bool ok() const { return failures.empty(); }
};

/**
 * The one property checker for scenario runs. A run passes when
 *   - it is stable (an unstable run names its reason);
 *   - its terminal ledger balances: split.total() == total;
 *   - when it carries an exact 1-in-K TTFT subsample, the sketch's
 *     p50 / p99 agree with the subsample's within kSketchP50Tolerance /
 *     kSketchP99Tolerance;
 *   - when `rerun` is given, a second run of the same scenario matches
 *     it under CompareRuns. The rerun is skipped once a property above
 *     has already failed.
 */
RunCheck CheckRun(const RunOutcome& outcome,
                  const std::function<RunOutcome()>& rerun = nullptr);

/** Runs the trace back-to-back on two fresh simulators and compares the
 * runs (CompareRuns). */
DeterminismReport VerifyDeterminism(
    EngineKind kind, const serve::Deployment& deployment,
    const workload::Trace& trace,
    const core::ContentionEstimator* shared_estimator,
    const RunConfig& config = RunConfig());

}  // namespace muxwise::harness

#endif  // MUXWISE_HARNESS_RUNNER_H_
