#ifndef MUXWISE_HARNESS_SCENARIO_H_
#define MUXWISE_HARNESS_SCENARIO_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "harness/runner.h"
#include "harness/streaming.h"
#include "workload/datasets.h"

namespace muxwise::harness {

/**
 * Declarative scenario DSL: one JSON file describes everything a run
 * needs — engine, deployment shape, trace composition (dataset mix,
 * MMPP phases, or a synthetic stream), SLO targets, and overload /
 * fleet / fault configuration — so new end-to-end scenarios are data,
 * not recompiled C++. The parser is
 * strict: unknown keys, unknown enum spellings, and malformed values
 * are reported with the offending path rather than silently defaulted,
 * because a typo that half-applies a scenario would still produce a
 * digest — just not the one the matrix pinned.
 *
 * Schema (all sections except "name" and "trace" optional):
 *
 *   {
 *     "name": "overload-mmpp-burst",
 *     "engine": "muxwise",             // muxwise|chunked|nanoflow|
 *                                      // sglang-pd|loongserve|
 *                                      // windserve|temporal
 *     "deployment": {"model": "Llama-70B", "gpu": "A100", "num_gpus": 8},
 *     "trace": {
 *       "mix": [ {"dataset": "sharegpt", "requests": 30,
 *                 "rate_per_second": 2.0, "seed": 901} ]
 *       // or "mmpp": { dataset, calm_rate_per_second, burst_multiplier,
 *       //              mean_calm_seconds, mean_burst_seconds,
 *       //              duration_seconds, class_mix: [i, s, b], seed }
 *       // or "streaming": { requests, rate_per_second,
 *       //                   input_tokens: {min, mean, max},
 *       //                   output_tokens: {min, mean, max}, seed,
 *       //                   exact_subsample_period }
 *     },
 *     "slo": {"ttft_ms": 500, "tbt_ms": 100, "ttft_per_token_us": 400,
 *             "percentile": 0.99},
 *     "run": {"drain_timeout_seconds": 600, "steady_state": false,
 *             "event_budget": 100000000, "token_budget": 0},
 *     "overload": {"enabled": true},
 *     "fleet": {"enabled": true, "replicas": 4, "failover": true,
 *               "migration": true,
 *               // Health policy (all optional; defaults in HealthPolicy):
 *               "heartbeat_ms": 500, "suspect_after_misses": 1,
 *               "down_after_misses": 2, "recovery_probation_beats": 2,
 *               "suspect_exit_beats": 1, "zombie_detection": true,
 *               "zombie_after_beats": 2, "zombie_down_beats": 4,
 *               "partition_detection": true},
 *     "faults": {
 *       "seed": 257,
 *       "crashes": [{"instance": 1, "at_seconds": 30,
 *                    "recover_at_seconds": 45}],   // omit to never recover
 *       "stragglers": [{"instance": 0, "from_seconds": 10,
 *                       "to_seconds": 20, "slowdown": 2.0}],
 *       "transfer_drops": [{"from_seconds": 0, "to_seconds": 120,
 *                           "probability": 0.01}],
 *       // Grey failures: heartbeats answer, work stalls ("zombies"),
 *       // links wink in and out ("flaps", link: true targets the
 *       // fleet host link), capacity silently shrinks ("degrades"),
 *       // and one direction of router<->replica traffic drops
 *       // ("partitions" — both directions would be a crash).
 *       "zombies": [{"instance": 0, "from_seconds": 10,
 *                    "to_seconds": 20}],
 *       "flaps": [{"instance": 0, "link": false, "from_seconds": 10,
 *                  "to_seconds": 20, "period_seconds": 2,
 *                  "duty_up": 0.5}],
 *       "degrades": [{"instance": 0, "link": false, "from_seconds": 10,
 *                     "to_seconds": 20, "flops_factor": 0.5,
 *                     "bandwidth_factor": 0.5}],
 *       "partitions": [{"instance": 0, "from_seconds": 10,
 *                       "to_seconds": 20, "drop_to_replica": false,
 *                       "drop_from_replica": true}]
 *     },
 *     "recovery": {"enabled": true}
 *   }
 */

/** One dataset leg of a scenario's "trace.mix". */
struct TraceMixPart {
  workload::Dataset dataset = workload::Dataset::kShareGpt;
  int requests = 0;
  double rate_per_second = 1.0;
  std::uint64_t seed = 1;
};

/** A fully parsed scenario, ready to build and run. */
struct ScenarioSpec {
  std::string name;
  EngineKind engine = EngineKind::kMuxWise;

  std::string model = "Llama-70B";
  std::string gpu = "A100";
  int num_gpus = 8;

  // Exactly one trace shape is populated (the parser enforces it).
  std::vector<TraceMixPart> mix;
  std::optional<workload::MmppOptions> mmpp;
  std::uint64_t mmpp_seed = 1;
  std::optional<StreamingSpec> streaming;

  /** SLO overrides; absent keeps the deployment's model defaults. */
  std::optional<workload::SloTargets> slo;

  /**
   * Harness knobs assembled by the parser: drain timeout, event
   * budget, overload policy, fleet routing, fault plan, recovery.
   */
  RunConfig config;

  bool IsStreaming() const { return streaming.has_value(); }
};

/** Parse outcome: a spec, or a source-qualified error message. */
struct ScenarioParseResult {
  std::optional<ScenarioSpec> spec;
  std::string error;

  bool ok() const { return spec.has_value(); }
};

/** Parses one scenario document; `source` labels error messages. */
ScenarioParseResult ParseScenarioJson(const std::string& text,
                                      const std::string& source);

/** Reads and parses a scenario file. */
ScenarioParseResult LoadScenarioFile(const std::string& path);

/**
 * Materializes the scenario's trace (mix or MMPP shapes; fatal on a
 * streaming spec, whose arrivals are generated lazily — see
 * RunStreamingWorkload).
 */
workload::Trace BuildScenarioTrace(const ScenarioSpec& spec);

/**
 * Builds the deployment (ByName lookups + SLO overrides) and runs the
 * scenario, whatever its trace shape: mix and MMPP traces replay
 * through RunWorkload, streams through RunStreamingWorkload.
 * Contention estimators are profiled once per (model, gpu, num_gpus)
 * and cached for the process lifetime, so matrix runs re-use them
 * across repeats. The cache is guarded, so concurrent runs may share
 * it. A non-null `trace` recorder is attached as RunConfig::trace;
 * tracing never changes the event stream, so the outcome is the same
 * with or without one.
 */
RunOutcome RunScenario(const ScenarioSpec& spec,
                       obs::TraceRecorder* trace = nullptr);

}  // namespace muxwise::harness

#endif  // MUXWISE_HARNESS_SCENARIO_H_
