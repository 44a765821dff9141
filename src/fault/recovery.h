#ifndef MUXWISE_FAULT_RECOVERY_H_
#define MUXWISE_FAULT_RECOVERY_H_

#include <cstdint>

#include "sim/time.h"
#include "workload/request_spec.h"
#include "workload/slo.h"

namespace muxwise::fault {

/**
 * Engine-side failure-recovery knobs. Defaults keep recovery disabled so
 * every existing scenario runs byte-identically; the harness enables it
 * whenever a fault plan is attached.
 *
 * The policy implements the paper-consistent triage order under faults:
 * shed new work first (admission control), abandon hopeless work second
 * (deadlines derived from the SLO), and only declare a request failed
 * when crashes have repeatedly destroyed its progress.
 */
struct RecoveryPolicy {
  /** Master switch; when false every knob below is inert. */
  bool enabled = false;

  /**
   * A request is abandoned once it has waited this multiple of its
   * length-scaled TTFT target plus the TPOT-scaled decode budget (see
   * RequestDeadline). 10x the p99 target is far beyond any SLO-attaining
   * completion, so deadline reaping never perturbs a healthy run.
   */
  double ttft_deadline_factor = 10.0;

  /** Decode-phase share of the deadline, in units of output * tbt. */
  double tpot_deadline_factor = 20.0;

  /** Crash re-enqueues allowed before a request is marked kFailed. */
  int max_crash_retries = 3;

  /**
   * Admission sheds a new request when the queued demand (including it)
   * exceeds this multiple of the engine's KV capacity. Queued demand is
   * a direct proxy for unservable backlog: KV the engine cannot hold
   * cannot start, so everything beyond the factor is hopeless work that
   * would only burn prefill cycles of in-flight decodes.
   */
  double shed_demand_factor = 1.5;
};

/**
 * Absolute give-up time for a request that arrived at `arrival`:
 *
 *   arrival + ttft_factor * TtftTarget(input) + tpot_factor * output * tbt
 *
 * Both terms scale with the request (long prompts and long generations
 * earn proportionally more patience), mirroring how the paper judges
 * TTFT per token and TPOT rather than absolute wall-clock latency.
 */
inline sim::Time RequestDeadline(sim::Time arrival,
                                 const workload::RequestSpec& spec,
                                 const workload::SloTargets& slo,
                                 const RecoveryPolicy& policy) {
  if (!policy.enabled) return sim::kTimeNever;
  const double budget =
      policy.ttft_deadline_factor *
          static_cast<double>(slo.TtftTargetFor(spec.input_tokens)) +
      policy.tpot_deadline_factor * static_cast<double>(spec.output_tokens) *
          static_cast<double>(slo.tbt);
  return arrival + static_cast<sim::Duration>(budget);
}

}  // namespace muxwise::fault

#endif  // MUXWISE_FAULT_RECOVERY_H_
