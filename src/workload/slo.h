#ifndef MUXWISE_WORKLOAD_SLO_H_
#define MUXWISE_WORKLOAD_SLO_H_

#include <cstdint>
#include <string>

#include "sim/time.h"

namespace muxwise::workload {

/**
 * Priority class attached to a request for overload control. Under
 * pressure the serving layer sheds batch work first and interactive
 * work last; with overload control disabled the class is inert.
 */
enum class SloClass : std::uint8_t {
  kInteractive = 0,
  kStandard = 1,
  kBatch = 2,
};

inline constexpr int kNumSloClasses = 3;

/** Stable rank for scheduling: lower rank is served / shed later. */
inline int SloClassRank(SloClass slo_class) {
  return static_cast<int>(slo_class);
}

/**
 * Service-level objectives for one deployment.
 *
 * Following the paper (§4.1): the goodput gate is the 99th-percentile
 * time-between-tokens (TBT, stricter than TPOT); TTFT is reported as a
 * latency distribution. Defaults: 50 ms TBT for Llama-8B, 100 ms for
 * Llama-70B and larger; TTFT 500 ms (chatbot-style).
 */
struct SloTargets {
  sim::Duration ttft = sim::Milliseconds(500);
  sim::Duration tbt = sim::Milliseconds(100);

  /**
   * Length scaling of the TTFT target: a 30K-token LooGLE prompt cannot
   * share a 500 ms deadline with a 200-token chat turn, which is also
   * why the paper evaluates preemption on TTFT *per token* (§4.4.3).
   */
  sim::Duration ttft_per_token = sim::Microseconds(400);

  /** Percentile at which attainment is judged (0.99 in the paper). */
  double percentile = 0.99;

  /** Absolute TTFT target for a request with `input_tokens` prompt. */
  sim::Duration TtftTargetFor(std::int64_t input_tokens) const {
    return ttft + input_tokens * ttft_per_token;
  }

  static SloTargets ForModel(const std::string& model_name) {
    SloTargets slo;
    if (model_name == "Llama-8B") {
      slo.tbt = sim::Milliseconds(50);
    } else {
      slo.tbt = sim::Milliseconds(100);
    }
    return slo;
  }
};

}  // namespace muxwise::workload

#endif  // MUXWISE_WORKLOAD_SLO_H_
