#ifndef MUXWISE_CORE_DISPATCHER_H_
#define MUXWISE_CORE_DISPATCHER_H_

#include <cstdint>
#include <vector>

#include "core/estimator.h"
#include "llm/cost_model.h"
#include "serve/deployment.h"
#include "sim/time.h"

namespace muxwise::core {

/**
 * The SLO-aware dispatcher (paper §3.4): pure decision logic, shared by
 * the serving engine and testable in isolation.
 *
 * Policy: decode SLO attainment is prioritized — the smallest SM
 * partition whose worst-case decode estimate meets the TBT target is
 * reserved for decode and everything else goes to prefill, which is
 * processed as early as possible (its SLO is expected, not guaranteed,
 * §3.4.1). Prefill is issued in layer groups sized so the launched
 * layers outlast the concurrent decode iteration (N_PL formula), and
 * short prefills may preempt long ones when the wait would break their
 * TTFT while the long prefill can still make its own.
 */
class SloAwareDispatcher {
 public:
  struct Options {
    bool preemption = true;
  };

  /** Headroom subtracted from the TBT target (launch overheads). */
  static constexpr sim::Duration kTbtMargin = sim::Milliseconds(2);

  /** Layer-group size when no decode constrains pacing. */
  static constexpr int kIdleLayerGroup = 8;

  SloAwareDispatcher(const serve::Deployment& deployment,
                     const ContentionEstimator* estimator, Options options);

  /**
   * Best-fit SM reservation for the decode batch (paper Fig. 12):
   * smallest partition option whose worst-case latency meets the TBT
   * target minus margin. Returns the full device when no prefill is
   * pending, and the largest option (accepting risk, which online
   * refinement will observe) when none fits. When prefill is pending
   * and `worst_case` is non-null, it receives the worst-case decode
   * latency of the returned partition, so the caller need not price it
   * again.
   */
  int ChooseDecodeSms(const llm::DecodeBatch& decode, bool prefill_pending,
                      const PrefillDesc& prefill,
                      sim::Duration* worst_case = nullptr) const;
  int ChooseDecodeSms(const std::vector<std::int64_t>& decode_ctx,
                      bool prefill_pending, const PrefillDesc& prefill) const {
    return ChooseDecodeSms(llm::DecodeBatch::Of(decode_ctx), prefill_pending,
                           prefill);
  }

  /**
   * N_PL = ceil(T_d * N_T / T_P): the number of prefill layers to
   * launch so their execution covers one decode iteration (paper
   * §3.4.2), where `prefill_phase` is T_P, the batch's solo phase time
   * on its SMs. Clamped to [1, layers_remaining].
   */
  int PrefillLayersToLaunch(sim::Duration decode_estimate,
                            sim::Duration prefill_phase,
                            int layers_remaining) const;
  int PrefillLayersToLaunch(sim::Duration decode_estimate,
                            const std::vector<llm::SeqWork>& prefill_batch,
                            int prefill_sms, int layers_remaining) const {
    const sim::Duration phase =
        estimator_->PredictPrefill(prefill_batch, prefill_sms);
    return PrefillLayersToLaunch(decode_estimate, phase, layers_remaining);
  }

  /**
   * Preemption test (paper §3.4.2): the incoming batch may preempt the
   * active one iff preemption is enabled, the active batch is not
   * itself a preemptor (no recursion), waiting would break the
   * incoming (length-scaled) TTFT deadline, preempting meets it, and
   * the active batch still meets its own deadline after resuming.
   */
  bool ShouldPreempt(sim::Time now, sim::Duration active_remaining,
                     bool active_is_preemptor, sim::Time active_deadline,
                     sim::Duration incoming_duration,
                     sim::Time incoming_deadline) const;

 private:
  serve::Deployment deployment_;
  const ContentionEstimator* estimator_;
  Options options_;
  std::vector<int> partition_options_;
};

}  // namespace muxwise::core

#endif  // MUXWISE_CORE_DISPATCHER_H_
