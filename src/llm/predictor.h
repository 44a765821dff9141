#ifndef MUXWISE_LLM_PREDICTOR_H_
#define MUXWISE_LLM_PREDICTOR_H_

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "gpu/gpu.h"
#include "llm/cost_model.h"
#include "sim/time.h"

namespace muxwise::llm {

/**
 * Fixed-size summary of a prefill batch: Eq. 1's feature sums
 * (sum n_i^2, sum n_i r_i, sum n_i), accumulated in batch order. A
 * caller that prices the same batch repeatedly computes it once and
 * keeps it until the batch changes. Built only through Of(), so a
 * braced batch such as `{SeqWork{n, r}}` still selects the vector
 * adaptors.
 */
struct PrefillBatch {
  static PrefillBatch Of(const std::vector<SeqWork>& batch);
  static PrefillBatch Of(const SeqWork& seq);

  double sum_n2;
  double sum_nr;
  double sum_n;

 private:
  PrefillBatch(double n2, double nr, double n)
      : sum_n2(n2), sum_nr(nr), sum_n(n) {}
};

/**
 * The paper's solo-run latency predictor (§3.3.2, Eq. 1 and Eq. 2).
 *
 * Per SM-allocation option it fits, against offline profiling of the
 * (simulated) device:
 *
 *   T_prefill = th1 * sum(n_i^2) + th2 * sum(n_i r_i) + th3 * sum(n_i) + th4
 *   T_decode  = th1 * sum(r_i)   + th2 * bs           + th3
 *
 * Training also records the maximum relative deviation per phase; the
 * caller (MuxWise's estimator) inflates predictions by that margin when
 * it needs worst-case numbers.
 */
class SoloRunPredictor {
 public:
  /** Fitted coefficients and achieved accuracy for one SM option. */
  struct Fit {
    std::vector<double> theta;
    double max_relative_error = 0.0;
  };

  SoloRunPredictor() = default;

  /**
   * Trains against analytic solo-run durations on `device` for every SM
   * allocation in `sm_options` (paper: one-time offline profiling per
   * LLM-machine pair, a few hours there, milliseconds here).
   */
  static SoloRunPredictor Train(const gpu::Gpu& device,
                                const CostModel& cost_model,
                                const std::vector<int>& sm_options);

  /** Predicted solo-run prefill-phase duration on `sms` SMs (Eq. 1). */
  sim::Duration PredictPrefill(const PrefillBatch& batch, int sms) const;
  sim::Duration PredictPrefill(const std::vector<SeqWork>& batch,
                               int sms) const {
    return PredictPrefill(PrefillBatch::Of(batch), sms);
  }

  /** Predicted solo-run decode-iteration duration on `sms` SMs (Eq. 2). */
  sim::Duration PredictDecode(const DecodeBatch& batch, int sms) const;
  sim::Duration PredictDecode(const std::vector<std::int64_t>& context_lens,
                              int sms) const {
    return PredictDecode(DecodeBatch::Of(context_lens), sms);
  }

  /** Worst observed relative training error for prefill at `sms`. */
  double PrefillMaxError(int sms) const;

  /** Worst observed relative training error for decode at `sms`. */
  double DecodeMaxError(int sms) const;

  /** SM options the predictor was trained for. */
  std::vector<int> TrainedSmOptions() const;

 private:
  /** Nearest trained option <= sms (or the smallest trained option). */
  const Fit& PrefillFit(int sms) const;
  const Fit& DecodeFit(int sms) const;

  std::map<int, Fit> prefill_fits_;
  std::map<int, Fit> decode_fits_;
};

}  // namespace muxwise::llm

#endif  // MUXWISE_LLM_PREDICTOR_H_
