#ifndef MUXWISE_CORE_ESTIMATOR_H_
#define MUXWISE_CORE_ESTIMATOR_H_

#include <compare>
#include <cstdint>
#include <map>
#include <vector>

#include "llm/cost_model.h"
#include "llm/predictor.h"
#include "serve/deployment.h"
#include "sim/time.h"

namespace muxwise::core {

/** Coarse descriptor of the prefill work co-running with decode. */
struct PrefillDesc {
  std::int64_t new_tokens = 0;
  std::int64_t reused_tokens = 0;
};

/**
 * The contention-tolerant estimator (paper §3.3): a solo-run predictor
 * (Eq. 1/2, trained per SM option) combined with a contention guard — a
 * 5-D grid over (prefill new tokens, prefill reused tokens, decode
 * batch size, decode per-sequence context, partition configuration)
 * storing the maximum observed decode slowdown per cell.
 *
 * The guard is initialized by one-time offline pairwise profiling at
 * powers-of-4 granularity (paper: ~7K samples, 12 hours on hardware;
 * here: the same grid against the simulated device) and refined online
 * from runtime measurements. Per §3.4.1 the guard covers only decode;
 * prefill predictions need no worst case.
 */
class ContentionEstimator {
 public:
  struct CellKey {
    int prefill_new_bucket = 0;
    int prefill_reused_bucket = 0;
    int decode_batch_bucket = 0;
    int decode_ctx_bucket = 0;
    int partition_index = 0;  // decode SMs / granularity.

    auto operator<=>(const CellKey&) const = default;
  };

  struct Options {
    /**
     * Guard used for cells never profiled. Matches the paper's
     * observation that slowdown stays within 20% (A100) / 30% (H100),
     * plus margin.
     */
    double default_guard = 1.35;
  };

  ContentionEstimator(llm::SoloRunPredictor predictor,
                      const serve::Deployment& deployment, Options options);

  /**
   * Runs the one-time offline profiling pass: trains the solo-run
   * predictor and fills the contention guard by co-running
   * prefill/decode kernel pairs on a scratch simulated device.
   */
  static ContentionEstimator BuildOffline(const serve::Deployment& deployment,
                                          Options options);
  static ContentionEstimator BuildOffline(const serve::Deployment& deployment);

  /** Cell for a (prefill, decode, partition) combination. */
  CellKey CellFor(const PrefillDesc& prefill, std::size_t decode_batch,
                  std::int64_t decode_mean_ctx, int decode_sms) const;

  /** Solo-run decode-iteration estimate (Eq. 2). */
  sim::Duration PredictDecodeSolo(const llm::DecodeBatch& batch,
                                  int sms) const {
    return predictor_.PredictDecode(batch, sms);
  }
  sim::Duration PredictDecodeSolo(const std::vector<std::int64_t>& ctx,
                                  int sms) const {
    return PredictDecodeSolo(llm::DecodeBatch::Of(ctx), sms);
  }

  /** Solo-run prefill-phase estimate (Eq. 1). */
  sim::Duration PredictPrefill(const llm::PrefillBatch& batch, int sms) const {
    return predictor_.PredictPrefill(batch, sms);
  }
  sim::Duration PredictPrefill(const std::vector<llm::SeqWork>& batch,
                               int sms) const {
    return PredictPrefill(llm::PrefillBatch::Of(batch), sms);
  }

  /**
   * Worst-case decode-iteration latency on `decode_sms` SMs while the
   * described prefill occupies the rest: solo prediction inflated by
   * the fit-error margin and the guard factor of the grid cell.
   */
  sim::Duration WorstCaseDecode(const llm::DecodeBatch& batch, int decode_sms,
                                const PrefillDesc& prefill) const;
  sim::Duration WorstCaseDecode(const std::vector<std::int64_t>& ctx,
                                int decode_sms,
                                const PrefillDesc& prefill) const {
    return WorstCaseDecode(llm::DecodeBatch::Of(ctx), decode_sms, prefill);
  }

  /** Cell of a decode batch: its mean context (0 when empty) buckets. */
  CellKey CellFor(const PrefillDesc& prefill, const llm::DecodeBatch& batch,
                  int decode_sms) const;

  /** Guard factor for a cell (default when never observed). */
  double GuardFor(const CellKey& cell) const;

  /**
   * Online refinement (paper §3.1): records a measured decode slowdown
   * (actual / predicted-solo) for its cell, raising the guard when the
   * observation exceeds it. Returns true if the guard was raised.
   */
  bool ObserveDecode(const CellKey& cell, double slowdown);

  const llm::SoloRunPredictor& predictor() const { return predictor_; }
  std::size_t guard_cells() const { return guard_.size(); }
  std::size_t observations() const { return observations_; }
  std::size_t guard_raises() const { return guard_raises_; }

  /** Largest guard factor present in the grid. */
  double MaxGuard() const;

 private:
  llm::SoloRunPredictor predictor_;
  serve::Deployment deployment_;
  Options options_;
  std::map<CellKey, double> guard_;
  std::size_t observations_ = 0;
  std::size_t guard_raises_ = 0;
};

}  // namespace muxwise::core

#endif  // MUXWISE_CORE_ESTIMATOR_H_
