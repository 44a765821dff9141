#include "core/dispatcher.h"

#include <algorithm>
#include <cmath>

#include "sim/logging.h"

namespace muxwise::core {

SloAwareDispatcher::SloAwareDispatcher(const serve::Deployment& deployment,
                                       const ContentionEstimator* estimator,
                                       Options options)
    : deployment_(deployment), estimator_(estimator), options_(options) {
  MUX_CHECK(estimator_ != nullptr);
  partition_options_ = deployment_.SmPartitionOptions();
}

int SloAwareDispatcher::ChooseDecodeSms(const llm::DecodeBatch& decode,
                                        bool prefill_pending,
                                        const PrefillDesc& prefill,
                                        sim::Duration* worst_case) const {
  const int full = deployment_.gpu.sm_count;
  if (!prefill_pending) return full;
  // The partition last priced, and its worst case.
  int priced_sms = 0;
  sim::Duration worst = 0;
  const auto chosen = [&](int sms) {
    if (worst_case != nullptr) {
      *worst_case = sms == priced_sms
                        ? worst
                        : estimator_->WorstCaseDecode(decode, sms, prefill);
    }
    return sms;
  };
  if (decode.size == 0) {
    // Nothing decoding: keep the minimum partition warm so a merge can
    // start immediately; prefill gets nearly everything.
    return chosen(partition_options_.front());
  }
  const sim::Duration budget = deployment_.slo.tbt - kTbtMargin;
  for (int sms : partition_options_) {
    if (sms >= full) break;  // Multiplexed configs only.
    priced_sms = sms;
    worst = estimator_->WorstCaseDecode(decode, sms, prefill);
    if (worst <= budget) return chosen(sms);
  }
  // No multiplexed partition fits: take the largest sub-device option;
  // online refinement will record what actually happens.
  return chosen(partition_options_.size() >= 2
                    ? partition_options_[partition_options_.size() - 2]
                    : partition_options_.back());
}

int SloAwareDispatcher::PrefillLayersToLaunch(sim::Duration decode_estimate,
                                              sim::Duration prefill_phase,
                                              int layers_remaining) const {
  MUX_CHECK(layers_remaining >= 1);
  if (decode_estimate <= 0 || prefill_phase <= 0) {
    return std::min(layers_remaining, kIdleLayerGroup);
  }
  const int total_layers = deployment_.model.num_layers;
  const double n_pl = std::ceil(static_cast<double>(decode_estimate) *
                                static_cast<double>(total_layers) /
                                static_cast<double>(prefill_phase));
  return std::clamp(static_cast<int>(n_pl), 1, layers_remaining);
}

bool SloAwareDispatcher::ShouldPreempt(sim::Time now,
                                       sim::Duration active_remaining,
                                       bool active_is_preemptor,
                                       sim::Time active_deadline,
                                       sim::Duration incoming_duration,
                                       sim::Time incoming_deadline) const {
  if (!options_.preemption) return false;
  if (active_is_preemptor) return false;  // No recursive preemption.
  // Without preemption the incoming batch waits behind the active one.
  const sim::Time incoming_finish_waiting =
      now + active_remaining + incoming_duration;
  if (incoming_finish_waiting <= incoming_deadline) return false;
  // Preempting must not doom the active batch, which resumes after the
  // incoming one. (Even when the incoming batch can no longer make its
  // own deadline, running it first still cuts its TTFT — the paper's
  // Fig. 20 CDF improves across all percentiles.)
  const sim::Time active_finish_preempted =
      now + incoming_duration + active_remaining;
  return active_finish_preempted <= active_deadline;
}

}  // namespace muxwise::core
