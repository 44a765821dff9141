#include "overload/controller.h"

#include <algorithm>
#include <cmath>

#include "sim/logging.h"

namespace muxwise::overload {
namespace {

// Brownout ladder thresholds. Entry (either signal trips the mode) sits
// above a strictly lower exit (both signals must clear to leave it);
// kPressure's entry occupancy is Policy::pressure_occupancy.
constexpr double kPressureExitOccupancy = 0.60;
constexpr double kBrownoutOccupancy = 0.85;
constexpr double kBrownoutExitOccupancy = 0.75;
constexpr double kShedOccupancy = 0.95;
constexpr double kShedExitOccupancy = 0.87;
constexpr sim::Duration kPressureQueueDelay = sim::Seconds(2);
constexpr sim::Duration kBrownoutQueueDelay = sim::Seconds(8);
constexpr sim::Duration kShedQueueDelay = sim::Seconds(20);

/** Minimum time spent in a mode before de-escalating. */
constexpr sim::Duration kMinDwell = sim::Milliseconds(500);

/** Modes >= this defer new batch-class admissions. */
constexpr Mode kDeferBatchAt = Mode::kBrownout;

/** Modes >= this shed batch- and standard-class arrivals. */
constexpr Mode kShedAt = Mode::kShed;

/** Re-offer delay of a brownout-deferred batch admission. */
constexpr sim::Duration kDeferralDelay = kMinDwell;

}  // namespace

const char* ModeName(Mode mode) {
  switch (mode) {
    case Mode::kNormal:
      return "normal";
    case Mode::kPressure:
      return "pressure";
    case Mode::kBrownout:
      return "brownout";
    case Mode::kShed:
      return "shed";
  }
  return "unknown";
}

Controller::Controller(const Policy& policy) : policy_(policy) {
  for (int rank = 0; rank < workload::kNumSloClasses; ++rank) {
    // Buckets start full so a calm-start trace admits its head-of-line
    // burst unchanged.
    bucket_level_[rank] = policy_.bucket_capacity_tokens[rank];
    bucket_refilled_at_[rank] = 0;
  }
}

void Controller::Refill(int rank, sim::Time now) {
  const double rate = policy_.bucket_rate_tokens_per_s[rank];
  if (rate <= 0.0) return;
  const sim::Duration elapsed = now - bucket_refilled_at_[rank];
  if (elapsed <= 0) return;
  bucket_level_[rank] =
      std::min(policy_.bucket_capacity_tokens[rank],
               bucket_level_[rank] + rate * sim::ToSeconds(elapsed));
  bucket_refilled_at_[rank] = now;
}

Mode Controller::TargetMode(double kv_occupancy,
                            sim::Duration queue_delay) const {
  if (kv_occupancy >= kShedOccupancy || queue_delay >= kShedQueueDelay) {
    return Mode::kShed;
  }
  if (kv_occupancy >= kBrownoutOccupancy ||
      queue_delay >= kBrownoutQueueDelay) {
    return Mode::kBrownout;
  }
  if (kv_occupancy >= policy_.pressure_occupancy ||
      queue_delay >= kPressureQueueDelay) {
    return Mode::kPressure;
  }
  return Mode::kNormal;
}

bool Controller::BelowExit(Mode mode, double kv_occupancy,
                           sim::Duration queue_delay) const {
  switch (mode) {
    case Mode::kNormal:
      return false;  // Nothing below normal.
    case Mode::kPressure:
      return kv_occupancy < kPressureExitOccupancy &&
             queue_delay < kPressureQueueDelay;
    case Mode::kBrownout:
      return kv_occupancy < kBrownoutExitOccupancy &&
             queue_delay < kBrownoutQueueDelay;
    case Mode::kShed:
      return kv_occupancy < kShedExitOccupancy &&
             queue_delay < kShedQueueDelay;
  }
  return false;
}

bool Controller::Observe(sim::Time now, double kv_occupancy,
                         sim::Duration queue_delay) {
  if (!policy_.enabled) return false;
  const Mode target = TargetMode(kv_occupancy, queue_delay);
  if (target > mode_) {
    // Escalate immediately — overload does not wait for a dwell.
    mode_ = target;
    mode_since_ = now;
    ++mode_transitions_;
    ++mode_entries_[static_cast<int>(mode_)];
    return true;
  }
  if (target < mode_ && now - mode_since_ >= kMinDwell &&
      BelowExit(mode_, kv_occupancy, queue_delay)) {
    // De-escalate one rung at a time so recovery is gradual.
    mode_ = static_cast<Mode>(static_cast<int>(mode_) - 1);
    mode_since_ = now;
    ++mode_transitions_;
    ++mode_entries_[static_cast<int>(mode_)];
    return true;
  }
  return false;
}

AdmissionDecision Controller::Admit(workload::SloClass slo_class,
                                    std::int64_t demand_tokens,
                                    sim::Time now,
                                    std::size_t queued_in_class) {
  AdmissionDecision decision;
  if (!policy_.enabled) {
    decision.action = AdmissionDecision::Action::kAdmit;
    return decision;
  }
  const int rank = workload::SloClassRank(slo_class);

  // Hard bound: no class queue grows without limit, interactive
  // included — this is the backstop behind the bounded-queue audit.
  if (queued_in_class >= policy_.max_queue_per_class) {
    decision.action = AdmissionDecision::Action::kShed;
    ++shed_[rank];
    return decision;
  }

  // Mode overrides: batch defers from kBrownout, then sheds together
  // with standard at kShed; interactive is never mode-shed.
  if (slo_class != workload::SloClass::kInteractive && mode_ >= kShedAt) {
    decision.action = AdmissionDecision::Action::kShed;
    ++shed_[rank];
    return decision;
  }
  if (slo_class == workload::SloClass::kBatch && mode_ >= kDeferBatchAt) {
    // Brownout parks batch arrivals; the engine sheds them if the
    // deferral outlives kMaxAdmissionDelay.
    decision.action = AdmissionDecision::Action::kDelay;
    decision.retry_at = now + kDeferralDelay;
    ++delayed_[rank];
    return decision;
  }

  // Token bucket (disabled for the class when its rate is zero).
  const double rate = policy_.bucket_rate_tokens_per_s[rank];
  if (rate > 0.0) {
    Refill(rank, now);
    const double demand = static_cast<double>(demand_tokens);
    if (bucket_level_[rank] < demand) {
      const double deficit = demand - bucket_level_[rank];
      const double wait_seconds = deficit / rate;
      decision.action = AdmissionDecision::Action::kDelay;
      decision.retry_at =
          now + std::max<sim::Duration>(
                    sim::Milliseconds(1),
                    static_cast<sim::Duration>(
                        std::ceil(wait_seconds * 1e9)));
      ++delayed_[rank];
      return decision;
    }
    bucket_level_[rank] -= demand;
  }

  decision.action = AdmissionDecision::Action::kAdmit;
  ++admitted_[rank];
  return decision;
}

double Controller::PrefillScale() const {
  if (!policy_.enabled) return 1.0;
  return kPrefillScale[static_cast<int>(mode_)];
}

bool Controller::DeferBatch() const {
  return policy_.enabled && mode_ >= kDeferBatchAt;
}

bool Controller::PreemptionEligible() const {
  return policy_.enabled && policy_.preemption && mode_ >= Mode::kPressure;
}

bool Controller::SpillCheaper(double spill_bytes,
                              double recompute_seconds) const {
  if (!policy_.spill) return false;
  return overload::SpillCheaper(spill_bytes, recompute_seconds,
                                kHostLinkBandwidthBytesPerS,
                                kHostLinkLatency);
}

bool SpillCheaper(double spill_bytes, double recompute_seconds,
                  double bandwidth_bytes_per_s, sim::Duration latency) {
  // The victim's pages cross the host link twice (out now, back on
  // restore); recompute pays the prefill roofline again instead.
  const double round_trip = 2.0 * spill_bytes / bandwidth_bytes_per_s +
                            2.0 * sim::ToSeconds(latency);
  return round_trip < recompute_seconds;
}

bool PreemptBefore(const VictimKey& a, const VictimKey& b) {
  const int rank_a = workload::SloClassRank(a.slo_class);
  const int rank_b = workload::SloClassRank(b.slo_class);
  if (rank_a != rank_b) return rank_a > rank_b;  // Lowest class first.
  if (a.progress_layers != b.progress_layers) {
    return a.progress_layers < b.progress_layers;  // Least progress first.
  }
  if (a.recompute_seconds != b.recompute_seconds) {
    return a.recompute_seconds < b.recompute_seconds;  // Cheapest redo.
  }
  return a.request_id < b.request_id;  // Deterministic tie-break.
}

}  // namespace muxwise::overload
