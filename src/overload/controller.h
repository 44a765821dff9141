#ifndef MUXWISE_OVERLOAD_CONTROLLER_H_
#define MUXWISE_OVERLOAD_CONTROLLER_H_

#include <array>
#include <cstddef>
#include <cstdint>

#include "sim/time.h"
#include "workload/slo.h"

namespace muxwise::overload {

/**
 * Serving pressure modes, ordered by severity. The controller walks
 * this ladder with hysteresis: each mode is entered at a high-water
 * signal and only left at a lower low-water signal after a minimum
 * dwell, so bursty signals cannot flap the system between modes.
 */
enum class Mode : std::uint8_t {
  kNormal = 0,
  kPressure = 1,
  kBrownout = 2,
  kShed = 3,
};

inline constexpr int kNumModes = 4;

const char* ModeName(Mode mode);

/** Prefill token-budget scale per mode (Normal..Shed). */
inline constexpr std::array<double, kNumModes> kPrefillScale = {1.0, 0.75,
                                                                0.5, 0.35};

/** A gated or deferred request waits at most this long, then sheds. */
inline constexpr sim::Duration kMaxAdmissionDelay = sim::Seconds(30);

/**
 * The host link that KV spill/restore transfers and the fleet's KV
 * re-migrations ride (~PCIe 4.0 x16 effective).
 */
inline constexpr double kHostLinkBandwidthBytesPerS = 24.0e9;
inline constexpr sim::Duration kHostLinkLatency = sim::Microseconds(25);

/**
 * Spill-vs-recompute decision for one victim: true when its pages make
 * the round trip over a host link of `bandwidth_bytes_per_s` and
 * `latency` (out now, back on restore) faster than redoing
 * `recompute_seconds` of prefill.
 */
bool SpillCheaper(double spill_bytes, double recompute_seconds,
                  double bandwidth_bytes_per_s, sim::Duration latency);

/**
 * Policy knobs for the overload-control layer. Everything is inert
 * until `enabled` is set, which keeps event streams bit-identical to a
 * build without the subsystem (the same contract FaultPlan honours).
 *
 * Defaults express the design intent — defer and shed batch first,
 * interactive last; degrade chunk budgets before dropping anything —
 * and are tuned for the Llama-70B / 8xA100 acceptance deployment. The
 * ladder's other thresholds are constants in controller.cc.
 */
struct Policy {
  bool enabled = false;

  // --- SLO-class admission: deterministic token buckets -------------
  // Refill rate (KV-demand tokens/s) and burst capacity per class,
  // indexed by SloClassRank. A zero rate disables the bucket for that
  // class (admission then only reacts to brownout modes).
  std::array<double, workload::kNumSloClasses> bucket_rate_tokens_per_s = {
      0.0, 0.0, 0.0};
  std::array<double, workload::kNumSloClasses> bucket_capacity_tokens = {
      0.0, 0.0, 0.0};

  /** Hard per-class pending-queue bound (delay/shed beyond it). */
  std::size_t max_queue_per_class = 4096;

  // --- Brownout state machine ---------------------------------------
  /** KV occupancy that enters kPressure. */
  double pressure_occupancy = 0.70;

  // --- Decode-safe preemption / KV spill ----------------------------
  bool preemption = true;

  /** Allow spill-to-host (otherwise every victim recomputes). */
  bool spill = true;
};

/**
 * One admission verdict. kDelay carries the deterministic time at
 * which the request's class bucket will have refilled enough to admit
 * it (the engine re-offers it then).
 */
struct AdmissionDecision {
  enum class Action : std::uint8_t { kAdmit, kDelay, kShed };
  Action action = Action::kAdmit;
  sim::Time retry_at = 0;
};

/**
 * Deterministic overload controller: per-class token buckets plus the
 * Normal -> Pressure -> Brownout -> Shed hysteresis ladder. Pure state
 * machine over simulated time — no randomness, no wall clock — so runs
 * are bit-reproducible.
 */
class Controller {
 public:
  explicit Controller(const Policy& policy);

  const Policy& policy() const { return policy_; }
  bool enabled() const { return policy_.enabled; }
  Mode mode() const { return mode_; }

  /**
   * Feeds the control signals (KV occupancy in [0,1], queue delay of
   * the oldest pending request) and advances the mode ladder. Returns
   * true when the mode changed. Escalation is immediate; de-escalation
   * steps one rung at a time after a minimum dwell.
   */
  bool Observe(sim::Time now, double kv_occupancy,
               sim::Duration queue_delay);

  /**
   * Class-aware admission. Draws `demand_tokens` from the class bucket
   * when available; otherwise delays until the bucket refills (the
   * engine sheds instead once the wait exceeds kMaxAdmissionDelay; any
   * class whose queue is over its hard bound sheds at once). Mode
   * overrides: batch defers from kBrownout, batch and standard shed at
   * kShed, and interactive is never mode-shed.
   */
  AdmissionDecision Admit(workload::SloClass slo_class,
                          std::int64_t demand_tokens, sim::Time now,
                          std::size_t queued_in_class);

  /** Current prefill token-budget scale (1.0 in Normal). */
  double PrefillScale() const;

  /** True while new batch-class work should wait in the queue. */
  bool DeferBatch() const;

  /** True when KV-pressure preemption may run (Pressure or worse). */
  bool PreemptionEligible() const;

  /** True when spilled requests should be pulled back (Normal/Pressure). */
  bool RestoreEligible() const { return mode_ <= Mode::kPressure; }

  /**
   * Spill-vs-recompute for one victim over the engine's host link
   * (overload::SpillCheaper at kHostLinkBandwidthBytesPerS and
   * kHostLinkLatency); false when the policy disallows spill.
   */
  bool SpillCheaper(double spill_bytes, double recompute_seconds) const;

  // --- Introspection for audits, traces, and outcomes ---------------
  std::size_t mode_transitions() const { return mode_transitions_; }
  std::size_t mode_entries(Mode mode) const {
    return mode_entries_[static_cast<int>(mode)];
  }
  std::size_t admitted(workload::SloClass c) const {
    return admitted_[workload::SloClassRank(c)];
  }
  std::size_t delayed(workload::SloClass c) const {
    return delayed_[workload::SloClassRank(c)];
  }
  std::size_t shed(workload::SloClass c) const {
    return shed_[workload::SloClassRank(c)];
  }

 private:
  /** Refills `bucket` up to its capacity for the elapsed time. */
  void Refill(int rank, sim::Time now);

  /** Severity the raw signals ask for, ignoring hysteresis. */
  Mode TargetMode(double kv_occupancy, sim::Duration queue_delay) const;

  /** True once the signals are below the exit thresholds of `mode`. */
  bool BelowExit(Mode mode, double kv_occupancy,
                 sim::Duration queue_delay) const;

  Policy policy_;
  Mode mode_ = Mode::kNormal;
  sim::Time mode_since_ = 0;

  std::array<double, workload::kNumSloClasses> bucket_level_;
  std::array<sim::Time, workload::kNumSloClasses> bucket_refilled_at_;

  std::size_t mode_transitions_ = 0;
  std::array<std::size_t, kNumModes> mode_entries_ = {1, 0, 0, 0};
  std::array<std::size_t, workload::kNumSloClasses> admitted_ = {0, 0, 0};
  std::array<std::size_t, workload::kNumSloClasses> delayed_ = {0, 0, 0};
  std::array<std::size_t, workload::kNumSloClasses> shed_ = {0, 0, 0};
};

/**
 * Victim-selection key for decode-safe preemption: lower-priority
 * classes go first, then least prefill progress, then the cheapest
 * recompute (Eq.1 estimate), with the request id as the deterministic
 * tie-break. Candidates must be prefill-phase — decode-holding
 * requests are never eligible.
 */
struct VictimKey {
  workload::SloClass slo_class = workload::SloClass::kStandard;
  std::int64_t progress_layers = 0;
  double recompute_seconds = 0.0;
  std::int64_t request_id = 0;
};

/** True when `a` should be preempted before `b`. */
bool PreemptBefore(const VictimKey& a, const VictimKey& b);

}  // namespace muxwise::overload

#endif  // MUXWISE_OVERLOAD_CONTROLLER_H_
