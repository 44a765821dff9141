#ifndef MUXWISE_SIM_CHANNEL_H_
#define MUXWISE_SIM_CHANNEL_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/time.h"

/**
 * Instance-boundary annotations, read by tools/muxlint's shard-safety
 * pass (a "shard" there is one GPU instance).
 *
 * Every cross-instance interaction flows through an explicit
 * sim::Channel, so each crossing is named, counted, and — for wire
 * transfers — subject to the link's fault model. The macros expand to
 * nothing at compile time; they exist so the analyzer can tell blessed
 * cross-instance surfaces from accidental ones:
 *
 *  - MUX_SHARD_LOCAL marks a function that touches at most one GPU
 *    instance. muxlint flags it if it ever references two.
 *  - MUX_CHANNEL_ENTRY marks a deliberate cross-instance entry point —
 *    a function allowed to touch several instances because it *is* the
 *    channel discipline (constructors wiring a cluster, fault injection
 *    fan-out, channel completion handlers).
 *
 * Any unannotated function in src/core or src/baselines that references
 * two distinct instances is a muxlint `shard-safety` finding.
 */
#define MUX_SHARD_LOCAL
#define MUX_CHANNEL_ENTRY

namespace muxwise::sim {

/**
 * The one conduit for cross-instance interactions: interconnect
 * transfers (KV migration, spill/restore over host links), and
 * cluster-level control callbacks between instances.
 *
 * Clocked transfers model a FIFO point-to-point wire: transfers queue
 * behind each other; duration is latency + bytes / bandwidth. The idle
 * marker is clamped to Now() at enqueue time, so a transfer issued long
 * after the link went idle starts immediately instead of inheriting
 * stale serialization state, and bytes/completion counters advance only
 * when the bytes actually land (never at enqueue).
 *
 * Control deliveries (`Deliver`) are same-tick hand-offs between
 * instances: they run inline — the simulator is single-threaded, so
 * routing them through the channel changes no event ordering and no
 * digest — but they are counted, named, and statically enforceable.
 *
 * With EnableFaults() armed, each transfer attempt may be lost with the
 * model's probability (drawn from a seeded sim::Rng — deterministic).
 * Lost attempts retry with exponential backoff, re-occupying the wire,
 * up to max_attempts; after that the transfer permanently fails and the
 * caller's `failed` callback fires instead of `done`.
 */
class Channel {
 public:
  /** Deterministic per-attempt failure model for an armed channel. */
  struct FaultModel {
    /** Per-attempt loss probability; retuned live by the injector. */
    double failure_probability = 0.0;

    /** Total attempts per transfer (first try included), >= 1. */
    int max_attempts = 4;

    /**
     * Backoff before attempt k+1: initial_backoff * 2^(k-1), uncapped
     * (computed via the shared sim::BackoffDelay helper).
     */
    Duration initial_backoff = Milliseconds(2);
  };

  /** A clocked channel: FIFO wire with the given delay model. */
  Channel(Simulator* simulator, std::string name,
          double bandwidth_bytes_per_s, Duration latency);

  /**
   * A control-only channel (no wire model). Deliver() works; calling
   * Transfer() on it is a fatal error.
   */
  Channel(Simulator* simulator, std::string name);

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  const std::string& name() const { return name_; }

  /**
   * Arms the channel's failure model with a seeded stream. Unarmed
   * channels (the default) draw no randomness and schedule no retry
   * events, so fault-free runs stay bit-identical to a build without
   * this feature.
   */
  void EnableFaults(FaultModel model, Rng rng);

  /** Retunes the armed per-attempt loss probability (fault windows). */
  void SetFailureProbability(double p);

  /**
   * Link flap: while down, every transfer attempt is deterministically
   * lost (no randomness drawn, so an armed fault stream is unperturbed)
   * after occupying the wire — retries back off as usual and a transfer
   * whose attempts all land inside the down phase permanently fails.
   * Works on unarmed channels; up (the default) is digest-neutral.
   */
  void SetLinkUp(bool up) { link_up_ = up; }
  bool link_up() const { return link_up_; }

  /**
   * Silent degradation: wire time uses bandwidth * scale, scale in
   * (0, 1]. 1.0 (the default) is bit-neutral — multiplying a double by
   * 1.0 is exact.
   */
  void SetBandwidthScale(double scale);
  double bandwidth_scale() const { return bandwidth_scale_; }

  /**
   * Enqueues a clocked transfer; `done` fires when the bytes have
   * landed. If the armed fault model exhausts its attempts, `failed`
   * (when provided) fires instead — the permanent-failure path.
   */
  void Transfer(double bytes, std::function<void()> done,
                std::function<void()> failed = {});

  /**
   * Typed transfer: carries `payload` across the wire and hands it to
   * exactly one of the two receivers. The payload is owned by the
   * channel while in flight, so the sender can release its side
   * immediately and the receiver never reaches back into sender state.
   */
  template <typename Payload>
  void Send(double bytes, Payload payload,
            std::function<void(Payload)> delivered,
            std::function<void(Payload)> failed = {}) {
    auto box = std::make_shared<Payload>(std::move(payload));
    Transfer(
        bytes,
        [box, delivered = std::move(delivered)] {
          if (delivered) delivered(std::move(*box));
        },
        [box, failed = std::move(failed)] {
          if (failed) failed(std::move(*box));
        });
  }

  /**
   * Same-tick cross-instance control delivery: runs `fn` immediately
   * (the simulator is single-threaded; no event is scheduled, so digests
   * are unchanged) while making the crossing explicit and counted. Every
   * cluster-level callback that hops between instances routes through
   * here rather than calling the other instance directly.
   */
  MUX_CHANNEL_ENTRY void Deliver(const std::function<void()>& fn) {
    ++deliveries_;
    if (fn) fn();
  }

  /** Total bytes that actually landed (retries count once, on success). */
  double bytes_transferred() const { return bytes_transferred_; }

  /** Number of completed transfers. */
  std::size_t transfers_completed() const { return transfers_completed_; }

  /** Attempts lost and retried (transient failures). */
  std::size_t attempts_failed() const { return attempts_failed_; }

  /** Transfers that exhausted their attempts (permanent failures). */
  std::size_t transfers_failed() const { return transfers_failed_; }

  /** Same-tick control deliveries routed through this channel. */
  std::size_t deliveries() const { return deliveries_; }

  /** The wire's fixed latency term (0 on control-only channels). */
  Duration latency() const { return latency_; }

 private:
  /** Occupies the wire for one attempt and schedules its landing. */
  void StartAttempt(double bytes, int attempt, std::function<void()> done,
                    std::function<void()> failed);

  Simulator* sim_;
  std::string name_;
  double bandwidth_ = 0.0;  // 0 marks a control-only channel.
  double bandwidth_scale_ = 1.0;  // Degrade factor, (0, 1].
  bool link_up_ = true;           // Flap state; down loses every attempt.
  Duration latency_ = 0;
  Time free_at_ = 0;
  double bytes_transferred_ = 0.0;
  std::size_t transfers_completed_ = 0;
  std::size_t attempts_failed_ = 0;
  std::size_t transfers_failed_ = 0;
  std::size_t deliveries_ = 0;
  FaultModel fault_model_;
  std::optional<Rng> fault_rng_;
};

}  // namespace muxwise::sim

#endif  // MUXWISE_SIM_CHANNEL_H_
