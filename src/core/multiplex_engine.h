#ifndef MUXWISE_CORE_MULTIPLEX_ENGINE_H_
#define MUXWISE_CORE_MULTIPLEX_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "gpu/gpu.h"
#include "gpu/host.h"
#include "obs/trace.h"
#include "serve/deployment.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace muxwise::core {

/**
 * The bubble-less multiplex engine (paper §3.2): owns the device, the
 * host launch thread, and the two green-context streams prefill and
 * decode execute on, and implements the mechanics the scheduling policy
 * sits on — partition reconfiguration, layer-group launches, and the
 * launch-latency accounting responsible for the bubbles of Fig. 9.
 *
 * Modes select the multiplexing substrate:
 *  - kSpatial: managed green-context SM partitions (MuxWise proper).
 *  - kUnmanaged: two plain CUDA streams, both granted the full device —
 *    the WindServe-style prototype of §6; contention is uncontrolled.
 *  - kTemporal: prefill layers share the decode stream, time-multiplexed
 *    into decode slack — the enhanced Tropical-style variant of §6.
 */
class MultiplexEngine {
 public:
  enum class Mode { kSpatial, kUnmanaged, kTemporal };

  struct Options {
    Mode mode = Mode::kSpatial;

    /** Host cost of a green-context reconfiguration (stream sync). */
    sim::Duration reconfig_cost = sim::Microseconds(10);
  };

  /** The device's and the host's events belong to `domain`. */
  MultiplexEngine(sim::Simulator* simulator,
                  const serve::Deployment& deployment, Options options,
                  sim::Domain domain = sim::kGlobalDomain);

  gpu::Gpu& device() { return *device_; }
  const gpu::Gpu& device() const { return *device_; }
  gpu::HostThread& host() { return *host_; }

  /**
   * Applies an SM partition (decode / prefill). Charges the host the
   * reconfiguration cost when the partition actually changes. Ignored
   * in kUnmanaged and kTemporal modes.
   */
  void SetPartition(int decode_sms, int prefill_sms);

  /** Launches one decode iteration; `done` fires at kernel completion. */
  void LaunchDecode(const gpu::Kernel& kernel, sim::Duration launch_cost,
                    std::function<void()> done);

  /**
   * The device's clock (gpu::Gpu::AloneClock) for decode iterations run
   * back to back with no event of their own, their kernels shaped like
   * `shape`. Nothing when a launch waits on the host or the device is
   * not free.
   */
  std::optional<gpu::Gpu::AloneClock> DecodeAloneClock(
      const gpu::Kernel& shape) const;

  /**
   * Where a decode iteration launched now would start on the device: the
   * host starts it after any earlier submission and its launch cost.
   */
  sim::Time DecodeLaunchStart(sim::Duration launch_cost) const;

  /**
   * Accounts for decode iterations that ran with no simulator event, all
   * ended by Now(), their kernels priced one after another by a
   * DecodeAloneClock(), the first from DecodeLaunchStart() and each
   * later one `launch_cost` after the one before it ended. The host and
   * the device account for them as for as many LaunchDecode calls.
   */
  void RunDecodes(std::span<const gpu::Gpu::Priced> run,
                  sim::Duration launch_cost);

  /**
   * Takes one more such iteration, launched before Now() and priced as
   * `priced`, as a LaunchDecode of `kernel` would have left it by now:
   * running on the device when it started before Now(), else still a
   * launch on the host. `done` fires at its completion. The event this
   * leaves pending, the kernel's completion or the launch's end on the
   * host, replaces pending event `place` (Simulator::Replace).
   */
  void AdoptDecode(const gpu::Kernel& kernel, sim::Duration launch_cost,
                   const gpu::Gpu::Priced& priced, std::function<void()> done,
                   sim::EventId place);

  /** Launches one prefill layer group on the prefill context. */
  void LaunchPrefillGroup(const gpu::Kernel& kernel,
                          sim::Duration launch_cost,
                          std::function<void()> done);

  int decode_sms() const { return decode_sms_; }
  int prefill_sms() const { return prefill_sms_; }
  Mode mode() const { return options_.mode; }

  /**
   * Crash support: aborts everything running or queued on the device
   * and invalidates every launch still sitting on the host thread (host
   * submissions cannot be cancelled, so in-flight launch lambdas carry
   * the epoch at submission and fall through once it moves on). `done`
   * callbacks of invalidated launches are never invoked.
   */
  void Abort();

  /** Crash epoch; bumped by every Abort(). */
  std::uint64_t epoch() const { return epoch_; }

  /** Bubble ratio averaged over the two active streams (paper §4.4.2). */
  double AverageBubbleRatio() const;

  /** Number of partition reconfigurations performed. */
  std::size_t reconfigurations() const { return reconfigurations_; }

  /**
   * Registers partition-conservation audits (in kSpatial mode the
   * decode + prefill green contexts never oversubscribe the device,
   * across every reconfiguration) plus the device's own audits.
   */
  void RegisterAudits(check::InvariantRegistry& registry) const;

  /**
   * Attaches a tracer and forwards it to the device ("gpu/" tracks).
   * Reconfigurations become "reconfig" complete spans on the
   * "partition" track (duration = the modelled host sync cost), and the
   * configured split is published as "decode-sms" / "prefill-sms"
   * counters — in kUnmanaged mode both report the full device, which is
   * exactly the oversubscription the exclusivity assertion rejects.
   */
  void AttachTracer(obs::Tracer tracer);

 private:
  /** A kernel launch waiting for the host thread. */
  struct PendingLaunch {
    gpu::StreamId stream;
    gpu::Kernel kernel;
    std::function<void()> done;
  };

  /**
   * Occupies the host for `launch_cost`, then launches `kernel` on
   * `stream`. The host completes submissions in order, so each host
   * callback starts the oldest pending launch. The callback carries only
   * the engine and the crash epoch, which std::function stores without
   * a heap allocation.
   */
  void SubmitLaunch(gpu::StreamId stream, const gpu::Kernel& kernel,
                    sim::Duration launch_cost, std::function<void()> done);

  /** The host callback of a launch: starts the oldest pending one. */
  std::function<void()> StartPendingLaunch();

  /** Publishes the current partition counters (no-op when untraced). */
  void TracePartition() const;

  sim::Simulator* sim_;
  serve::Deployment deployment_;
  Options options_;
  sim::Domain domain_;

  std::unique_ptr<gpu::Gpu> device_;
  std::unique_ptr<gpu::HostThread> host_;
  gpu::StreamId decode_stream_ = 0;
  gpu::StreamId prefill_stream_ = 0;

  int decode_sms_ = 0;
  int prefill_sms_ = 0;
  std::size_t reconfigurations_ = 0;
  std::uint64_t epoch_ = 0;

  // Launches submitted to the host and not yet started, oldest first.
  // MuxWiseEngine has at most one decode and one prefill launch in
  // flight, so popping the front is cheap and steady-state launches
  // reuse the capacity.
  std::vector<PendingLaunch> launches_;

  obs::Tracer tracer_;
};

}  // namespace muxwise::core

#endif  // MUXWISE_CORE_MULTIPLEX_ENGINE_H_
