#ifndef MUXWISE_GPU_HOST_H_
#define MUXWISE_GPU_HOST_H_

#include <algorithm>
#include <cstddef>
#include <functional>

#include "sim/logging.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace muxwise::gpu {

/**
 * Models the single CPU thread that issues work to a GPU.
 *
 * Kernel and graph launches are asynchronous on the device but occupy
 * the host for their launch latency, serializing with each other. This
 * is the mechanism behind the paper's launch-latency bubbles (§3.2.2):
 * while the host is busy launching a long prefill, it cannot launch the
 * next decode iteration.
 */
class HostThread {
 public:
  /** `domain` is the event domain of the host's callbacks. */
  explicit HostThread(sim::Simulator* simulator,
                      sim::Domain domain = sim::kGlobalDomain)
      : sim_(simulator), domain_(domain) {}

  HostThread(const HostThread&) = delete;
  HostThread& operator=(const HostThread&) = delete;

  /**
   * Occupies the host for `cost` (after any previously submitted work)
   * and then runs `fn`. Returns the completion time of this submission.
   */
  sim::Time Submit(sim::Duration cost, std::function<void()> fn) {
    const sim::Time start = std::max(sim_->Now(), busy_until_);
    busy_until_ = start + cost;
    if (fn) sim_->ScheduleAt(busy_until_, domain_, std::move(fn));
    total_busy_ += cost;
    return busy_until_;
  }

  /**
   * Takes `count` submissions of `cost` at once, placed by the caller as
   * Submit would have placed them one by one, the first no earlier than
   * the host was free, with no callback: the last of them completes at
   * `last_done`.
   */
  void SubmitRun(std::size_t count, sim::Duration cost, sim::Time last_done) {
    MUX_CHECK(count > 0 && last_done >= busy_until_ + cost);
    busy_until_ = last_done;
    total_busy_ += static_cast<sim::Duration>(count) * cost;
  }

  /** Time at which all submitted host work completes. */
  sim::Time busy_until() const { return busy_until_; }

  /** True when the host thread has no pending work. */
  bool Idle() const { return busy_until_ <= sim_->Now(); }

  /** Cumulative host time spent launching. */
  sim::Duration total_busy() const { return total_busy_; }

 private:
  sim::Simulator* sim_;
  sim::Domain domain_;
  sim::Time busy_until_ = 0;
  sim::Duration total_busy_ = 0;
};

}  // namespace muxwise::gpu

#endif  // MUXWISE_GPU_HOST_H_
