#ifndef MUXWISE_FAULT_INJECTOR_H_
#define MUXWISE_FAULT_INJECTOR_H_

#include <cstddef>

#include "check/invariant_registry.h"
#include "fault/fault_plan.h"
#include "obs/trace.h"
#include "serve/engine.h"
#include "sim/simulator.h"

namespace muxwise::fault {

/**
 * Turns a FaultPlan into ordinary simulator events against one engine.
 *
 * Everything rides the simulated clock: crashes, recoveries, straggler
 * window edges, transfer-fault window edges, and the grey-failure
 * edges (zombie freeze/thaw, flap toggle trains, degrade begin/end,
 * partition begin/heal) are ScheduleAt() events, and transfer losses
 * draw from an Rng forked off the plan seed — so a chaos run is
 * exactly as deterministic as a fault-free one, and VerifyDeterminism
 * applies unchanged. (A flapped-down link loses attempts without
 * drawing randomness, so it never perturbs the loss stream.)
 *
 * Plan instance indices map onto the engine's fault domains modulo
 * Engine::NumFaultDomains(); link-targeted windows (transfer faults,
 * link flaps, link degrades) arm the engine's FaultableLink() (and are
 * dropped, counted in `windows_skipped`, for engines with no
 * inter-instance link).
 *
 * The injector must outlive the simulation and is bound to a single
 * engine per instance.
 */
class FaultInjector {
 public:
  FaultInjector(sim::Simulator* simulator, FaultPlan plan);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /**
   * Validates the plan and schedules its events against `engine`
   * (which must outlive the simulation). Call exactly once, before
   * running the simulator past the plan's first event.
   */
  void Arm(serve::Engine& engine);

  const FaultPlan& plan() const { return plan_; }

  std::size_t crashes_injected() const { return crashes_injected_; }
  std::size_t recoveries_injected() const { return recoveries_injected_; }
  std::size_t straggler_edges_injected() const {
    return straggler_edges_injected_;
  }
  std::size_t transfer_edges_injected() const {
    return transfer_edges_injected_;
  }
  std::size_t zombie_edges_injected() const { return zombie_edges_injected_; }
  std::size_t flap_edges_injected() const { return flap_edges_injected_; }
  std::size_t degrade_edges_injected() const {
    return degrade_edges_injected_;
  }
  std::size_t partition_edges_injected() const {
    return partition_edges_injected_;
  }

  /** Link-targeted windows (transfer, link flap, link degrade) dropped
   * because the engine has no FaultableLink(). */
  std::size_t windows_skipped() const { return windows_skipped_; }

  /**
   * Registers the delivery audit: at quiescence every scheduled
   * injection event has fired — the plan the scenario claims to have
   * survived is the plan it actually received.
   */
  void RegisterAudits(check::InvariantRegistry& registry) const;

  /**
   * Attaches a tracer: every injection firing emits an instant on the
   * "fault" track ("crash", "recovery", "straggler-begin/-end",
   * "transfer-window-begin/-end", "zombie-begin/-end", "flap-down/-up",
   * "degrade-begin/-end", "partition-begin/-end", id = the target
   * domain). Set before Arm(); injection timing is plan-driven and
   * never changes.
   */
  void SetTracer(obs::Tracer tracer) { tracer_ = tracer; }

 private:
  sim::Simulator* sim_;
  FaultPlan plan_;
  bool armed_ = false;
  std::size_t events_scheduled_ = 0;
  std::size_t events_fired_ = 0;
  std::size_t crashes_injected_ = 0;
  std::size_t recoveries_injected_ = 0;
  std::size_t straggler_edges_injected_ = 0;
  std::size_t transfer_edges_injected_ = 0;
  std::size_t zombie_edges_injected_ = 0;
  std::size_t flap_edges_injected_ = 0;
  std::size_t degrade_edges_injected_ = 0;
  std::size_t partition_edges_injected_ = 0;
  std::size_t windows_skipped_ = 0;
  obs::Tracer tracer_;
};

}  // namespace muxwise::fault

#endif  // MUXWISE_FAULT_INJECTOR_H_
