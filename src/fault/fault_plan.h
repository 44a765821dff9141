#ifndef MUXWISE_FAULT_FAULT_PLAN_H_
#define MUXWISE_FAULT_FAULT_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sim/json.h"
#include "sim/time.h"

namespace muxwise::fault {

/**
 * One instance crash: at `at` the instance loses every in-flight kernel
 * and its entire KV pool; at `recover_at` (kTimeNever = never) it
 * rejoins cold. Instance indices are mapped onto an engine's fault
 * domains modulo Engine::NumFaultDomains(), so the same plan drives
 * aggregated (one domain) and disaggregated (two domains) engines.
 */
struct CrashEvent {
  std::size_t instance = 0;
  sim::Time at = 0;
  sim::Time recover_at = sim::kTimeNever;
  bool operator==(const CrashEvent&) const = default;
};

/** Kernels on `instance` run `slowdown`x slower during [from, to). */
struct StragglerWindow {
  std::size_t instance = 0;
  sim::Time from = 0;
  sim::Time to = 0;
  double slowdown = 2.0;
  bool operator==(const StragglerWindow&) const = default;
};

/**
 * During [from, to), each interconnect transfer attempt is lost with
 * `failure_probability` (the link retries with backoff; see
 * sim::Channel::FaultModel).
 */
struct TransferFaultWindow {
  sim::Time from = 0;
  sim::Time to = 0;
  double failure_probability = 0.01;
  bool operator==(const TransferFaultWindow&) const = default;
};

/**
 * Grey failure: during [from, to) the instance answers heartbeats and
 * control traffic but its kernels stop completing (the device freezes,
 * retaining partial progress). A zombie looks Healthy to a deadline
 * detector — only a work-progress watermark exposes it. The window must
 * end (`to` finite) so runs can drain.
 */
struct ZombieWindow {
  std::size_t instance = 0;
  sim::Time from = 0;
  sim::Time to = 0;
  bool operator==(const ZombieWindow&) const = default;
};

/**
 * Grey failure: during [from, to) a target flaps up/down periodically.
 * Each period starts with a down phase of length period * (1 - duty_up)
 * followed by an up phase; the target is forced up at `to`. With
 * `link` true the engine's FaultableLink() flaps (down-phase transfer
 * attempts are deterministically lost and retried); otherwise the
 * instance's replica->router heartbeat path flaps (the FSM sees
 * intermittent silence — the hysteresis test case).
 */
struct FlapWindow {
  std::size_t instance = 0;
  bool link = false;
  sim::Time from = 0;
  sim::Time to = 0;
  sim::Duration period = 0;
  double duty_up = 0.5;
  bool operator==(const FlapWindow&) const = default;
};

/**
 * Grey failure: during [from, to) capacity silently degrades by
 * constant factors in (0, 1]. With `link` false the instance's device
 * roofline shrinks — effective FLOPs scale by `flops_factor`, the HBM
 * share by `bandwidth_factor` — while the planner's predictions stay
 * untouched (degradation is exactly a model/reality gap). With `link`
 * true the engine's FaultableLink() bandwidth scales by
 * `bandwidth_factor` (flops_factor must stay 1), feeding the
 * spill-vs-recompute costing a slower wire.
 */
struct DegradeWindow {
  std::size_t instance = 0;
  bool link = false;
  sim::Time from = 0;
  sim::Time to = 0;
  double flops_factor = 1.0;
  double bandwidth_factor = 1.0;
  bool operator==(const DegradeWindow&) const = default;
};

/**
 * Grey failure: an asymmetric partition during [from, to). With
 * `drop_from_replica` the replica->router direction is cut — heartbeats
 * go silent while the replica keeps serving (deadline detection fires
 * and fails over a live instance). With `drop_to_replica` the
 * router->replica direction is cut — new dispatches cannot reach it
 * while its heartbeats still arrive (the router must stop routing to an
 * instance that looks alive). Exactly one direction must be set: both
 * is indistinguishable from a crash (use Crash), neither is a no-op.
 */
struct PartitionWindow {
  std::size_t instance = 0;
  sim::Time from = 0;
  sim::Time to = 0;
  bool drop_to_replica = false;
  bool drop_from_replica = false;
  bool operator==(const PartitionWindow&) const = default;
};

/**
 * A deterministic chaos schedule. All times are simulator times — the
 * injector schedules plan entries as ordinary events, so a plan is as
 * reproducible as the workload trace it runs against; `seed` forks the
 * stream used for per-attempt transfer-loss draws.
 *
 * Built fluently:
 *
 *   FaultPlan plan;
 *   plan.Crash(0, sim::Seconds(30), sim::Seconds(45))
 *       .Straggle(0, sim::Seconds(50), sim::Seconds(60), 2.0)
 *       .DropTransfers(sim::Seconds(0), sim::Seconds(120), 0.01);
 */
struct FaultPlan {
  std::uint64_t seed = 0x101u;
  std::vector<CrashEvent> crashes;
  std::vector<StragglerWindow> stragglers;
  std::vector<TransferFaultWindow> transfer_faults;
  std::vector<ZombieWindow> zombies;
  std::vector<FlapWindow> flaps;
  std::vector<DegradeWindow> degrades;
  std::vector<PartitionWindow> partitions;
  bool operator==(const FaultPlan&) const = default;

  bool Empty() const {
    return crashes.empty() && stragglers.empty() && transfer_faults.empty() &&
           zombies.empty() && flaps.empty() && degrades.empty() &&
           partitions.empty();
  }

  FaultPlan& Crash(std::size_t instance, sim::Time at,
                   sim::Time recover_at = sim::kTimeNever);
  FaultPlan& Straggle(std::size_t instance, sim::Time from, sim::Time to,
                      double slowdown);
  FaultPlan& DropTransfers(sim::Time from, sim::Time to, double p);
  FaultPlan& Zombie(std::size_t instance, sim::Time from, sim::Time to);
  FaultPlan& Flap(std::size_t instance, sim::Time from, sim::Time to,
                  sim::Duration period, double duty_up);
  FaultPlan& FlapLink(sim::Time from, sim::Time to, sim::Duration period,
                      double duty_up);
  FaultPlan& Degrade(std::size_t instance, sim::Time from, sim::Time to,
                     double flops_factor, double bandwidth_factor);
  FaultPlan& DegradeLink(sim::Time from, sim::Time to,
                         double bandwidth_factor);
  FaultPlan& Partition(std::size_t instance, sim::Time from, sim::Time to,
                       bool drop_to_replica, bool drop_from_replica);

  /**
   * Non-fatal validation: empty string when well-formed, else the first
   * defect found as "<kind>[<i>]: <reason>" (or "seed: <reason>"), the
   * entry's path inside a scenario's "faults" block (the fuzzer filters
   * generated plans through this without dying). Rules: inverted or
   * overlapping same-target windows, slowdown < 1, a recover time at or
   * before its crash time, infinite zombie/flap/partition windows, flap
   * period <= 0 or duty outside (0, 1), degrade factors outside (0, 1]
   * (link degrades must keep flops_factor == 1), partitions with both
   * directions dropped (indistinguishable from a crash) or neither (a
   * no-op), and a seed above json::kMaxExactInteger (2^53 - 1), which
   * a scenario file cannot write exactly.
   */
  std::string Check() const;

  /** Fatal on malformed entries: sim::Fatal on a non-empty Check(). */
  void Validate() const;
};

/**
 * The scenario DSL's "faults" block, read and written through one
 * per-kind field table (fault_plan.cc): each kind's array key, and for
 * each entry field its DSL key, the struct member it fills and whether
 * it is required (an absent optional field keeps the struct's default).
 * Times are `*_seconds` numbers.
 *
 * PlanFromJson reads the block at `path` strictly: unknown and missing
 * keys, wrong types, a negative or fractional instance, a value too
 * large for its member and a block with no entries are errors, and so
 * is any defect Check() finds, named by the entry's path
 * ("faults.zombies[0]: ...").
 */
bool PlanFromJson(const json::Value& value, const std::string& path,
                  json::FieldReader& reader, FaultPlan* out);

/**
 * The plan as a "faults" block: every field of every entry, empty kinds
 * omitted, each time as the shortest decimal number of seconds that
 * reads back as the same nanosecond, and a crash that never recovers
 * without "recover_at_seconds". Deterministic, and every time below 26
 * days round-trips through PlanFromJson exactly.
 */
json::Value PlanToJson(const FaultPlan& plan);

}  // namespace muxwise::fault

#endif  // MUXWISE_FAULT_FAULT_PLAN_H_
