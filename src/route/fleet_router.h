#ifndef MUXWISE_ROUTE_FLEET_ROUTER_H_
#define MUXWISE_ROUTE_FLEET_ROUTER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/estimator.h"
#include "core/muxwise_engine.h"
#include "fault/fault_aware.h"
#include "overload/controller.h"
#include "route/affinity.h"
#include "route/health.h"
#include "serve/deployment.h"
#include "serve/metrics.h"
#include "sim/channel.h"
#include "sim/simulator.h"

namespace muxwise::route {

/** Knobs of the fleet router (all deterministic; no wall clock). */
struct FleetOptions {
  /** Routing through a fleet is opt-in: disabled keeps single-replica
   * event streams bit-identical to builds without this subsystem. */
  bool enabled = false;

  /** Replica count; each replica is one full MuxWiseEngine instance
   * owning its own slice of the cluster (its own gpu::Cluster). */
  std::size_t replicas = 1;

  HealthPolicy health;

  /**
   * Re-home orphans of a dead replica onto survivors. Off, orphans are
   * shed at failover (the negative twin the chaos tests compare
   * against) — still terminally accounted, never stranded.
   */
  bool failover = true;

  /**
   * Allow KV re-migration of a re-homed request's durable prefix over
   * the fleet host link when overload::SpillCheaper says the wire is
   * cheaper than recomputing it; off, every re-home recomputes.
   */
  bool migration = true;

  // --- Deterministic autoscale (off by default) ---------------------

  /** Evaluate replica scale-up/down at heartbeat ticks. */
  bool autoscale = false;
  std::size_t min_replicas = 1;

  /** Consecutive low-utilisation beats before draining a replica. */
  int scale_dwell_beats = 4;
};

/** Router-level counters surfaced to the harness and tests. */
struct FleetStats {
  std::size_t replicas = 0;
  std::vector<std::size_t> routed_per_replica;

  /** Dispatches served by the affinity table / session home map. */
  std::size_t affinity_hits = 0;
  std::size_t session_hits = 0;

  /** Orphans re-homed off dead replicas, split by KV strategy. */
  std::size_t rehomed = 0;
  std::size_t rehome_migrations = 0;
  std::size_t rehome_recomputes = 0;
  std::size_t rehome_shed = 0;    // Failover off, or no survivor.
  std::size_t rehome_failed = 0;  // Crash-retry budget spent.

  /** Arrivals shed by the fleet degradation ladder (or total outage). */
  std::size_t fleet_shed = 0;

  std::size_t failovers = 0;
  /** Zombie verdicts that reached Down (watermark-stall failovers). */
  std::size_t zombie_downs = 0;
  std::size_t health_transitions = 0;
  std::size_t mode_transitions = 0;
  std::size_t scale_ups = 0;
  std::size_t scale_downs = 0;

  /** Crash signal -> Down declaration, per failover, milliseconds. */
  serve::LatencySummary failover_latency;
};

/**
 * Deterministic fleet router in front of N MuxWiseEngine replicas on
 * one shared simulator (paper §2.1's fleet deployment of multiplexed
 * instances). Dispatch prefers cache affinity — the prefix-hash table
 * first, then the session's last good home, then least pending KV
 * demand — and a per-replica health state machine driven by
 * fault-injector signals and heartbeat deadlines detects crashes:
 * when a replica is declared Down, its queued orphans are re-homed to
 * survivors under a bounded retry budget with deterministic backoff,
 * each choosing between KV re-migration over the fleet host link and
 * recomputation via overload::SpillCheaper. A shrunken fleet degrades
 * through the overload mode ladder, shedding batch-class arrivals first.
 *
 * The router is itself a serve::Engine: the harness swaps it in where
 * a single engine would sit, and fault domains map 1:1 onto replicas.
 */
class FleetRouter : public fault::FaultAwareEngine {
 public:
  FleetRouter(sim::Simulator* simulator, const serve::Deployment& deployment,
              const core::ContentionEstimator& estimator,
              core::MuxWiseEngine::Options engine_options,
              FleetOptions options);
  ~FleetRouter() override;

  const char* name() const override { return "FleetRouter"; }
  void Enqueue(std::unique_ptr<serve::Request> request) override;
  void RegisterAudits(check::InvariantRegistry& registry) const override;

  std::size_t NumFaultDomains() const override { return replicas_.size(); }
  void InjectCrash(std::size_t domain) override;
  void InjectRecovery(std::size_t domain) override;
  void InjectStraggler(std::size_t domain, double slowdown) override;
  void InjectZombie(std::size_t domain, bool frozen) override;
  void InjectDegrade(std::size_t domain, double flops_factor,
                     double bandwidth_factor) override;
  void InjectPartition(std::size_t domain, bool drop_to,
                       bool drop_from) override;
  sim::Channel* FaultableLink() override { return link_.get(); }

  /**
   * Router-level tracing only ("route" track instants for dispatch,
   * re-home, health transitions, mode changes) plus the lifecycle
   * spans the base emits at completion. The tracer is deliberately not
   * forwarded to replicas: their engine/gpu/kv tracks share names and
   * ids, and interleaved same-name spans from N instances would break
   * span pairing in trace queries.
   */
  void AttachTracer(obs::Tracer tracer) override {
    serve::Engine::AttachTracer(tracer);
  }

  FleetStats Stats() const;
  overload::Mode fleet_mode() const { return mode_; }
  std::size_t num_replicas() const { return replicas_.size(); }
  const core::MuxWiseEngine& replica(std::size_t r) const {
    return *replicas_[r].engine;
  }
  /** Replica `r`, brought to Now() (run-end collection). */
  core::MuxWiseEngine& replica(std::size_t r) { return Synced(r); }
  ReplicaHealth replica_health(std::size_t r) const {
    return health_.state(r);
  }
  SuspectReason replica_suspect_reason(std::size_t r) const {
    return health_.reason(r);
  }
  bool replica_parked(std::size_t r) const { return replicas_[r].parked; }
  bool replica_draining(std::size_t r) const { return replicas_[r].draining; }

 private:
  struct Replica {
    std::unique_ptr<core::MuxWiseEngine> engine;
    std::int64_t pending_demand = 0;  // Routed, not yet terminal.
    std::size_t routed = 0;
    bool draining = false;  // Autoscale: finishing, takes no new work.
    bool parked = false;    // Autoscale: drained and out of rotation.
  };

  /** An orphan between extraction and re-enqueue (backoff/wire). */
  struct RehomeEntry {
    std::unique_ptr<serve::Request> request;
    std::size_t target = 0;
    bool migrating = false;
  };

  /**
   * Replica `r`, synced (MuxWiseEngine::Sync): every read or change of a
   * replica from outside goes through here, so none sees or moves a
   * replica whose decode stretch runs ahead of the event loop.
   */
  core::MuxWiseEngine& Synced(std::size_t r);

  bool Routable(std::size_t r) const;
  std::optional<std::size_t> ChooseReplica(const serve::Request& request,
                                           std::uint64_t key);
  void Dispatch(std::unique_ptr<serve::Request> request, std::size_t r);
  void OnReplicaComplete(std::size_t r,
                         std::unique_ptr<serve::Request> request);

  bool HeartbeatNeeded() const;
  void EnsureHeartbeat();
  void OnHeartbeat();
  void DeclareDown(std::size_t r, sim::Time now);
  void Rehome(std::unique_ptr<serve::Request> request);
  void FinishRehome(std::int64_t id, bool migrated);
  void UpdateFleetMode();
  void MaybeAutoscale();

  serve::Deployment deployment_;
  core::ContentionEstimator estimator_;
  FleetOptions options_;

  std::vector<Replica> replicas_;
  HealthTracker health_;
  AffinityTable affinity_;

  /** Session -> replica its latest turn was dispatched to (the
   * instance accumulating this session's KV, in flight or not). */
  std::map<std::int64_t, std::size_t> session_home_;

  /** Fleet host-tier link re-migrated KV rides (also the injector's
   * FaultableLink, so transfer-fault windows hit re-migrations). */
  std::unique_ptr<sim::Channel> link_;

  std::vector<RehomeEntry> rehoming_;
  bool heartbeat_scheduled_ = false;

  /**
   * Latched by the first grey injection (zombie/partition). While set,
   * heartbeats also tick whenever work is in flight, so the zombie
   * watermark is sampled; non-grey runs never set it, keeping their
   * heartbeat dormancy — and event streams — bit-identical.
   */
  bool grey_active_ = false;
  overload::Mode mode_ = overload::Mode::kNormal;
  int low_util_beats_ = 0;

  double kv_bytes_per_token_ = 0.0;
  std::int64_t pool_capacity_tokens_ = 0;

  FleetStats stats_;
  serve::QuantileSketch failover_latency_;
};

}  // namespace muxwise::route

#endif  // MUXWISE_ROUTE_FLEET_ROUTER_H_
