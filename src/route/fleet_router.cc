#include "route/fleet_router.h"

#include <algorithm>
#include <string>
#include <utility>

#include "kv/token_seq.h"
#include "llm/cost_model.h"
#include "sim/logging.h"
#include "workload/slo.h"

namespace muxwise::route {

FleetRouter::FleetRouter(sim::Simulator* simulator,
                         const serve::Deployment& deployment,
                         const core::ContentionEstimator& estimator,
                         core::MuxWiseEngine::Options engine_options,
                         FleetOptions options)
    : fault::FaultAwareEngine(simulator, deployment.slo,
                             engine_options.recovery),
      deployment_(deployment),
      estimator_(estimator),
      options_(options),
      health_(options.health, options.replicas) {
  MUX_CHECK(options_.replicas >= 1);
  MUX_CHECK(options_.min_replicas >= 1);
  MUX_CHECK(options_.affinity_prefix_tokens > 0);
  replicas_.reserve(options_.replicas);
  for (std::size_t r = 0; r < options_.replicas; ++r) {
    Replica replica;
    replica.engine = std::make_unique<core::MuxWiseEngine>(
        simulator, deployment, estimator_, engine_options);
    replica.engine->set_on_complete(
        [this, r](std::unique_ptr<serve::Request> request) {
          OnReplicaComplete(r, std::move(request));
        });
    replicas_.push_back(std::move(replica));
  }
  pool_capacity_tokens_ = replicas_[0].engine->pool().capacity_tokens();

  const llm::CostModel cost(deployment_.model, deployment_.num_gpus,
                            deployment_.gpu);
  kv_bytes_per_token_ =
      cost.KvBytesPerTokenPerGpu() * static_cast<double>(deployment_.num_gpus);

  link_ = std::make_unique<sim::Channel>(simulator, "fleet-host-link",
                                         options_.link_bandwidth_bytes_per_s,
                                         options_.link_latency);

  // The re-home migrate-vs-recompute decision reuses the overload
  // controller's spill cost model verbatim, tuned to the fleet link:
  // a durable prefix is worth migrating exactly when its pages cross
  // the host tier faster than the survivor could recompute them.
  overload::Policy costing_policy;
  costing_policy.spill = true;
  costing_policy.spill_bandwidth_bytes_per_s =
      options_.link_bandwidth_bytes_per_s;
  costing_policy.spill_latency = options_.link_latency;
  costing_ = std::make_unique<overload::Controller>(costing_policy);
}

FleetRouter::~FleetRouter() = default;

bool FleetRouter::Routable(std::size_t r) const {
  const Replica& replica = replicas_[r];
  if (replica.parked || replica.draining) return false;
  // Asymmetric partition, router->replica direction cut: the replica
  // looks alive (its heartbeats arrive) but new dispatches cannot
  // reach it. Unroutable without being failed over.
  if (health_.unreachable(r)) return false;
  // The FSM state is the router's knowledge: a crashed replica stays
  // routable until heartbeat misses declare it Down, so the detection
  // window's misrouted arrivals queue there and ride the failover.
  return health_.state(r) != ReplicaHealth::kDown;
}

std::optional<std::size_t> FleetRouter::ChooseReplica(
    const serve::Request& request, std::uint64_t key) {
  if (const auto hit = affinity_.Lookup(key);
      hit.has_value() && Routable(*hit)) {
    ++stats_.affinity_hits;
    return hit;
  }
  if (const auto it = session_home_.find(request.spec->session);
      it != session_home_.end() && Routable(it->second)) {
    ++stats_.session_hits;
    return it->second;
  }
  // Least-loaded fallback: prefer healthier states, then least pending
  // KV demand, then lowest index — a total order, so deterministic.
  std::optional<std::size_t> best;
  int best_preference = 0;
  for (std::size_t r = 0; r < replicas_.size(); ++r) {
    if (!Routable(r)) continue;
    int preference = 0;
    switch (health_.state(r)) {
      case ReplicaHealth::kHealthy:
        preference = 0;
        break;
      case ReplicaHealth::kRecovering:
        preference = 1;
        break;
      default:  // kSuspect: answering slowly, last resort.
        preference = 2;
        break;
    }
    if (!best.has_value() || preference < best_preference ||
        (preference == best_preference &&
         replicas_[r].pending_demand < replicas_[*best].pending_demand)) {
      best = r;
      best_preference = preference;
    }
  }
  return best;
}

void FleetRouter::Dispatch(std::unique_ptr<serve::Request> request,
                           std::size_t r) {
  const std::uint64_t key = PrefixAffinityKey(
      request->spec->prompt, options_.affinity_prefix_tokens);
  affinity_.Record(key, r);
  // Dispatch-time, not completion-time: a multi-turn client's next
  // turn can arrive while the previous one is still in flight, and it
  // must follow the replica that is building this session's KV.
  session_home_[request->spec->session] = r;
  Replica& replica = replicas_[r];
  replica.pending_demand += DemandTokens(*request);
  ++replica.routed;
  tracer_.Instant("route", "dispatch", request->spec->id,
                  static_cast<double>(r));
  // May complete synchronously (replica-level shed): OnReplicaComplete
  // re-enters through the completion callback, after the accounting
  // above, so the books stay balanced.
  replica.engine->Enqueue(std::move(request));
  // A grey fleet watches progress while work is in flight: this
  // dispatch may be the first work a zombie can stall, so the watermark
  // sampler must be ticking.
  if (grey_active_) EnsureHeartbeat();
}

void FleetRouter::Enqueue(std::unique_ptr<serve::Request> request) {
  EnsureHeartbeat();
  const workload::SloClass slo_class = request->spec->slo_class;
  // Fleet degradation: a shrunken fleet sheds batch first, standard
  // next; interactive only when no replica is routable at all.
  const bool mode_shed =
      (slo_class == workload::SloClass::kBatch &&
       mode_ >= overload::Mode::kPressure) ||
      (slo_class == workload::SloClass::kStandard &&
       mode_ >= overload::Mode::kBrownout);
  const std::uint64_t key = PrefixAffinityKey(
      request->spec->prompt, options_.affinity_prefix_tokens);
  const std::optional<std::size_t> target =
      mode_shed ? std::nullopt : ChooseReplica(*request, key);
  if (!target.has_value()) {
    ++stats_.fleet_shed;
    tracer_.Instant("route", "fleet-shed", request->spec->id,
                    static_cast<double>(static_cast<int>(mode_)));
    MarkTerminal(*request, serve::Outcome::kShed);
    NotifyComplete(std::move(request));
    return;
  }
  ++in_flight_;
  Dispatch(std::move(request), *target);
}

void FleetRouter::OnReplicaComplete(std::size_t r,
                                    std::unique_ptr<serve::Request> request) {
  Replica& replica = replicas_[r];
  const std::int64_t demand = DemandTokens(*request);
  MUX_CHECK(replica.pending_demand >= demand);
  replica.pending_demand -= demand;
  MUX_CHECK(in_flight_ > 0);
  --in_flight_;
  // May synchronously re-enter Enqueue with the session's next turn.
  NotifyComplete(std::move(request));
}

void FleetRouter::Terminal(std::unique_ptr<serve::Request> request,
                           serve::Outcome outcome) {
  MarkTerminal(*request, outcome);
  MUX_CHECK(in_flight_ > 0);
  --in_flight_;
  NotifyComplete(std::move(request));
}

bool FleetRouter::HeartbeatNeeded() const {
  // The heartbeat is dormant at every fleet fixed point, so quiesced
  // scenarios drain their event queues and terminate: it ticks only
  // while some replica's FSM can still move, orphans are in transit,
  // a drain is pending, or (with autoscale) work is in flight.
  if (!rehoming_.empty()) return true;
  for (std::size_t r = 0; r < replicas_.size(); ++r) {
    if (replicas_[r].parked) continue;
    if (replicas_[r].draining) return true;
    if (!health_.Stable(r)) return true;
    // Grey runs: a zombie only betrays itself through a frozen
    // watermark, so keep sampling any replica with work in flight.
    if (grey_active_ && options_.health.zombie_detection &&
        replicas_[r].engine->InFlight() > 0) {
      return true;
    }
  }
  return options_.autoscale && in_flight_ > 0;
}

void FleetRouter::EnsureHeartbeat() {
  if (heartbeat_scheduled_ || !HeartbeatNeeded()) return;
  heartbeat_scheduled_ = true;
  fault_sim_->ScheduleAfter(options_.health.heartbeat_interval,
                            [this] { OnHeartbeat(); });
}

void FleetRouter::OnHeartbeat() {
  heartbeat_scheduled_ = false;
  const sim::Time now = fault_sim_->Now();
  for (std::size_t r = 0; r < replicas_.size(); ++r) {
    if (replicas_[r].parked) continue;
    // Zombie detection first: sample the replica's work-progress
    // watermark, then let the deadline FSM take its ordinary beat.
    if (grey_active_ && options_.health.zombie_detection) {
      const HealthTracker::Transition verdict = health_.ObserveProgress(
          r, replicas_[r].engine->ProgressWatermark(),
          replicas_[r].engine->InFlight(), now);
      if (verdict.changed) {
        ++stats_.health_transitions;
        tracer_.Instant("route", HealthName(verdict.to),
                        static_cast<std::int64_t>(r),
                        static_cast<double>(verdict.from));
        if (verdict.to == ReplicaHealth::kDown) {
          ++stats_.zombie_downs;
          DeclareDown(r, now);
        }
      }
    }
    const HealthTracker::Transition transition = health_.Beat(r, now);
    if (!transition.changed) continue;
    ++stats_.health_transitions;
    tracer_.Instant("route", HealthName(transition.to),
                    static_cast<std::int64_t>(r),
                    static_cast<double>(transition.from));
    if (transition.to == ReplicaHealth::kDown) DeclareDown(r, now);
  }
  if (options_.autoscale) MaybeAutoscale();
  UpdateFleetMode();
  EnsureHeartbeat();
}

void FleetRouter::DeclareDown(std::size_t r, sim::Time now) {
  ++stats_.failovers;
  // Every detection path timestamps its outage (crash signal, partition
  // silence onset, zombie stall onset); the guard is belt-and-braces.
  if (health_.crash_signal_at(r) != sim::kTimeNever) {
    failover_latency_.Add(
        sim::ToMilliseconds(now - health_.crash_signal_at(r)));
  }
  // The dead replica's cache is gone: evict its affinity entries and
  // session homes so nothing re-pins to cold state after it rejoins.
  affinity_.EvictReplica(r);
  std::erase_if(session_home_,
                [r](const auto& entry) { return entry.second == r; });
  Replica& replica = replicas_[r];
  std::vector<std::unique_ptr<serve::Request>> orphans =
      replica.engine->ExtractForRehoming();
  for (const auto& orphan : orphans) {
    const std::int64_t demand = DemandTokens(*orphan);
    MUX_CHECK(replica.pending_demand >= demand);
    replica.pending_demand -= demand;
  }
  tracer_.Instant("route", "failover", static_cast<std::int64_t>(r),
                  static_cast<double>(orphans.size()));
  if (!options_.failover) {
    // Negative twin: stranded sessions are shed, never silently lost.
    for (auto& orphan : orphans) {
      ++stats_.rehome_shed;
      Terminal(std::move(orphan), serve::Outcome::kShed);
    }
    return;
  }
  for (auto& orphan : orphans) Rehome(std::move(orphan));
}

void FleetRouter::Rehome(std::unique_ptr<serve::Request> request) {
  ++stats_.rehomed;
  if (DeadlinePassed(*request)) {
    Terminal(std::move(request), serve::Outcome::kTimedOut);
    return;
  }
  if (!PrepareRetry(*request)) {
    ++stats_.rehome_failed;
    Terminal(std::move(request), serve::Outcome::kFailed);
    return;
  }
  const std::uint64_t key = PrefixAffinityKey(
      request->spec->prompt, options_.affinity_prefix_tokens);
  const std::optional<std::size_t> target = ChooseReplica(*request, key);
  if (!target.has_value()) {
    ++stats_.rehome_shed;
    Terminal(std::move(request), serve::Outcome::kShed);
    return;
  }

  // Per-request KV strategy: the durable prior-turn prefix lives in
  // the fleet host tier, so the survivor can either pull it over the
  // link or recompute it; the spill cost model arbitrates.
  const std::int64_t durable = request->spec->reused_tokens;
  double bytes = 0.0;
  bool migrate = false;
  if (options_.migration && durable > 0) {
    bytes = kv_bytes_per_token_ * static_cast<double>(durable);
    const double recompute_seconds = sim::ToSeconds(estimator_.PredictPrefill(
        {llm::SeqWork{durable, 0}}, deployment_.gpu.sm_count));
    // A silently degraded link stretches the effective wire time; feed
    // the costing the equivalent byte count so migration loses exactly
    // when the degraded wire is slower than recomputing (scale 1.0 is
    // exact, so fault-free decisions are bit-identical).
    const double wire_bytes = bytes / link_->bandwidth_scale();
    migrate = costing_->SpillCheaper(wire_bytes, recompute_seconds);
  }

  const sim::Duration delay =
      sim::BackoffDelay(options_.rehome_backoff, request->crash_retries);
  const std::int64_t id = request->spec->id;
  tracer_.Instant("route", migrate ? "rehome-migrate" : "rehome-recompute",
                  id, static_cast<double>(*target));
  rehoming_.push_back(RehomeEntry{std::move(request), *target, migrate});
  if (migrate) {
    ++stats_.rehome_migrations;
    fault_sim_->ScheduleAfter(delay, [this, id, bytes] {
      link_->Send<std::int64_t>(
          bytes, id,
          [this](std::int64_t request_id) { FinishRehome(request_id, true); },
          // Wire failure (armed transfer-fault window): fall back to
          // recomputing on the target instead of abandoning the orphan.
          [this](std::int64_t request_id) {
            FinishRehome(request_id, false);
          });
    });
  } else {
    ++stats_.rehome_recomputes;
    fault_sim_->ScheduleAfter(delay,
                              [this, id] { FinishRehome(id, false); });
  }
}

void FleetRouter::FinishRehome(std::int64_t id, bool migrated) {
  const auto it = std::find_if(
      rehoming_.begin(), rehoming_.end(), [id](const RehomeEntry& entry) {
        return entry.request->spec->id == id;
      });
  MUX_CHECK(it != rehoming_.end());
  RehomeEntry entry = std::move(*it);
  rehoming_.erase(it);
  if (!Routable(entry.target)) {
    // The target died while the orphan was in transit: pick again,
    // burning another rung of the retry budget.
    Rehome(std::move(entry.request));
    return;
  }
  if (migrated) {
    replicas_[entry.target].engine->WarmCachePrefix(kv::SeqPrefix(
        entry.request->spec->prompt, entry.request->spec->reused_tokens));
  }
  Dispatch(std::move(entry.request), entry.target);
}

void FleetRouter::UpdateFleetMode() {
  std::size_t basis = 0;
  std::size_t live = 0;
  for (std::size_t r = 0; r < replicas_.size(); ++r) {
    // Parked/draining replicas left the rotation voluntarily; they are
    // not lost capacity, so the degradation ladder ignores them.
    if (replicas_[r].parked || replicas_[r].draining) continue;
    ++basis;
    if (health_.state(r) != ReplicaHealth::kDown) ++live;
  }
  overload::Mode next = overload::Mode::kNormal;
  if (basis > 0) {
    const double fraction =
        static_cast<double>(live) / static_cast<double>(basis);
    if (fraction < options_.shed_below) {
      next = overload::Mode::kShed;
    } else if (fraction < options_.brownout_below) {
      next = overload::Mode::kBrownout;
    } else if (fraction < options_.pressure_below) {
      next = overload::Mode::kPressure;
    }
  } else {
    next = overload::Mode::kShed;
  }
  if (next != mode_) {
    ++stats_.mode_transitions;
    tracer_.Instant("route", "fleet-mode", static_cast<std::int64_t>(next),
                    static_cast<double>(static_cast<int>(mode_)));
    mode_ = next;
  }
}

void FleetRouter::MaybeAutoscale() {
  // Park any drained replica first (its last in-flight work finished).
  for (std::size_t r = 0; r < replicas_.size(); ++r) {
    Replica& replica = replicas_[r];
    if (replica.draining && replica.engine->InFlight() == 0) {
      replica.draining = false;
      replica.parked = true;
      ++stats_.scale_downs;
      tracer_.Instant("route", "scale-down", static_cast<std::int64_t>(r));
    }
  }
  std::size_t serving = 0;
  std::int64_t demand = 0;
  bool draining = false;
  for (std::size_t r = 0; r < replicas_.size(); ++r) {
    if (replicas_[r].parked) continue;
    if (replicas_[r].draining) {
      draining = true;
      continue;
    }
    ++serving;
    demand += replicas_[r].pending_demand;
  }
  if (serving == 0) return;
  const double utilization =
      static_cast<double>(demand) /
      (static_cast<double>(serving) *
       static_cast<double>(pool_capacity_tokens_));
  if (utilization > options_.scale_up_util) {
    low_util_beats_ = 0;
    // Cancel an in-progress drain before spinning a parked replica up.
    for (std::size_t r = 0; r < replicas_.size(); ++r) {
      if (replicas_[r].draining) {
        replicas_[r].draining = false;
        ++stats_.scale_ups;
        tracer_.Instant("route", "scale-up", static_cast<std::int64_t>(r));
        return;
      }
    }
    for (std::size_t r = 0; r < replicas_.size(); ++r) {
      if (replicas_[r].parked) {
        replicas_[r].parked = false;
        ++stats_.scale_ups;
        tracer_.Instant("route", "scale-up", static_cast<std::int64_t>(r));
        return;
      }
    }
    return;
  }
  if (utilization < options_.scale_down_util) {
    if (++low_util_beats_ < options_.scale_dwell_beats) return;
    low_util_beats_ = 0;
    if (draining || serving <= options_.min_replicas) return;
    // Drain the highest-index healthy replica (deterministic choice).
    for (std::size_t i = replicas_.size(); i-- > 0;) {
      if (Routable(i) && health_.state(i) == ReplicaHealth::kHealthy) {
        replicas_[i].draining = true;
        tracer_.Instant("route", "drain", static_cast<std::int64_t>(i));
        return;
      }
    }
    return;
  }
  low_util_beats_ = 0;
}

void FleetRouter::InjectCrash(std::size_t domain) {
  if (domain >= replicas_.size()) return;
  replicas_[domain].engine->InjectCrash(0);
  health_.OnCrashSignal(domain, fault_sim_->Now());
  EnsureHeartbeat();
}

void FleetRouter::InjectRecovery(std::size_t domain) {
  if (domain >= replicas_.size()) return;
  replicas_[domain].engine->InjectRecovery(0);
  health_.OnRecoverySignal(domain);
  EnsureHeartbeat();
}

void FleetRouter::InjectStraggler(std::size_t domain, double slowdown) {
  if (domain >= replicas_.size()) return;
  replicas_[domain].engine->InjectStraggler(0, slowdown);
  if (health_.OnStragglerSignal(domain, slowdown)) {
    ++stats_.health_transitions;
    tracer_.Instant("route", HealthName(health_.state(domain)),
                    static_cast<std::int64_t>(domain), slowdown);
  }
  EnsureHeartbeat();
}

void FleetRouter::InjectZombie(std::size_t domain, bool frozen) {
  if (domain >= replicas_.size()) return;
  // Freeze the replica's device: heartbeats keep answering (the engine
  // is alive), kernel completions stall. Only the watermark tells.
  replicas_[domain].engine->InjectZombie(0, frozen);
  grey_active_ = true;
  EnsureHeartbeat();
}

void FleetRouter::InjectDegrade(std::size_t domain, double flops_factor,
                                double bandwidth_factor) {
  if (domain >= replicas_.size()) return;
  // Silent capacity loss: no health signal fires — the replica is
  // merely slower, and only observable symptoms (straggling latency,
  // missed deadlines) may eventually surface it.
  replicas_[domain].engine->InjectDegrade(0, flops_factor, bandwidth_factor);
}

void FleetRouter::InjectPartition(std::size_t domain, bool drop_to,
                                  bool drop_from) {
  if (domain >= replicas_.size()) return;
  grey_active_ = true;
  const HealthTracker::Transition t = health_.OnPartitionSignal(
      domain, drop_to, drop_from, fault_sim_->Now());
  if (t.changed) {
    ++stats_.health_transitions;
    tracer_.Instant("route", HealthName(t.to),
                    static_cast<std::int64_t>(domain),
                    static_cast<double>(t.from));
  }
  EnsureHeartbeat();
}

void FleetRouter::RegisterAudits(check::InvariantRegistry& registry) const {
  registry.Register(
      "FleetRouter", "quiescent-router", [this](check::AuditContext& audit) {
        audit.Check(in_flight_ == 0,
                    "router in-flight should drain to zero, have " +
                        std::to_string(in_flight_));
        audit.Check(rehoming_.empty(),
                    "no orphan should still be re-homing at quiescence");
        audit.Check(!heartbeat_scheduled_,
                    "heartbeat should go dormant at quiescence");
        for (std::size_t r = 0; r < replicas_.size(); ++r) {
          audit.Check(replicas_[r].pending_demand == 0,
                      "replica " + std::to_string(r) +
                          " pending demand should drain to zero, have " +
                          std::to_string(replicas_[r].pending_demand));
        }
      });
  for (const Replica& replica : replicas_) {
    replica.engine->RegisterAudits(registry);
  }
}

FleetStats FleetRouter::Stats() const {
  FleetStats stats = stats_;
  stats.replicas = replicas_.size();
  stats.routed_per_replica.reserve(replicas_.size());
  for (const Replica& replica : replicas_) {
    stats.routed_per_replica.push_back(replica.routed);
  }
  stats.failover_latency = failover_latency_.Summarize();
  return stats;
}

}  // namespace muxwise::route
