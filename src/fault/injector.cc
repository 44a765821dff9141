#include "fault/injector.h"

#include <algorithm>
#include <string>

#include "gpu/cluster.h"
#include "sim/channel.h"
#include "sim/logging.h"
#include "sim/rng.h"

namespace muxwise::fault {

FaultInjector::FaultInjector(sim::Simulator* simulator, FaultPlan plan)
    : sim_(simulator), plan_(std::move(plan)) {
  MUX_CHECK(sim_ != nullptr);
}

void FaultInjector::Arm(serve::Engine& engine) {
  MUX_CHECK(!armed_);
  armed_ = true;
  plan_.Validate();
  const std::size_t domains = engine.NumFaultDomains();
  MUX_CHECK(domains >= 1);

  for (const CrashEvent& crash : plan_.crashes) {
    const std::size_t domain = crash.instance % domains;
    sim_->ScheduleAt(crash.at, [this, &engine, domain] {
      ++events_fired_;
      ++crashes_injected_;
      tracer_.Instant("fault", "crash", static_cast<std::int64_t>(domain));
      engine.InjectCrash(domain);
    });
    ++events_scheduled_;
    if (crash.recover_at != sim::kTimeNever) {
      sim_->ScheduleAt(crash.recover_at, [this, &engine, domain] {
        ++events_fired_;
        ++recoveries_injected_;
        tracer_.Instant("fault", "recovery",
                        static_cast<std::int64_t>(domain));
        engine.InjectRecovery(domain);
      });
      ++events_scheduled_;
    }
  }

  for (const StragglerWindow& window : plan_.stragglers) {
    const std::size_t domain = window.instance % domains;
    const double slowdown = window.slowdown;
    sim_->ScheduleAt(window.from, [this, &engine, domain, slowdown] {
      ++events_fired_;
      ++straggler_edges_injected_;
      tracer_.Instant("fault", "straggler-begin",
                      static_cast<std::int64_t>(domain), slowdown);
      engine.InjectStraggler(domain, slowdown);
    });
    sim_->ScheduleAt(window.to, [this, &engine, domain] {
      ++events_fired_;
      ++straggler_edges_injected_;
      tracer_.Instant("fault", "straggler-end",
                      static_cast<std::int64_t>(domain));
      engine.InjectStraggler(domain, 1.0);
    });
    events_scheduled_ += 2;
  }

  for (const ZombieWindow& window : plan_.zombies) {
    const std::size_t domain = window.instance % domains;
    sim_->ScheduleAt(window.from, [this, &engine, domain] {
      ++events_fired_;
      ++zombie_edges_injected_;
      tracer_.Instant("fault", "zombie-begin",
                      static_cast<std::int64_t>(domain));
      engine.InjectZombie(domain, true);
    });
    sim_->ScheduleAt(window.to, [this, &engine, domain] {
      ++events_fired_;
      ++zombie_edges_injected_;
      tracer_.Instant("fault", "zombie-end",
                      static_cast<std::int64_t>(domain));
      engine.InjectZombie(domain, false);
    });
    events_scheduled_ += 2;
  }

  for (const DegradeWindow& window : plan_.degrades) {
    if (window.link) {
      sim::Channel* link = engine.FaultableLink();
      if (link == nullptr) {
        ++windows_skipped_;
        continue;
      }
      const double bf = window.bandwidth_factor;
      sim_->ScheduleAt(window.from, [this, link, bf] {
        ++events_fired_;
        ++degrade_edges_injected_;
        tracer_.Instant("fault", "degrade-begin", 0, bf);
        link->SetBandwidthScale(bf);
      });
      sim_->ScheduleAt(window.to, [this, link] {
        ++events_fired_;
        ++degrade_edges_injected_;
        tracer_.Instant("fault", "degrade-end", 0);
        link->SetBandwidthScale(1.0);
      });
      events_scheduled_ += 2;
      continue;
    }
    const std::size_t domain = window.instance % domains;
    const double ff = window.flops_factor;
    const double bf = window.bandwidth_factor;
    sim_->ScheduleAt(window.from, [this, &engine, domain, ff, bf] {
      ++events_fired_;
      ++degrade_edges_injected_;
      tracer_.Instant("fault", "degrade-begin",
                      static_cast<std::int64_t>(domain), ff);
      engine.InjectDegrade(domain, ff, bf);
    });
    sim_->ScheduleAt(window.to, [this, &engine, domain] {
      ++events_fired_;
      ++degrade_edges_injected_;
      tracer_.Instant("fault", "degrade-end",
                      static_cast<std::int64_t>(domain));
      engine.InjectDegrade(domain, 1.0, 1.0);
    });
    events_scheduled_ += 2;
  }

  for (const PartitionWindow& window : plan_.partitions) {
    const std::size_t domain = window.instance % domains;
    const bool drop_to = window.drop_to_replica;
    const bool drop_from = window.drop_from_replica;
    sim_->ScheduleAt(window.from, [this, &engine, domain, drop_to,
                                   drop_from] {
      ++events_fired_;
      ++partition_edges_injected_;
      tracer_.Instant("fault", "partition-begin",
                      static_cast<std::int64_t>(domain));
      engine.InjectPartition(domain, drop_to, drop_from);
    });
    sim_->ScheduleAt(window.to, [this, &engine, domain] {
      ++events_fired_;
      ++partition_edges_injected_;
      tracer_.Instant("fault", "partition-end",
                      static_cast<std::int64_t>(domain));
      engine.InjectPartition(domain, false, false);
    });
    events_scheduled_ += 2;
  }

  for (const FlapWindow& window : plan_.flaps) {
    sim::Channel* link = nullptr;
    if (window.link) {
      link = engine.FaultableLink();
      if (link == nullptr) {
        ++windows_skipped_;
        continue;
      }
    }
    const std::size_t domain = window.instance % domains;
    // Each period opens with a down phase of length period*(1-duty_up)
    // (>= 1ns so every scheduled down edge has a matching up edge),
    // and the window closes forced-up at `to`.
    sim::Duration down_time = static_cast<sim::Duration>(
        static_cast<double>(window.period) * (1.0 - window.duty_up));
    if (down_time < 1) down_time = 1;
    for (sim::Time t = window.from; t < window.to; t += window.period) {
      const sim::Time up_at = std::min<sim::Time>(t + down_time, window.to);
      if (window.link) {
        sim_->ScheduleAt(t, [this, link] {
          ++events_fired_;
          ++flap_edges_injected_;
          tracer_.Instant("fault", "flap-down", 0);
          link->SetLinkUp(false);
        });
        sim_->ScheduleAt(up_at, [this, link] {
          ++events_fired_;
          ++flap_edges_injected_;
          tracer_.Instant("fault", "flap-up", 0);
          link->SetLinkUp(true);
        });
      } else {
        // A heartbeat flap is the replica->router direction winking in
        // and out: modelled as a partition silence toggle train.
        sim_->ScheduleAt(t, [this, &engine, domain] {
          ++events_fired_;
          ++flap_edges_injected_;
          tracer_.Instant("fault", "flap-down",
                          static_cast<std::int64_t>(domain));
          engine.InjectPartition(domain, false, true);
        });
        sim_->ScheduleAt(up_at, [this, &engine, domain] {
          ++events_fired_;
          ++flap_edges_injected_;
          tracer_.Instant("fault", "flap-up",
                          static_cast<std::int64_t>(domain));
          engine.InjectPartition(domain, false, false);
        });
      }
      events_scheduled_ += 2;
    }
  }

  if (!plan_.transfer_faults.empty()) {
    sim::Channel* link = engine.FaultableLink();
    if (link == nullptr) {
      windows_skipped_ += plan_.transfer_faults.size();
    } else {
      sim::Channel::FaultModel model;
      model.failure_probability = 0.0;  // Armed but inert until a window.
      link->EnableFaults(model,
                         sim::Rng(plan_.seed).Fork("interconnect-loss"));
      for (const TransferFaultWindow& window : plan_.transfer_faults) {
        const double p = window.failure_probability;
        sim_->ScheduleAt(window.from, [this, link, p] {
          ++events_fired_;
          ++transfer_edges_injected_;
          tracer_.Instant("fault", "transfer-window-begin", 0, p);
          link->SetFailureProbability(p);
        });
        sim_->ScheduleAt(window.to, [this, link] {
          ++events_fired_;
          ++transfer_edges_injected_;
          tracer_.Instant("fault", "transfer-window-end", 0);
          link->SetFailureProbability(0.0);
        });
        events_scheduled_ += 2;
      }
    }
  }
}

void FaultInjector::RegisterAudits(check::InvariantRegistry& registry) const {
  registry.Register(
      "FaultInjector", "plan-delivered", [this](check::AuditContext& ctx) {
        ctx.Check(events_fired_ == events_scheduled_,
                  "only " + std::to_string(events_fired_) + " of " +
                      std::to_string(events_scheduled_) +
                      " planned fault events fired before quiescence");
      });
}

}  // namespace muxwise::fault
