#ifndef MUXWISE_FAULT_FAULT_AWARE_H_
#define MUXWISE_FAULT_FAULT_AWARE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "fault/recovery.h"
#include "serve/engine.h"
#include "serve/request.h"
#include "sim/logging.h"
#include "sim/simulator.h"
#include "workload/slo.h"

namespace muxwise::fault {

/**
 * Mixin base for engines that survive injected faults. It owns the
 * request ledger every engine keeps the same way — the in-flight count,
 * the queued KV demand, admission with its shed check, deadline
 * stamping and reaping, crash-retry triage and terminal stamping —
 * plus the fault bookkeeping (which domains are down, the crash epoch
 * that invalidates in-flight callbacks). Each engine keeps only what
 * differs: its queues (TakeUnstarted), its pool arithmetic, and when to
 * pump. The work reconstruction after a crash (what KV was lost) stays
 * with the engine too, which is the only layer that knows.
 *
 * The epoch pattern: HostThread submissions and Channel transfers
 * cannot be cancelled, so a crash cannot revoke callbacks already in
 * flight. Instead every engine-layer callback captures `epoch()` at
 * submission and no-ops when the engine's epoch has moved on — the
 * simulated analogue of dropping completions from a device generation
 * that no longer exists. (tools/muxlint's dangling-callback rule flags
 * completion lambdas in fault-capable engines that skip this guard.)
 */
class FaultAwareEngine : public serve::Engine {
 public:
  std::size_t InFlight() const final { return in_flight_; }

  /** Registers the ledger-balanced-at-quiescence audit. */
  void RegisterAudits(check::InvariantRegistry& registry) const override {
    registry.Register(name(), "ledger", [this](check::AuditContext& ctx) {
      ctx.Check(in_flight_ == 0, std::to_string(in_flight_) +
                                     " requests still in flight");
      ctx.Check(queued_demand_ == 0,
                "queued-demand accounting leaked " +
                    std::to_string(queued_demand_) + " tokens");
    });
  }

  /** Requests rejected at admission under overload/outage. */
  std::size_t shed_requests() const { return shed_requests_; }

  /** Requests abandoned past their SLO-derived deadline. */
  std::size_t timed_out_requests() const { return timed_out_requests_; }

  /** Crash-lost requests successfully re-enqueued. */
  std::size_t crash_requeues() const { return crash_requeues_; }

 protected:
  /** Deadline events belong to `domain`, the engine's event domain. */
  FaultAwareEngine(sim::Simulator* simulator, workload::SloTargets slo,
                   RecoveryPolicy policy,
                   sim::Domain domain = sim::kGlobalDomain)
      : fault_sim_(simulator), slo_(slo), recovery_(policy), domain_(domain) {
    MUX_CHECK(fault_sim_ != nullptr);
  }

  bool FaultsEnabled() const { return recovery_.enabled; }

  bool DomainDown(std::size_t domain) const {
    return domain < down_.size() && down_[domain];
  }

  void MarkDown(std::size_t domain, bool down) {
    if (domain >= down_.size()) down_.resize(domain + 1, false);
    down_[domain] = down;
  }

  /**
   * Callback-invalidation epoch. Bumped by every crash; lambdas compare
   * their captured value against this before touching engine state.
   */
  std::uint64_t epoch() const { return epoch_; }
  void BumpEpoch() { ++epoch_; }

  bool DeadlinePassed(const serve::Request& request) const {
    return recovery_.enabled && fault_sim_->Now() >= request.deadline;
  }

  /** KV working-set tokens a request will eventually need (shed proxy). */
  static std::int64_t DemandTokens(const serve::Request& request) {
    return request.spec->input_tokens + request.spec->output_tokens;
  }

  /**
   * The ledger's shed check: under recovery, shed `request` when the
   * queued KV demand including it exceeds the policy factor of the
   * engine's `capacity`.
   */
  bool ShedNow(const serve::Request& request, std::int64_t capacity) const {
    return recovery_.enabled &&
           static_cast<double>(queued_demand_ + DemandTokens(request)) >
               recovery_.shed_demand_factor * static_cast<double>(capacity);
  }

  /** Where an admitted request waits, as far as the ledger cares. */
  enum class Admission {
    kQueued,     // A demand-counted queue; reaped at its deadline.
    kGated,      // An admission gate outside the demand count; reaped.
    kForwarded,  // Handed on to an engine that keeps its own ledger.
  };

  /**
   * Admission. A `shed` request is stamped kShed and handed straight
   * back — it never counts in flight or touches a queue, so the
   * (possibly reentrant) notification sees consistent state — and the
   * call returns false. Otherwise the request counts in flight and,
   * under recovery and unless forwarded, gets its SLO-derived deadline
   * and a reap event (TakeUnstarted); kQueued also counts its demand.
   */
  bool Admit(std::unique_ptr<serve::Request>& request, bool shed,
             Admission admission = Admission::kQueued) {
    if (shed) {
      Stamp(*request, serve::Outcome::kShed);
      NotifyComplete(std::move(request));
      return false;
    }
    if (recovery_.enabled && admission != Admission::kForwarded) {
      request->deadline =
          RequestDeadline(request->arrival, *request->spec, slo_, recovery_);
      fault_sim_->ScheduleAt(request->deadline, domain_,
                             [this, id = request->spec->id] { Reap(id); });
      if (admission == Admission::kQueued) QueueDemand(*request);
    }
    ++in_flight_;
    return true;
  }

  /** `request` enters a demand-counted queue (a gate or preemption
   * hands it back to one). */
  void QueueDemand(const serve::Request& request) {
    if (recovery_.enabled) queued_demand_ += DemandTokens(request);
  }

  /** `request` leaves a demand-counted queue: it starts running. */
  void DequeueDemand(const serve::Request& request) {
    if (recovery_.enabled) queued_demand_ -= DemandTokens(request);
  }

  /**
   * Takes `request` out of the ledger with its terminal `outcome`
   * (kCompleted or a degraded one): stamps it and drops it from the
   * in-flight count. The caller hands it back.
   */
  void Retire(serve::Request& request, serve::Outcome outcome) {
    Stamp(request, outcome);
    Release(request, /*queued=*/false);
  }

  /** Retire, then hand the request back at once. */
  void Terminal(std::unique_ptr<serve::Request> request,
                serve::Outcome outcome) {
    Retire(*request, outcome);
    NotifyComplete(std::move(request));
  }

  /**
   * Drops `request` from the ledger unstamped: it finished in, or
   * leaves for, an engine that keeps its own ledger. `queued` says it
   * sat in a demand-counted queue.
   */
  void Release(const serve::Request& request, bool queued) {
    if (queued) DequeueDemand(request);
    MUX_CHECK(in_flight_ > 0);
    --in_flight_;
  }

  /**
   * Deadline-reaping hook: removes request `id` from the engine's
   * unstarted queues and returns it, setting `queued` when it sat in a
   * demand-counted queue; null once it has started, because work that
   * won admission runs to completion (abandoning half-computed KV helps
   * nobody). Engines that forward every request keep the default.
   */
  virtual std::unique_ptr<serve::Request> TakeUnstarted(std::int64_t id,
                                                        bool& queued) {
    (void)id;
    (void)queued;
    return nullptr;
  }

  /** Removes request `id` from `queue`; null when it is not there. */
  template <typename Queue>
  static std::unique_ptr<serve::Request> TakeById(Queue& queue,
                                                  std::int64_t id) {
    for (auto it = queue.begin(); it != queue.end(); ++it) {
      if (RequestOf(*it)->spec->id != id) continue;
      std::unique_ptr<serve::Request> request = std::move(RequestOf(*it));
      queue.erase(it);
      return request;
    }
    return nullptr;
  }

  /**
   * Crash triage for `lost`, oldest first, whose KV and pool accounting
   * are already gone. A request with retry budget left and its deadline
   * still ahead is reset for recomputation (PrepareRetry), counts
   * toward queued demand again and goes back to the front of `queue`,
   * ahead of fresh arrivals and in age order. Any other is retired as
   * kFailed, or kTimedOut when its deadline event fired while it was
   * admitted. Returns the retired requests oldest first; the caller
   * hands them back in its own order, which decides when next turns of
   * their sessions arrive.
   */
  template <typename Item>
  std::vector<std::unique_ptr<serve::Request>> Recycle(
      std::vector<std::unique_ptr<Item>> lost,
      std::deque<std::unique_ptr<Item>>& queue) {
    std::vector<std::unique_ptr<serve::Request>> dead;
    std::vector<std::unique_ptr<Item>> requeue;
    for (auto& item : lost) {
      serve::Request& request = *RequestOf(item);
      if (!PrepareRetry(request)) {
        Retire(request, serve::Outcome::kFailed);
      } else if (DeadlinePassed(request)) {
        Retire(request, serve::Outcome::kTimedOut);
      } else {
        QueueDemand(request);
        requeue.push_back(std::move(item));
        continue;
      }
      dead.push_back(std::move(RequestOf(item)));
    }
    for (auto it = requeue.rbegin(); it != requeue.rend(); ++it) {
      queue.push_front(std::move(*it));
    }
    return dead;
  }

  /**
   * Resets a crash-lost request for re-enqueue: phase back to queued,
   * prefill progress and pool bookkeeping zeroed (its KV is gone), but
   * `generated`/`token_times` kept — tokens already streamed to the
   * client are durable, so recovery recomputes the lost KV over
   * input + generated and resumes decode, preserving the original TTFT.
   * Returns false when the retry budget is spent; the caller marks the
   * request kFailed instead.
   */
  bool PrepareRetry(serve::Request& request) {
    ++request.crash_retries;
    if (request.crash_retries > recovery_.max_crash_retries) return false;
    ++crash_requeues_;
    request.outcome = serve::Outcome::kRetrying;
    request.phase = serve::Phase::kQueued;
    request.progress = 0;
    request.cached_tokens = 0;
    request.prefill_tokens = 0;
    request.reserved_tokens = 0;
    return true;
  }

  sim::Simulator* fault_sim_;

 private:
  /** The request an item of an engine queue owns: the item itself, or
   * a job's `request` member. */
  template <typename Item>
  static std::unique_ptr<serve::Request>& RequestOf(
      std::unique_ptr<Item>& item) {
    if constexpr (std::is_same_v<Item, serve::Request>) {
      return item;
    } else {
      return item->request;
    }
  }

  /** Stamps a terminal outcome and counts the degraded ones. */
  void Stamp(serve::Request& request, serve::Outcome outcome) {
    MUX_CHECK(serve::IsTerminalOutcome(outcome));
    request.outcome = outcome;
    request.phase = serve::Phase::kDone;
    request.completion = fault_sim_->Now();
    if (outcome == serve::Outcome::kShed) ++shed_requests_;
    if (outcome == serve::Outcome::kTimedOut) ++timed_out_requests_;
  }

  /** Deadline event: reaps request `id` if it has not started. */
  void Reap(std::int64_t id) {
    bool queued = false;
    std::unique_ptr<serve::Request> request = TakeUnstarted(id, queued);
    if (request == nullptr) return;
    if (queued) DequeueDemand(*request);
    Terminal(std::move(request), serve::Outcome::kTimedOut);
  }

  workload::SloTargets slo_;
  RecoveryPolicy recovery_;
  sim::Domain domain_;
  std::vector<bool> down_;
  std::uint64_t epoch_ = 0;
  std::size_t in_flight_ = 0;

  /** KV demand (input + output tokens) of every demand-counted queue. */
  std::int64_t queued_demand_ = 0;
  std::size_t shed_requests_ = 0;
  std::size_t timed_out_requests_ = 0;
  std::size_t crash_requeues_ = 0;
};

}  // namespace muxwise::fault

#endif  // MUXWISE_FAULT_FAULT_AWARE_H_
