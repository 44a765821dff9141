#include "core/muxwise_engine.h"

#include <algorithm>
#include <utility>

#include "serve/admission.h"
#include "sim/logging.h"

namespace muxwise::core {

MuxWiseEngine::MuxWiseEngine(sim::Simulator* simulator,
                             const serve::Deployment& deployment,
                             ContentionEstimator estimator, Options options)
    : fault::FaultAwareEngine(simulator, deployment.slo, options.recovery),
      sim_(simulator),
      deployment_(deployment),
      options_(options),
      estimator_(std::move(estimator)) {
  mux_ = std::make_unique<MultiplexEngine>(sim_, deployment_, options_.mux);
  pool_ = std::make_unique<kv::KvPool>(deployment_.PoolTokens(
      deployment_.num_gpus,
      /*extra_graph_fraction=*/0.032));  // Per-partition decode graphs, §4.5.
  cost_ = std::make_unique<llm::CostModel>(deployment_.model,
                                           deployment_.num_gpus,
                                           deployment_.gpu);
  dispatcher_ = std::make_unique<SloAwareDispatcher>(deployment_, &estimator_,
                                                     options_.dispatch);
  ctl_ = std::make_unique<overload::Controller>(options_.overload);
  if (options_.overload.enabled) {
    host_link_ = std::make_unique<sim::Channel>(
        sim_, "muxwise/host-spill",
        options_.overload.spill_bandwidth_bytes_per_s,
        options_.overload.spill_latency);
  }
}

MuxWiseEngine::~MuxWiseEngine() = default;

const char* MuxWiseEngine::name() const {
  switch (options_.mux.mode) {
    case MultiplexEngine::Mode::kSpatial:
      return "MuxWise";
    case MultiplexEngine::Mode::kUnmanaged:
      return "WindServe*";
    case MultiplexEngine::Mode::kTemporal:
      return "Temporal*";
  }
  return "MuxWise";
}

void MuxWiseEngine::Enqueue(std::unique_ptr<serve::Request> request) {
  if (OverloadOn()) {
    EnqueueOverload(std::move(request));
    return;
  }
  if (FaultsEnabled()) {
    if (ShedNow(waiting_demand_ + DemandTokens(*request),
                pool_->capacity_tokens())) {
      MarkTerminal(*request, serve::Outcome::kShed);
      NotifyComplete(std::move(request));
      return;
    }
    request->deadline = DeadlineFor(*request);
    sim_->ScheduleAt(request->deadline,
                     [this, id = request->spec->id] { OnDeadline(id); });
    waiting_demand_ += DemandTokens(*request);
  }
  ++in_flight_;
  request->phase = serve::Phase::kQueued;
  const serve::Request& incoming = *request;
  waiting_.push_back(  // muxlint: allow(unbounded-queue) — legacy path;
                       // the overload controller bounds EnqueueOverload.
      std::move(request));
  MaybePreemptFor(incoming);
  PumpScheduler();
}

void MuxWiseEngine::EnqueueOverload(std::unique_ptr<serve::Request> request) {
  ObserveOverload();
  const workload::SloClass slo_class = request->spec->slo_class;
  const overload::AdmissionDecision decision =
      ctl_->Admit(slo_class, DemandTokens(*request), sim_->Now(),
                  QueuedInClass(slo_class));
  if (decision.action == overload::AdmissionDecision::Action::kShed) {
    MarkTerminal(*request, serve::Outcome::kShed);
    NotifyComplete(std::move(request));
    return;
  }
  ++in_flight_;
  request->phase = serve::Phase::kQueued;
  if (FaultsEnabled()) {
    // The class controller replaces the blunt demand cutoff, but the
    // SLO-derived deadline still reaps stale queued work.
    request->deadline = DeadlineFor(*request);
    sim_->ScheduleAt(request->deadline,
                     [this, id = request->spec->id] { OnDeadline(id); });
  }
  if (decision.action == overload::AdmissionDecision::Action::kDelay) {
    tracer_.Instant("engine/overload", "admission-delayed",
                    request->spec->id,
                    static_cast<double>(workload::SloClassRank(slo_class)));
    sim_->ScheduleAt(decision.retry_at, [this, id = request->spec->id] {
      OnAdmissionRetry(id);
    });
    gated_.push_back(  // muxlint: allow(unbounded-queue) — delayed
                       // admissions count toward the controller's
                       // per-class hard cap (QueuedInClass).
        std::move(request));
    queued_hwm_ = std::max(queued_hwm_, waiting_.size() + gated_.size());
    return;
  }
  AdmitToWaiting(std::move(request));
}

void MuxWiseEngine::AdmitToWaiting(std::unique_ptr<serve::Request> request) {
  if (FaultsEnabled()) waiting_demand_ += DemandTokens(*request);
  const serve::Request& incoming = *request;
  waiting_.push_back(  // muxlint: allow(unbounded-queue) — bounded by the
                       // controller's per-class hard cap (bounded-queues
                       // audit).
      std::move(request));
  queued_hwm_ = std::max(queued_hwm_, waiting_.size() + gated_.size());
  MaybePreemptFor(incoming);
  PumpScheduler();
}

void MuxWiseEngine::OnAdmissionRetry(std::int64_t id) {
  auto it = gated_.begin();
  while (it != gated_.end() && (*it)->spec->id != id) ++it;
  if (it == gated_.end()) return;  // Reaped by its deadline.
  auto request = std::move(*it);
  gated_.erase(it);

  ObserveOverload();
  const workload::SloClass slo_class = request->spec->slo_class;
  const sim::Time now = sim_->Now();
  const overload::AdmissionDecision decision =
      ctl_->Admit(slo_class, DemandTokens(*request), now,
                  QueuedInClass(slo_class));
  const bool overdue =
      now - request->arrival >= options_.overload.max_admission_delay;
  if (decision.action == overload::AdmissionDecision::Action::kShed ||
      (decision.action == overload::AdmissionDecision::Action::kDelay &&
       overdue)) {
    MarkTerminal(*request, serve::Outcome::kShed);
    MUX_CHECK(in_flight_ > 0);
    --in_flight_;
    NotifyComplete(std::move(request));
    return;
  }
  if (decision.action == overload::AdmissionDecision::Action::kDelay) {
    sim_->ScheduleAt(decision.retry_at,
                     [this, id] { OnAdmissionRetry(id); });
    gated_.push_back(  // muxlint: allow(unbounded-queue) — re-gates a
                       // request already inside the hard cap (net queue
                       // growth is zero).
        std::move(request));
    return;
  }
  AdmitToWaiting(std::move(request));
}

void MuxWiseEngine::ObserveOverload() {
  const double occupancy =
      static_cast<double>(pool_->used_tokens()) /
      static_cast<double>(pool_->capacity_tokens());
  sim::Duration queue_delay = 0;
  const sim::Time now = sim_->Now();
  for (const auto& request : waiting_) {
    queue_delay = std::max(queue_delay, now - request->arrival);
  }
  if (ctl_->Observe(now, occupancy, queue_delay)) {
    tracer_.Instant("engine/overload", "mode-change",
                    static_cast<std::int64_t>(ctl_->mode_transitions()),
                    static_cast<double>(static_cast<int>(ctl_->mode())));
  }
  if (tracer_.enabled()) {
    tracer_.Counter("engine/overload", "mode",
                    static_cast<double>(static_cast<int>(ctl_->mode())));
  }
}

std::size_t MuxWiseEngine::QueuedInClass(
    workload::SloClass slo_class) const {
  std::size_t count = 0;
  for (const auto& request : waiting_) {
    if (request->spec->slo_class == slo_class) ++count;
  }
  for (const auto& request : gated_) {
    if (request->spec->slo_class == slo_class) ++count;
  }
  return count;
}

void MuxWiseEngine::OnDeadline(std::int64_t id) {
  // Only waiting requests are reaped; admitted work runs to completion.
  for (auto it = waiting_.begin(); it != waiting_.end(); ++it) {
    if ((*it)->spec->id != id) continue;
    auto request = std::move(*it);
    waiting_.erase(it);
    waiting_demand_ -= DemandTokens(*request);
    MarkTerminal(*request, serve::Outcome::kTimedOut);
    MUX_CHECK(in_flight_ > 0);
    --in_flight_;
    NotifyComplete(std::move(request));
    return;
  }
  // Admission-gated requests (overload control) are equally unstarted.
  for (auto it = gated_.begin(); it != gated_.end(); ++it) {
    if ((*it)->spec->id != id) continue;
    auto request = std::move(*it);
    gated_.erase(it);
    MarkTerminal(*request, serve::Outcome::kTimedOut);
    MUX_CHECK(in_flight_ > 0);
    --in_flight_;
    NotifyComplete(std::move(request));
    return;
  }
}

void MuxWiseEngine::PumpScheduler() {
  if (DomainDown(0)) return;
  if (OverloadOn()) {
    ObserveOverload();
    MaybeRestoreSpilled();
    MaybeKvPreempt();
  }
  if (active_ != nullptr && !waiting_.empty()) {
    // Scheduling-point preemption check against the shortest waiter.
    const serve::Request* shortest = waiting_.front().get();
    for (const auto& request : waiting_) {
      if (request->spec->input_tokens < shortest->spec->input_tokens) {
        shortest = request.get();
      }
    }
    MaybePreemptFor(*shortest);
  }
  // A pause requested between layer groups swaps immediately; with a
  // group in flight the swap waits for the group boundary
  // (OnPrefillGroupDone).
  if (active_ != nullptr && active_->pause_requested &&
      active_->layers_inflight == 0) {
    MUX_CHECK(preempted_ == nullptr);
    active_->pause_requested = false;
    preempted_ = std::move(active_);
    ++preemptions_;
  }
  TryStartPrefillBatch();
  MaybeLaunchDecode();  // Decode launches first (§3.2.2 priority).
  ContinuePrefill();
}

void MuxWiseEngine::TryStartPrefillBatch() {
  if (active_ != nullptr) return;
  if (preempted_ == nullptr) kv_preempt_pending_ = false;

  // A paused batch resumes once no preemptor is pending; only the batch
  // created for an approved preemption runs ahead of it (no recursive
  // preemption, and no starvation by later arrivals). A KV-pressure
  // pause instead holds the batch through exactly one formation pass,
  // so TryPreemptForKv can harvest victims from it below.
  if (preempted_ != nullptr && !preemptor_pending_) {
    if (!kv_preempt_pending_) {
      active_ = std::move(preempted_);
      active_->pause_requested = false;
      return;
    }
    kv_preempt_pending_ = false;
  }

  // Restored spill victims resume next: their KV is back in HBM and
  // their reservation is already charged, so holding them only wastes
  // the pool.
  if (!restored_.empty() && !preemptor_pending_) {
    active_ = std::move(restored_.front());
    restored_.pop_front();
    return;
  }

  const std::size_t running = decoding_.size() + merge_ready_.size();
  if (running >= static_cast<std::size_t>(options_.max_decode_batch)) return;
  if (waiting_.empty()) {
    if (preempted_ != nullptr) {
      // The would-be preemptor vanished: resume the paused batch.
      preemptor_pending_ = false;
      active_ = std::move(preempted_);
      active_->pause_requested = false;
    }
    return;
  }

  auto job = std::make_unique<PrefillJob>();
  const bool building_preemptor = preemptor_pending_;
  if (building_preemptor) {
    // Short requests preempt long ones (§3.4.2): pull the smallest
    // prefills to the front of the queue for the preemptor batch.
    std::stable_sort(waiting_.begin(), waiting_.end(),
                     [](const std::unique_ptr<serve::Request>& a,
                        const std::unique_ptr<serve::Request>& b) {
                       return a->spec->input_tokens - a->cached_tokens <
                              b->spec->input_tokens - b->cached_tokens;
                     });
  } else if (OverloadOn()) {
    // Class priority: interactive heads form batches before standard,
    // standard before batch; FIFO within a class (stable sort).
    std::stable_sort(waiting_.begin(), waiting_.end(),
                     [](const std::unique_ptr<serve::Request>& a,
                        const std::unique_ptr<serve::Request>& b) {
                       return workload::SloClassRank(a->spec->slo_class) <
                              workload::SloClassRank(b->spec->slo_class);
                     });
  }
  // Brownout shrinks the prefill token budget before anything is shed.
  std::int64_t token_budget = options_.prefill_batch_tokens;
  if (OverloadOn()) {
    token_budget = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(static_cast<double>(token_budget) *
                                     ctl_->PrefillScale()));
  }
  // With every admitted population empty, deferral would deadlock the
  // queue — an idle engine admits batch work regardless of mode.
  const bool engine_idle = decoding_.empty() && merge_ready_.empty() &&
                           !decode_in_flight_ && preempted_ == nullptr &&
                           spilled_.empty() && restored_.empty();
  int kv_victims = 0;
  std::int64_t batch_tokens = 0;
  while (!waiting_.empty() &&
         static_cast<int>(job->requests.size()) <
             options_.prefill_batch_requests &&
         batch_tokens < token_budget &&
         running + job->requests.size() <
             static_cast<std::size_t>(options_.max_decode_batch)) {
    serve::Request& head = *waiting_.front();
    if (OverloadOn() && !building_preemptor &&
        head.spec->slo_class == workload::SloClass::kBatch &&
        ctl_->DeferBatch() && !(job->requests.empty() && engine_idle)) {
      // Brownout defers batch-class admissions; the class sort above
      // groups batch at the tail, so nothing behind it is starved.
      break;
    }
    if (!serve::AdmitToPool(*pool_, head, sim_->Now())) {
      if (OverloadOn() && ctl_->PreemptionEligible() &&
          kv_victims < options_.overload.max_victims_per_pump &&
          TryPreemptForKv(head)) {
        ++kv_victims;
        continue;  // Space was freed; re-offer the same head.
      }
      break;
    }
    head.phase = serve::Phase::kPrefill;
    head.prefill_start = sim_->Now();
    if (FaultsEnabled()) waiting_demand_ -= DemandTokens(head);
    job->work.push_back(
        llm::SeqWork{head.prefill_tokens, head.cached_tokens});
    job->new_tokens += head.prefill_tokens;
    job->reused_tokens += head.cached_tokens;
    batch_tokens += head.prefill_tokens;
    job->earliest_deadline = std::min(
        job->earliest_deadline,
        head.arrival + deployment_.slo.TtftTargetFor(head.spec->input_tokens));
    job->requests.push_back(std::move(waiting_.front()));
    waiting_.pop_front();
  }
  if (job->requests.empty()) {
    if (preempted_ != nullptr) {
      // Pool pressure blocked the preemptor: resume rather than stall.
      preemptor_pending_ = false;
      active_ = std::move(preempted_);
      active_->pause_requested = false;
    }
    return;
  }
  job->is_preemptor = preemptor_pending_;
  preemptor_pending_ = false;
  active_ = std::move(job);
}

PrefillDesc MuxWiseEngine::ActivePrefillDesc() const {
  if (active_ == nullptr) return PrefillDesc{};
  return PrefillDesc{active_->new_tokens, active_->reused_tokens};
}

sim::Duration MuxWiseEngine::ActivePrefillRemaining() const {
  if (active_ == nullptr) return 0;
  const int total_layers = deployment_.model.num_layers;
  const int remaining = total_layers - active_->layers_done;
  const sim::Duration phase =
      estimator_.PredictPrefill(active_->work, mux_->prefill_sms());
  return static_cast<sim::Duration>(
      static_cast<double>(phase) * remaining / total_layers);
}

void MuxWiseEngine::ContinuePrefill() {
  if (active_ == nullptr || active_->layers_inflight > 0) return;
  if (active_->pause_requested) return;  // Swap happens at group end.
  const int total_layers = deployment_.model.num_layers;
  const int remaining = total_layers - active_->layers_done;
  MUX_CHECK(remaining > 0);

  const bool decode_live = decode_in_flight_ || !decoding_.empty();
  int prefill_sms = mux_->prefill_sms();
  if (!decode_live && options_.mux.mode == MultiplexEngine::Mode::kSpatial) {
    // Decode terminated (paper Fig. 9, bubble type 2): move the later
    // prefill layers into a full-device green context.
    mux_->SetPartition(deployment_.gpu.partition_granularity,
                       deployment_.gpu.sm_count);
    prefill_sms = deployment_.gpu.sm_count;
  }
  if (options_.mux.mode != MultiplexEngine::Mode::kSpatial) {
    prefill_sms = deployment_.gpu.sm_count;
  }

  int layers = remaining;
  if (options_.layerwise) {
    if (options_.mux.mode == MultiplexEngine::Mode::kTemporal) {
      // Fit layer groups into the decode slack (Tropical-style).
      const sim::Duration slack =
          deployment_.slo.tbt - last_decode_estimate_ -
          dispatcher_->options().tbt_margin;
      const sim::Duration phase =
          estimator_.PredictPrefill(active_->work, prefill_sms);
      if (decode_live && phase > 0) {
        const double fit = static_cast<double>(std::max<sim::Duration>(
                               0, slack)) *
                           total_layers / static_cast<double>(phase);
        layers = std::clamp(static_cast<int>(fit), 1, remaining);
      } else {
        layers = std::min(remaining, dispatcher_->options().idle_layer_group);
      }
    } else {
      layers = decode_live
                   ? dispatcher_->PrefillLayersToLaunch(
                         last_decode_estimate_, active_->work, prefill_sms,
                         remaining)
                   : std::min(remaining,
                              dispatcher_->options().idle_layer_group);
    }
  }

  gpu::Kernel kernel = cost_->PrefillLayers(active_->work, layers);
  const sim::Duration launch_cost = cost_->PrefillLayerLaunch() * layers;
  active_->layers_inflight = layers;
  ++prefill_group_serial_;
  tracer_.SpanBegin("engine/prefill", "prefill-chunk",
                    static_cast<std::int64_t>(prefill_group_serial_),
                    static_cast<double>(layers));
  mux_->LaunchPrefillGroup(kernel, launch_cost,
                           [this, layers] { OnPrefillGroupDone(layers); });
}

void MuxWiseEngine::OnPrefillGroupDone(int layers) {
  MUX_CHECK(active_ != nullptr);
  // One group in flight at a time, so the live serial is the last one.
  tracer_.SpanEnd("engine/prefill", "prefill-chunk",
                  static_cast<std::int64_t>(prefill_group_serial_));
  active_->layers_done += layers;
  active_->layers_inflight = 0;

  if (active_->layers_done >= deployment_.model.num_layers) {
    CompleteActivePrefill();
  } else if (active_->pause_requested) {
    MUX_CHECK(preempted_ == nullptr);
    active_->pause_requested = false;
    preempted_ = std::move(active_);
    ++preemptions_;
  }
  FlushCompletions();
  PumpScheduler();
}

void MuxWiseEngine::FlushCompletions() {
  while (!pending_completions_.empty()) {
    auto request = std::move(pending_completions_.back());
    pending_completions_.pop_back();
    NotifyComplete(std::move(request));
  }
}

void MuxWiseEngine::CompleteActivePrefill() {
  const sim::Time now = sim_->Now();
  auto job = std::move(active_);
  for (auto& request : job->requests) {
    request->EmitToken(now);  // First token.
    if (request->DecodeFinished()) {
      FinishRequest(std::move(request));
    } else {
      request->phase = serve::Phase::kDecode;
      merge_ready_.push_back(std::move(request));
    }
  }
  if (preempted_ != nullptr) {
    active_ = std::move(preempted_);
    active_->pause_requested = false;
  }
  // The merge is observed via query-based synchronization; without it
  // the decode loop was blocked waiting for exactly this completion.
  decode_blocked_on_merge_ = false;
}

void MuxWiseEngine::MaybeLaunchDecode() {
  if (decode_in_flight_) return;

  // Query-based synchronization: completed prefills merge into the
  // decode batch at iteration-construction time (paper §3.2.3).
  for (auto& request : merge_ready_) {
    decoding_.push_back(std::move(request));
  }
  merge_ready_.clear();

  if (decoding_.empty()) return;

  if (!options_.query_sync && active_ != nullptr &&
      active_->layers_done + active_->layers_inflight >=
          deployment_.model.num_layers) {
    // Naive blocking merge: the host synchronizes on the prefill
    // completion event before building the next decode batch.
    decode_blocked_on_merge_ = true;
    tracer_.Instant("engine/decode", "blocked-on-merge",
                    static_cast<std::int64_t>(decode_iterations_),
                    static_cast<double>(decoding_.size()));
    return;
  }

  std::vector<std::int64_t> ctx;
  ctx.reserve(decoding_.size());
  for (const auto& request : decoding_) {
    ctx.push_back(request->spec->input_tokens + request->generated);
  }

  const bool prefill_pending = active_ != nullptr ||
                               preempted_ != nullptr || !waiting_.empty() ||
                               !restored_.empty() || !spilled_.empty();
  PrefillDesc desc = ActivePrefillDesc();
  if (desc.new_tokens == 0 && prefill_pending && !waiting_.empty()) {
    desc.new_tokens = waiting_.front()->spec->input_tokens;
    desc.reused_tokens = waiting_.front()->spec->reused_tokens;
  }

  const int total = deployment_.gpu.sm_count;
  int decode_sms = dispatcher_->ChooseDecodeSms(ctx, prefill_pending, desc);
  if (options_.mux.mode == MultiplexEngine::Mode::kSpatial) {
    if (decode_sms >= total) {
      mux_->SetPartition(total, deployment_.gpu.partition_granularity);
    } else {
      mux_->SetPartition(decode_sms, total - decode_sms);
    }
  } else {
    decode_sms = total;
  }
  if (partition_trace_capacity_ == 0 ||
      partition_trace_.size() < partition_trace_capacity_) {
    partition_trace_.push_back(PartitionSample{
        sim_->Now(), decode_sms,
        decode_sms >= total ? 0 : total - decode_sms, active_ != nullptr});
  } else {
    ++partition_samples_dropped_;
  }

  const gpu::Kernel kernel = cost_->DecodeIteration(ctx);
  const sim::Duration solo = estimator_.PredictDecodeSolo(ctx, decode_sms);
  last_decode_estimate_ =
      prefill_pending ? estimator_.WorstCaseDecode(ctx, decode_sms, desc)
                      : solo;
  std::int64_t total_ctx = 0;
  for (std::int64_t c : ctx) total_ctx += c;
  const ContentionEstimator::CellKey cell = estimator_.CellFor(
      desc, ctx.size(), total_ctx / static_cast<std::int64_t>(ctx.size()),
      decode_sms);
  const bool had_cotenant =
      active_ != nullptr && active_->layers_inflight > 0;

  decode_in_flight_ = true;
  ++decode_iterations_;
  tracer_.SpanBegin("engine/decode", "decode-step",
                    static_cast<std::int64_t>(decode_iterations_),
                    static_cast<double>(ctx.size()));
  const sim::Time launch_time = sim_->Now();
  mux_->LaunchDecode(kernel, cost_->DecodeGraphLaunch(),
                     [this, launch_time, solo, cell, had_cotenant] {
                       OnDecodeIterationDone(launch_time, solo, cell,
                                             had_cotenant);
                     });
}

void MuxWiseEngine::OnDecodeIterationDone(sim::Time launch_time,
                                          sim::Duration solo,
                                          ContentionEstimator::CellKey cell,
                                          bool had_cotenant) {
  decode_in_flight_ = false;
  // Single decode iteration in flight: the live serial is the last one.
  tracer_.SpanEnd("engine/decode", "decode-step",
                  static_cast<std::int64_t>(decode_iterations_));
  const sim::Time now = sim_->Now();

  if (options_.online_refinement && had_cotenant && solo > 0) {
    const sim::Duration measured =
        now - launch_time - cost_->DecodeGraphLaunch();
    const double slowdown =
        static_cast<double>(measured) / static_cast<double>(solo);
    if (slowdown > 1.0) estimator_.ObserveDecode(cell, slowdown);
  }

  std::vector<std::unique_ptr<serve::Request>> still;
  still.reserve(decoding_.size());
  for (auto& request : decoding_) {
    request->EmitToken(now);
    if (request->DecodeFinished()) {
      FinishRequest(std::move(request));
    } else {
      still.push_back(std::move(request));
    }
  }
  decoding_ = std::move(still);
  tracer_.Counter("engine/decode", "decode-pending",
                  static_cast<double>(decoding_.size()));
  FlushCompletions();
  PumpScheduler();
}

void MuxWiseEngine::FinishRequest(std::unique_ptr<serve::Request> request) {
  request->phase = serve::Phase::kDone;
  request->completion = sim_->Now();
  request->outcome = serve::Outcome::kCompleted;
  serve::FinishInPool(*pool_, *request, sim_->Now());
  MUX_CHECK(in_flight_ > 0);
  --in_flight_;
  pending_completions_.push_back(  // muxlint: allow(unbounded-queue) —
                                   // drained by FlushCompletions before
                                   // the event returns (bounded by
                                   // in_flight_).
      std::move(request));
}

void MuxWiseEngine::InjectCrash(std::size_t domain) {
  if (domain != 0) return;
  MarkDown(0, true);
  BumpEpoch();
  mux_->Abort();  // Kills both green contexts and in-flight launches.
  decode_in_flight_ = false;
  decode_blocked_on_merge_ = false;
  preemptor_pending_ = false;
  kv_preempt_pending_ = false;
  last_decode_estimate_ = 0;

  // Everything admitted lost its KV, oldest first: the decode batch,
  // prefills awaiting merge, then the preempted and active batches.
  std::vector<std::unique_ptr<serve::Request>> lost;
  for (auto& request : decoding_) lost.push_back(std::move(request));
  decoding_.clear();
  for (auto& request : merge_ready_) lost.push_back(std::move(request));
  merge_ready_.clear();
  if (preempted_ != nullptr) {
    for (auto& request : preempted_->requests) {
      lost.push_back(std::move(request));
    }
    preempted_.reset();
  }
  if (active_ != nullptr) {
    for (auto& request : active_->requests) {
      lost.push_back(std::move(request));
    }
    active_.reset();
  }
  // Overload-control populations: restored-but-unresumed jobs hold HBM
  // reservations like any batch; spilled requests surrender their
  // ledger share (host copies are useless once the pool is dropped —
  // the partial KV's prefix context died with the instance).
  for (auto& job : restored_) {
    for (auto& request : job->requests) lost.push_back(std::move(request));
  }
  restored_.clear();
  for (auto& entry : spilled_) {
    if (!entry.restoring) pool_->DropSpilled(entry.tokens);
    // Restoring entries moved their tokens back into the reservation
    // already; AbandonInPool below returns those.
    lost.push_back(std::move(entry.request));
  }
  spilled_.clear();
  restore_in_flight_ = false;
  for (auto& request : lost) serve::AbandonInPool(*pool_, *request);
  pool_->Clear();

  std::vector<std::unique_ptr<serve::Request>> requeue;
  for (auto& request : lost) {
    if (!PrepareRetry(*request)) {
      MarkTerminal(*request, serve::Outcome::kFailed);
      MUX_CHECK(in_flight_ > 0);
      --in_flight_;
      pending_completions_.push_back(  // muxlint: allow(unbounded-queue)
                                       // — drained by FlushCompletions
                                       // below (bounded by in_flight_).
          std::move(request));
    } else if (DeadlinePassed(*request)) {
      // Its deadline event fired while it was admitted; reap it now.
      MarkTerminal(*request, serve::Outcome::kTimedOut);
      MUX_CHECK(in_flight_ > 0);
      --in_flight_;
      pending_completions_.push_back(  // muxlint: allow(unbounded-queue)
                                       // — drained by FlushCompletions
                                       // below (bounded by in_flight_).
          std::move(request));
    } else {
      waiting_demand_ += DemandTokens(*request);
      requeue.push_back(std::move(request));
    }
  }
  for (auto it = requeue.rbegin(); it != requeue.rend(); ++it) {
    waiting_.push_front(  // muxlint: allow(unbounded-queue) — crash
                          // recovery re-queues already-admitted work
                          // (net queue growth is zero).
        std::move(*it));
  }
  FlushCompletions();
}

std::vector<std::unique_ptr<serve::Request>>
MuxWiseEngine::ExtractForRehoming() {
  std::vector<std::unique_ptr<serve::Request>> extracted;
  extracted.reserve(waiting_.size() + gated_.size());
  for (auto& request : waiting_) {
    if (FaultsEnabled()) waiting_demand_ -= DemandTokens(*request);
    MUX_CHECK(in_flight_ > 0);
    --in_flight_;
    request->phase = serve::Phase::kQueued;
    extracted.push_back(std::move(request));
  }
  waiting_.clear();
  // Gated arrivals never entered waiting_demand_ (the class controller
  // bounds them instead), so only the in-flight count is returned.
  for (auto& request : gated_) {
    MUX_CHECK(in_flight_ > 0);
    --in_flight_;
    request->phase = serve::Phase::kQueued;
    extracted.push_back(std::move(request));
  }
  gated_.clear();
  return extracted;
}

void MuxWiseEngine::WarmCachePrefix(const kv::TokenSeq& prefix) {
  pool_->CommitSequence(prefix, sim_->Now());
}

void MuxWiseEngine::InjectRecovery(std::size_t domain) {
  if (domain != 0) return;
  MarkDown(0, false);
  PumpScheduler();
}

void MuxWiseEngine::InjectStraggler(std::size_t domain, double slowdown) {
  if (domain != 0) return;
  mux_->device().SetSlowdown(slowdown);
}

void MuxWiseEngine::InjectZombie(std::size_t domain, bool frozen) {
  if (domain != 0) return;
  mux_->device().SetFrozen(frozen);
}

void MuxWiseEngine::InjectDegrade(std::size_t domain, double flops_factor,
                                  double bandwidth_factor) {
  if (domain != 0) return;
  mux_->device().SetDegrade(flops_factor, bandwidth_factor);
}

std::uint64_t MuxWiseEngine::ProgressWatermark() const {
  return static_cast<std::uint64_t>(mux_->device().kernels_completed());
}

void MuxWiseEngine::AttachTracer(obs::Tracer tracer) {
  fault::FaultAwareEngine::AttachTracer(tracer);
  mux_->AttachTracer(tracer);
  pool_->set_tracer(tracer, "kv");
}

void MuxWiseEngine::MaybeKvPreempt() {
  if (!ctl_->PreemptionEligible()) return;
  if (active_ == nullptr || active_->pause_requested ||
      active_->is_preemptor) {
    return;
  }
  if (preempted_ != nullptr || preemptor_pending_ || kv_preempt_pending_) {
    return;
  }
  if (waiting_.empty()) return;

  // The beneficiary is the best-class waiting request (FIFO among
  // equals, matching the class sort in TryStartPrefillBatch).
  const serve::Request* head = waiting_.front().get();
  for (const auto& request : waiting_) {
    if (workload::SloClassRank(request->spec->slo_class) <
        workload::SloClassRank(head->spec->slo_class)) {
      head = request.get();
    }
  }
  const int head_rank = workload::SloClassRank(head->spec->slo_class);
  const std::int64_t demand =
      head->spec->input_tokens + head->spec->output_tokens;
  // Cached tokens are reclaimable (prefix eviction), so pressure means
  // even evicting the whole cache would not fit the head.
  if (pool_->free_tokens() + pool_->cached_tokens() >= demand) return;

  // Pause only pays off when the batch carries strictly lower-class
  // prefill work TryPreemptForKv could evict for `head`.
  bool has_victim = false;
  for (const auto& candidate : active_->requests) {
    if (candidate->phase == serve::Phase::kPrefill &&
        workload::SloClassRank(candidate->spec->slo_class) > head_rank) {
      has_victim = true;
      break;
    }
  }
  if (!has_victim) return;

  active_->pause_requested = true;
  kv_preempt_pending_ = true;
  tracer_.Instant("engine/overload", "kv-preempt-pause", head->spec->id,
                  static_cast<double>(demand));
}

bool MuxWiseEngine::TryPreemptForKv(const serve::Request& head) {
  // Victims come from a paused prefill batch at a layer-group boundary;
  // requests holding decode state are never candidates (decode-safe
  // rule, enforced by the phase check and the decode_victims_ audit).
  PrefillJob* job = nullptr;
  if (preempted_ != nullptr && preempted_->layers_inflight == 0) {
    job = preempted_.get();
  }
  if (job == nullptr) return false;
  const int head_rank = workload::SloClassRank(head.spec->slo_class);
  const int total_layers = deployment_.model.num_layers;
  const int prefill_sms = mux_->prefill_sms();

  int best = -1;
  overload::VictimKey best_key;
  for (std::size_t i = 0; i < job->requests.size(); ++i) {
    const serve::Request& candidate = *job->requests[i];
    if (candidate.phase != serve::Phase::kPrefill) {
      ++decode_victims_;  // Would be decode-unsafe; the audit fails.
      continue;
    }
    // Only strictly lower-priority work is evicted for `head`.
    if (workload::SloClassRank(candidate.spec->slo_class) <= head_rank) {
      continue;
    }
    const double fraction =
        static_cast<double>(job->layers_done) / total_layers;
    overload::VictimKey key;
    key.slo_class = candidate.spec->slo_class;
    key.progress_layers = job->layers_done;
    key.recompute_seconds =
        sim::ToSeconds(estimator_.PredictPrefill({job->work[i]},
                                                 prefill_sms)) *
        fraction;
    key.request_id = candidate.spec->id;
    if (best < 0 || overload::PreemptBefore(key, best_key)) {
      best = static_cast<int>(i);
      best_key = key;
    }
  }
  if (best < 0) return false;

  auto victim = std::move(job->requests[best]);
  job->requests.erase(job->requests.begin() + best);
  job->work.erase(job->work.begin() + best);
  job->new_tokens -= victim->prefill_tokens;
  job->reused_tokens -= victim->cached_tokens;
  job->earliest_deadline = sim::kTimeNever;
  for (const auto& rest : job->requests) {
    job->earliest_deadline =
        std::min(job->earliest_deadline,
                 rest->arrival + deployment_.slo.TtftTargetFor(
                                     rest->spec->input_tokens));
  }
  if (job->requests.empty()) preempted_.reset();

  const int layers_done = static_cast<int>(best_key.progress_layers);
  const double fraction =
      static_cast<double>(layers_done) / total_layers;
  const double bytes = deployment_.model.KvBytesPerToken() *
                       static_cast<double>(victim->cached_tokens +
                                           victim->prefill_tokens) *
                       fraction;
  const std::int64_t id = victim->spec->id;

  if (layers_done > 0 &&
      ctl_->SpillCheaper(bytes, best_key.recompute_seconds)) {
    // Spill: the partial KV crosses the host link and the HBM pages
    // are freed immediately; the ledger keeps the pages owned.
    const std::int64_t tokens = victim->reserved_tokens;
    pool_->SpillReserved(tokens);
    victim->reserved_tokens = 0;
    victim->progress = layers_done;
    ++kv_spills_;
    tracer_.Instant("engine/overload", "kv-spill", id, fraction);
    SpilledEntry entry;
    entry.tokens = tokens;
    entry.layers_done = layers_done;
    entry.bytes = bytes;
    entry.request = std::move(victim);
    spilled_.push_back(std::move(entry));
    host_link_->Send<std::int64_t>(
        bytes, id, [this, e = epoch()](std::int64_t spilled_id) {
          if (e != epoch()) return;
          OnSpillOutDone(spilled_id);
        });
  } else {
    // Recompute: cheaper (or nothing computed yet) — drop the partial
    // KV and requeue the victim behind its class.
    serve::AbandonInPool(*pool_, *victim);
    victim->phase = serve::Phase::kQueued;
    victim->cached_tokens = 0;
    victim->prefill_tokens = 0;
    victim->progress = 0;
    ++kv_recomputes_;
    tracer_.Instant("engine/overload", "kv-recompute", id, fraction);
    if (FaultsEnabled()) waiting_demand_ += DemandTokens(*victim);
    waiting_.push_back(  // muxlint: allow(unbounded-queue) — re-queues
                         // an already-admitted request (net queue
                         // growth is zero).
        std::move(victim));
  }
  return true;
}

void MuxWiseEngine::OnSpillOutDone(std::int64_t id) {
  for (auto& entry : spilled_) {
    if (entry.request->spec->id != id) continue;
    entry.out_done = true;
    PumpScheduler();
    return;
  }
}

void MuxWiseEngine::MaybeRestoreSpilled() {
  if (restore_in_flight_ || spilled_.empty()) return;
  // Restore when pressure has eased, or unconditionally once nothing
  // else is runnable (the drain path — spilled work must finish).
  const bool drain = waiting_.empty() && gated_.empty() &&
                     active_ == nullptr && preempted_ == nullptr &&
                     restored_.empty();
  if (!ctl_->RestoreEligible() && !drain) return;

  int best = -1;
  for (std::size_t i = 0; i < spilled_.size(); ++i) {
    const SpilledEntry& entry = spilled_[i];
    if (!entry.out_done || entry.restoring) continue;
    if (best < 0) {
      best = static_cast<int>(i);
      continue;
    }
    const SpilledEntry& leader = spilled_[best];
    const int rank_e =
        workload::SloClassRank(entry.request->spec->slo_class);
    const int rank_l =
        workload::SloClassRank(leader.request->spec->slo_class);
    if (rank_e < rank_l ||
        (rank_e == rank_l &&
         entry.request->spec->id < leader.request->spec->id)) {
      best = static_cast<int>(i);
    }
  }
  if (best < 0) return;
  SpilledEntry& entry = spilled_[best];
  if (!pool_->TryRestoreSpilled(entry.tokens)) return;  // No HBM yet.
  entry.request->reserved_tokens = entry.tokens;
  entry.restoring = true;
  restore_in_flight_ = true;
  const std::int64_t id = entry.request->spec->id;
  host_link_->Send<std::int64_t>(
      entry.bytes, id, [this, e = epoch()](std::int64_t restored_id) {
        if (e != epoch()) return;
        OnRestoreDone(restored_id);
      });
}

void MuxWiseEngine::OnRestoreDone(std::int64_t id) {
  restore_in_flight_ = false;
  for (auto it = spilled_.begin(); it != spilled_.end(); ++it) {
    if (it->request->spec->id != id) continue;
    SpilledEntry entry = std::move(*it);
    spilled_.erase(it);
    auto victim = std::move(entry.request);
    ++kv_restores_;
    tracer_.Instant("engine/overload", "kv-restore", id,
                    static_cast<double>(entry.layers_done));
    auto job = std::make_unique<PrefillJob>();
    job->work.push_back(
        llm::SeqWork{victim->prefill_tokens, victim->cached_tokens});
    job->new_tokens = victim->prefill_tokens;
    job->reused_tokens = victim->cached_tokens;
    job->layers_done = entry.layers_done;
    job->earliest_deadline =
        victim->arrival +
        deployment_.slo.TtftTargetFor(victim->spec->input_tokens);
    job->requests.push_back(std::move(victim));
    restored_.push_back(std::move(job));
    PumpScheduler();
    return;
  }
}

void MuxWiseEngine::MaybePreemptFor(const serve::Request& incoming) {
  if (!options_.dispatch.preemption) return;
  if (active_ == nullptr || active_->is_preemptor || preempted_ != nullptr ||
      active_->pause_requested) {
    return;
  }
  const int prefill_sms = mux_->prefill_sms();
  const sim::Duration incoming_duration = estimator_.PredictPrefill(
      {llm::SeqWork{incoming.spec->input_tokens, incoming.spec->reused_tokens}},
      prefill_sms);
  const sim::Time incoming_deadline =
      incoming.arrival +
      deployment_.slo.TtftTargetFor(incoming.spec->input_tokens);
  if (dispatcher_->ShouldPreempt(
          sim_->Now(), ActivePrefillRemaining(), active_->is_preemptor,
          active_->earliest_deadline, incoming_duration, incoming_deadline)) {
    active_->pause_requested = true;
    preemptor_pending_ = true;
  }
}

void MuxWiseEngine::RegisterAudits(check::InvariantRegistry& registry) const {
  registry.Register(
      "MuxWiseEngine", "quiescent-scheduler",
      [this](check::AuditContext& ctx) {
        ctx.Check(in_flight_ == 0, std::to_string(in_flight_) +
                                       " requests still in flight");
        ctx.Check(waiting_.empty(), "waiting queue not drained");
        ctx.Check(active_ == nullptr, "prefill batch still active");
        ctx.Check(preempted_ == nullptr, "preempted batch never resumed");
        ctx.Check(merge_ready_.empty(), "merge-ready requests abandoned");
        ctx.Check(decoding_.empty(), "decode batch not drained");
        ctx.Check(pending_completions_.empty(),
                  "completions never handed back");
        ctx.Check(!decode_in_flight_, "decode iteration still outstanding");
        ctx.Check(waiting_demand_ == 0,
                  "queued-demand accounting leaked " +
                      std::to_string(waiting_demand_) + " tokens");
        ctx.Check(gated_.empty(), "admission-gated requests leaked");
        ctx.Check(spilled_.empty(), "spilled requests never restored");
        ctx.Check(restored_.empty(), "restored jobs never resumed");
        ctx.Check(!restore_in_flight_,
                  "restore transfer still outstanding");
        ctx.Check(!kv_preempt_pending_,
                  "KV-pressure pause never consumed");
      });
  registry.Register(
      "MuxWiseEngine", "decode-safe-preemption",
      [this](check::AuditContext& ctx) {
        ctx.Check(decode_victims_ == 0,
                  std::to_string(decode_victims_) +
                      " decode-holding requests were offered as "
                      "preemption victims");
      });
  registry.Register(
      "MuxWiseEngine", "bounded-queues", [this](check::AuditContext& ctx) {
        if (!OverloadOn()) return;
        const std::size_t bound =
            static_cast<std::size_t>(workload::kNumSloClasses) *
            options_.overload.max_queue_per_class;
        ctx.Check(queued_hwm_ <= bound,
                  "pending queues reached " + std::to_string(queued_hwm_) +
                      " under backpressure (bound " +
                      std::to_string(bound) + ")");
      });
  mux_->RegisterAudits(registry);
  pool_->RegisterAudits(registry);
}

}  // namespace muxwise::core
