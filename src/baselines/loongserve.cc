#include "baselines/loongserve.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "sim/logging.h"

namespace muxwise::baselines {

LoongServeEngine::LoongServeEngine(sim::Simulator* simulator,
                                   const serve::Deployment& deployment,
                                   Options options)
    : fault::FaultAwareEngine(simulator, deployment.slo, options.recovery),
      sim_(simulator),
      deployment_(deployment),
      options_(options) {
  const gpu::GpuSpec aggregate =
      deployment_.gpu.Aggregate(deployment_.num_gpus);
  device_ = std::make_unique<gpu::Gpu>(sim_, aggregate);
  host_ = std::make_unique<gpu::HostThread>(sim_);
  link_ = std::make_unique<sim::Channel>(
      sim_, "loongserve/reshard", deployment_.gpu.nvlink_bandwidth,
      sim::Microseconds(10));
  cost_by_tp_.resize(static_cast<std::size_t>(deployment_.num_gpus) + 1);
  for (int k = 1; k <= deployment_.num_gpus; ++k) {
    cost_by_tp_[static_cast<std::size_t>(k)] = std::make_unique<llm::CostModel>(
        deployment_.model, k, deployment_.gpu);
  }
  pool_capacity_ = deployment_.PoolTokens(deployment_.num_gpus);
  decode_gpus_ = options_.min_decode_gpus;
  const int per_gpu_sms = deployment_.gpu.sm_count;
  prefill_stream_ = device_->CreateStream(
      (deployment_.num_gpus - decode_gpus_) * per_gpu_sms);
  decode_stream_ = device_->CreateStream(decode_gpus_ * per_gpu_sms);
}

LoongServeEngine::~LoongServeEngine() = default;

gpu::Kernel LoongServeEngine::GroupKernel(const gpu::Kernel& per_gpu,
                                          int k) const {
  gpu::Kernel kernel = per_gpu;
  kernel.flops *= k;  // Aggregate-device kernels carry group-total work.
  kernel.bytes *= k;
  return kernel;
}

void LoongServeEngine::Enqueue(std::unique_ptr<serve::Request> request) {
  if (FaultsEnabled()) {
    if (ShedNow(waiting_demand_ + DemandTokens(*request), pool_capacity_)) {
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
  waiting_.push_back(std::move(request));
  PumpPrefill();
}

void LoongServeEngine::OnDeadline(std::int64_t id) {
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
}

void LoongServeEngine::PumpPrefill() {
  if (DomainDown(0)) return;
  if (prefill_in_flight_ || waiting_.empty()) return;
  const int prefill_gpus = deployment_.num_gpus - decode_gpus_;
  if (prefill_gpus <= 0) return;

  std::vector<llm::SeqWork> work;
  std::int64_t batch_tokens = 0;
  while (!waiting_.empty() &&
         static_cast<int>(prefill_batch_.size()) <
             options_.prefill_batch_requests &&
         batch_tokens < options_.prefill_batch_tokens) {
    serve::Request& req = *waiting_.front();
    // No cross-request reuse: the whole input is recomputed each turn.
    const std::int64_t need =
        req.spec->input_tokens + req.spec->output_tokens;
    if (pool_used_ + need > pool_capacity_) break;
    pool_used_ += need;
    req.cached_tokens = 0;
    req.prefill_tokens = req.spec->input_tokens;
    req.reserved_tokens = need;
    req.phase = serve::Phase::kPrefill;
    req.prefill_start = sim_->Now();
    if (FaultsEnabled()) waiting_demand_ -= DemandTokens(req);
    work.push_back(llm::SeqWork{req.spec->input_tokens, 0});
    batch_tokens += req.spec->input_tokens;
    prefill_batch_.push_back(std::move(waiting_.front()));
    waiting_.pop_front();
  }
  if (prefill_batch_.empty()) return;

  prefill_in_flight_ = true;
  ++prefill_batch_serial_;
  tracer_.SpanBegin("engine/prefill", "prefill-chunk",
                    static_cast<std::int64_t>(prefill_batch_serial_),
                    static_cast<double>(work.size()));
  const llm::CostModel& cost =
      *cost_by_tp_[static_cast<std::size_t>(prefill_gpus)];
  gpu::Kernel kernel = GroupKernel(cost.PrefillPhase(work), prefill_gpus);
  device_->SetStreamSms(prefill_stream_,
                        prefill_gpus * deployment_.gpu.sm_count);
  const sim::Duration launch =
      cost.PrefillLayerLaunch() * deployment_.model.num_layers;
  // Uncancellable submissions: a crash bumps the epoch so callbacks
  // from the dead generation fall through.
  host_->Submit(launch, [this, kernel, e = epoch()] {
    if (e != epoch()) return;
    device_->Launch(prefill_stream_, kernel, [this, e] {
      if (e != epoch()) return;
      OnPrefillBatchDone();
    });
  });
}

void LoongServeEngine::OnPrefillBatchDone() {
  const sim::Time now = sim_->Now();
  prefill_in_flight_ = false;
  // One prefill batch in flight at a time: the live serial is the last.
  tracer_.SpanEnd("engine/prefill", "prefill-chunk",
                  static_cast<std::int64_t>(prefill_batch_serial_));
  // Detach the batch first: NotifyComplete can re-enter Enqueue, which
  // may start refilling prefill_batch_.
  std::vector<std::unique_ptr<serve::Request>> batch =
      std::move(prefill_batch_);
  prefill_batch_.clear();
  std::vector<std::unique_ptr<serve::Request>> completed;
  for (auto& req : batch) {
    req->EmitToken(now);
    if (req->DecodeFinished()) {
      req->phase = serve::Phase::kDone;
      req->completion = now;
      req->outcome = serve::Outcome::kCompleted;
      pool_used_ -= req->reserved_tokens;
      req->reserved_tokens = 0;
      MUX_CHECK(in_flight_ > 0);
      --in_flight_;
      completed.push_back(std::move(req));
    } else {
      req->phase = serve::Phase::kDecode;
      decoding_.push_back(std::move(req));
    }
  }
  for (auto& req : completed) NotifyComplete(std::move(req));
  MaybeStartDecodeIteration();
  PumpPrefill();
}

int LoongServeEngine::ChooseDecodeGpus(
    const std::vector<std::int64_t>& ctx) const {
  for (int k = options_.min_decode_gpus; k <= deployment_.num_gpus; ++k) {
    const llm::CostModel& cost = *cost_by_tp_[static_cast<std::size_t>(k)];
    const gpu::Kernel kernel = GroupKernel(cost.DecodeIteration(ctx), k);
    const double seconds = device_->SoloDurationSeconds(
        kernel, k * deployment_.gpu.sm_count);
    const sim::Duration total = static_cast<sim::Duration>(seconds * 1e9) +
                                cost.DecodeGraphLaunch();
    if (total <= deployment_.slo.tbt) return k;
  }
  return deployment_.num_gpus;
}

void LoongServeEngine::MaybeStartDecodeIteration() {
  if (DomainDown(0)) return;
  if (decode_in_flight_ || resharding_ || decoding_.empty()) return;

  std::vector<std::int64_t> ctx;
  ctx.reserve(decoding_.size());
  std::int64_t total_ctx = 0;
  for (const auto& req : decoding_) {
    ctx.push_back(req->spec->input_tokens + req->generated);
    total_ctx += ctx.back();
  }

  const int wanted = ChooseDecodeGpus(ctx);
  if (wanted != decode_gpus_) {
    // Elastic re-sharding: move the proportional share of decode KV.
    const double moved_bytes =
        static_cast<double>(total_ctx) * deployment_.model.KvBytesPerToken() *
        std::abs(wanted - decode_gpus_) /
        static_cast<double>(deployment_.num_gpus);
    decode_gpus_ = wanted;
    device_->SetStreamSms(decode_stream_,
                          decode_gpus_ * deployment_.gpu.sm_count);
    const int prefill_gpus =
        std::max(1, deployment_.num_gpus - decode_gpus_);
    device_->SetStreamSms(prefill_stream_,
                          prefill_gpus * deployment_.gpu.sm_count);
    resharding_ = true;
    tracer_.Instant("partition", "reshard",
                    static_cast<std::int64_t>(++reshard_serial_),
                    static_cast<double>(decode_gpus_));
    // A permanently failed re-shard resolves the same way: the group
    // re-derives its sharding on the next iteration, so both outcomes
    // just release the stall (the failure already paid its retries).
    auto resume = [this, e = epoch()] {
      if (e != epoch()) return;
      resharding_ = false;
      MaybeStartDecodeIteration();
    };
    link_->Transfer(moved_bytes, resume, resume);
    return;
  }

  decode_in_flight_ = true;
  ++decode_step_serial_;
  tracer_.SpanBegin("engine/decode", "decode-step",
                    static_cast<std::int64_t>(decode_step_serial_),
                    static_cast<double>(ctx.size()));
  const llm::CostModel& cost =
      *cost_by_tp_[static_cast<std::size_t>(decode_gpus_)];
  const gpu::Kernel kernel =
      GroupKernel(cost.DecodeIteration(ctx), decode_gpus_);
  host_->Submit(cost.DecodeGraphLaunch(), [this, kernel, e = epoch()] {
    if (e != epoch()) return;
    device_->Launch(decode_stream_, kernel, [this, e] {
      if (e != epoch()) return;
      OnDecodeIterationDone();
    });
  });
}

void LoongServeEngine::OnDecodeIterationDone() {
  decode_in_flight_ = false;
  // One decode iteration in flight at a time: the live serial is the
  // last one started.
  tracer_.SpanEnd("engine/decode", "decode-step",
                  static_cast<std::int64_t>(decode_step_serial_));
  const sim::Time now = sim_->Now();
  std::vector<std::unique_ptr<serve::Request>> still;
  std::vector<std::unique_ptr<serve::Request>> completed;
  still.reserve(decoding_.size());
  for (auto& req : decoding_) {
    req->EmitToken(now);
    if (req->DecodeFinished()) {
      req->phase = serve::Phase::kDone;
      req->completion = now;
      req->outcome = serve::Outcome::kCompleted;
      // KV released immediately — the adaptivity/reuse trade-off.
      pool_used_ -= req->reserved_tokens;
      req->reserved_tokens = 0;
      MUX_CHECK(in_flight_ > 0);
      --in_flight_;
      completed.push_back(std::move(req));
    } else {
      still.push_back(std::move(req));
    }
  }
  decoding_ = std::move(still);
  if (tracer_.enabled()) {
    tracer_.Counter("engine/decode", "decode-pending",
                    static_cast<double>(decoding_.size()));
    tracer_.Counter("kv", "used-tokens", static_cast<double>(pool_used_));
  }
  for (auto& req : completed) NotifyComplete(std::move(req));
  MaybeStartDecodeIteration();
  PumpPrefill();
}

void LoongServeEngine::InjectCrash(std::size_t domain) {
  if (domain != 0) return;
  MarkDown(0, true);
  BumpEpoch();  // Invalidate in-flight host/device/link callbacks.
  device_->AbortAll();
  prefill_in_flight_ = false;
  decode_in_flight_ = false;
  resharding_ = false;

  // Everything admitted lost its (sequence-parallel sharded) KV.
  std::vector<std::unique_ptr<serve::Request>> lost;
  for (auto& req : prefill_batch_) lost.push_back(std::move(req));
  prefill_batch_.clear();
  for (auto& req : decoding_) lost.push_back(std::move(req));
  decoding_.clear();

  std::vector<std::unique_ptr<serve::Request>> dead;
  std::vector<std::unique_ptr<serve::Request>> requeue;
  for (auto& req : lost) {
    pool_used_ -= req->reserved_tokens;
    req->reserved_tokens = 0;
    if (!PrepareRetry(*req)) {
      MarkTerminal(*req, serve::Outcome::kFailed);
      MUX_CHECK(in_flight_ > 0);
      --in_flight_;
      dead.push_back(std::move(req));
    } else if (DeadlinePassed(*req)) {
      MarkTerminal(*req, serve::Outcome::kTimedOut);
      MUX_CHECK(in_flight_ > 0);
      --in_flight_;
      dead.push_back(std::move(req));
    } else {
      waiting_demand_ += DemandTokens(*req);
      requeue.push_back(std::move(req));
    }
  }
  for (auto it = requeue.rbegin(); it != requeue.rend(); ++it) {
    waiting_.push_front(std::move(*it));
  }
  for (auto& req : dead) NotifyComplete(std::move(req));
}

void LoongServeEngine::InjectRecovery(std::size_t domain) {
  if (domain != 0) return;
  MarkDown(0, false);
  PumpPrefill();
  MaybeStartDecodeIteration();
}

void LoongServeEngine::InjectStraggler(std::size_t domain, double slowdown) {
  if (domain != 0) return;
  device_->SetSlowdown(slowdown);
}

void LoongServeEngine::AttachTracer(obs::Tracer tracer) {
  fault::FaultAwareEngine::AttachTracer(tracer);
  device_->SetTracer(tracer, "gpu/");
}

void LoongServeEngine::RegisterAudits(
    check::InvariantRegistry& registry) const {
  registry.Register(
      "LoongServeEngine", "quiescent-scheduler",
      [this](check::AuditContext& ctx) {
        ctx.Check(in_flight_ == 0, std::to_string(in_flight_) +
                                       " requests still in flight");
        ctx.Check(waiting_.empty(), "waiting queue not drained");
        ctx.Check(prefill_batch_.empty(), "prefill batch not drained");
        ctx.Check(decoding_.empty(), "decode batch not drained");
        ctx.Check(!prefill_in_flight_ && !decode_in_flight_,
                  "phase iteration still outstanding");
        ctx.Check(waiting_demand_ == 0,
                  "queued-demand accounting leaked " +
                      std::to_string(waiting_demand_) + " tokens");
      });
  registry.Register(
      "LoongServeEngine", "token-pool", [this](check::AuditContext& ctx) {
        ctx.Check(pool_used_ >= 0, "negative pool usage");
        ctx.Check(pool_used_ <= pool_capacity_,
                  "pool used " + std::to_string(pool_used_) +
                      " exceeds capacity " + std::to_string(pool_capacity_));
        ctx.Check(pool_used_ == 0,
                  "leaked " + std::to_string(pool_used_) +
                      " pool tokens at quiescence");
      });
  device_->RegisterAudits(registry);
}

}  // namespace muxwise::baselines
