#include "core/multiplex_engine.h"

#include <algorithm>
#include <utility>

#include "sim/logging.h"

namespace muxwise::core {

MultiplexEngine::MultiplexEngine(sim::Simulator* simulator,
                                 const serve::Deployment& deployment,
                                 Options options, sim::Domain domain)
    : sim_(simulator),
      deployment_(deployment),
      options_(options),
      domain_(domain) {
  device_ = std::make_unique<gpu::Gpu>(sim_, deployment_.gpu, domain);
  host_ = std::make_unique<gpu::HostThread>(sim_, domain);
  const int total = deployment_.gpu.sm_count;
  // Initial split; the dispatcher reconfigures before the first launch.
  decode_sms_ = total / 2 / deployment_.gpu.partition_granularity *
                deployment_.gpu.partition_granularity;
  if (decode_sms_ == 0) decode_sms_ = total;
  prefill_sms_ = total - decode_sms_;
  if (prefill_sms_ == 0) prefill_sms_ = total;

  decode_stream_ = device_->CreateStream(
      options_.mode == Mode::kSpatial ? decode_sms_ : total);
  prefill_stream_ = device_->CreateStream(
      options_.mode == Mode::kSpatial ? prefill_sms_ : total);
}

void MultiplexEngine::SetPartition(int decode_sms, int prefill_sms) {
  if (options_.mode != Mode::kSpatial) return;
  MUX_CHECK(decode_sms > 0 && prefill_sms > 0);
  if (decode_sms == decode_sms_ && prefill_sms == prefill_sms_) return;
  decode_sms_ = decode_sms;
  prefill_sms_ = prefill_sms;
  device_->SetStreamSms(decode_stream_, decode_sms_);
  device_->SetStreamSms(prefill_stream_, prefill_sms_);
  host_->Submit(options_.reconfig_cost, nullptr);
  ++reconfigurations_;
  // Traced as a retroactive complete span rather than a callback on the
  // host submission above: attaching a tracer must not add simulator
  // events, and the reconfiguration window is fully modelled anyway.
  tracer_.Complete("partition", "reconfig",
                   static_cast<std::int64_t>(reconfigurations_), sim_->Now(),
                   options_.reconfig_cost);
  TracePartition();
}

void MultiplexEngine::AttachTracer(obs::Tracer tracer) {
  tracer_ = tracer;
  device_->SetTracer(tracer, "gpu/");
  TracePartition();
}

void MultiplexEngine::TracePartition() const {
  if (!tracer_.enabled()) return;
  tracer_.Counter("partition", "decode-sms",
                  static_cast<double>(device_->StreamSms(decode_stream_)));
  tracer_.Counter("partition", "prefill-sms",
                  static_cast<double>(device_->StreamSms(prefill_stream_)));
}

void MultiplexEngine::LaunchDecode(const gpu::Kernel& kernel,
                                   sim::Duration launch_cost,
                                   std::function<void()> done) {
  SubmitLaunch(decode_stream_, kernel, launch_cost, std::move(done));
}

std::optional<gpu::Gpu::AloneClock> MultiplexEngine::DecodeAloneClock(
    const gpu::Kernel& shape) const {
  if (!launches_.empty()) return std::nullopt;
  return device_->AloneClockFor(decode_stream_, shape);
}

sim::Time MultiplexEngine::DecodeLaunchStart(sim::Duration launch_cost) const {
  // Where SubmitLaunch's host callback would start the kernel.
  return std::max(sim_->Now(), host_->busy_until()) + launch_cost;
}

void MultiplexEngine::RunDecodes(std::span<const gpu::Gpu::Priced> run,
                                 sim::Duration launch_cost) {
  // Each launch completes on the host as its kernel starts.
  host_->SubmitRun(run.size(), launch_cost, run.back().start);
  device_->RunPriced(decode_stream_, run);
}

void MultiplexEngine::AdoptDecode(const gpu::Kernel& kernel,
                                  sim::Duration launch_cost,
                                  const gpu::Gpu::Priced& priced,
                                  std::function<void()> done,
                                  sim::EventId place) {
  MUX_CHECK(launches_.empty());
  host_->SubmitRun(1, launch_cost, priced.start);
  if (priced.start < sim_->Now()) {
    device_->Adopt(decode_stream_, kernel, priced, std::move(done), place);
    return;
  }
  // Submit's callback, due where the host finishes the launch.
  launches_.push_back(PendingLaunch{decode_stream_, kernel, std::move(done)});
  sim_->Replace(place, priced.start, domain_, StartPendingLaunch());
}

void MultiplexEngine::LaunchPrefillGroup(const gpu::Kernel& kernel,
                                         sim::Duration launch_cost,
                                         std::function<void()> done) {
  const gpu::StreamId stream = options_.mode == Mode::kTemporal
                                   ? decode_stream_
                                   : prefill_stream_;
  SubmitLaunch(stream, kernel, launch_cost, std::move(done));
}

void MultiplexEngine::SubmitLaunch(gpu::StreamId stream,
                                   const gpu::Kernel& kernel,
                                   sim::Duration launch_cost,
                                   std::function<void()> done) {
  launches_.push_back(PendingLaunch{stream, kernel, std::move(done)});
  host_->Submit(launch_cost, StartPendingLaunch());
}

std::function<void()> MultiplexEngine::StartPendingLaunch() {
  return [this, e = epoch_] {
    if (e != epoch_) return;  // Abort() already dropped the launch.
    PendingLaunch next = std::move(launches_.front());
    launches_.erase(launches_.begin());
    device_->Launch(next.stream, next.kernel, std::move(next.done));
  };
}

void MultiplexEngine::Abort() {
  ++epoch_;
  launches_.clear();
  device_->AbortAll();
}

double MultiplexEngine::AverageBubbleRatio() const {
  const double d = device_->stream_stats(decode_stream_).BubbleRatio();
  if (options_.mode == Mode::kTemporal) return d;
  const double p = device_->stream_stats(prefill_stream_).BubbleRatio();
  return (d + p) / 2.0;
}

void MultiplexEngine::RegisterAudits(check::InvariantRegistry& registry) const {
  registry.Register(
      "MultiplexEngine", "partition-conservation",
      [this](check::AuditContext& ctx) {
        if (options_.mode != Mode::kSpatial) return;
        const int total = device_->spec().sm_count;
        ctx.Check(decode_sms_ > 0 && prefill_sms_ > 0,
                  "spatial partition with an empty green context");
        // When no prefill is runnable the scheduler parks decode on the
        // full device and the prefill context keeps a minimum-size mask
        // it never launches on (green-context masks may overlap while
        // one context is idle). Conservation must hold whenever the
        // prefill context could actually execute.
        const bool prefill_parked =
            decode_sms_ == total && device_->StreamIdle(prefill_stream_);
        // The mirror state: decode terminated mid-prefill (bubble
        // type 2), the later prefill layers moved to a full-device
        // context, and no decode ran afterwards (e.g. the final
        // request needed zero decode iterations).
        const bool decode_parked =
            prefill_sms_ == total && device_->StreamIdle(decode_stream_);
        ctx.Check(
            decode_sms_ + prefill_sms_ <= total || prefill_parked ||
                decode_parked,
                  "partition " + std::to_string(decode_sms_) + "+" +
                      std::to_string(prefill_sms_) + " oversubscribes " +
                      std::to_string(total) + " SMs with prefill runnable");
        // The streams must still carry exactly the partition the engine
        // believes it configured (reconfigurations are not lost).
        ctx.Check(device_->StreamSms(decode_stream_) == decode_sms_,
                  "decode stream grant drifted from configured partition");
        ctx.Check(device_->StreamSms(prefill_stream_) == prefill_sms_,
                  "prefill stream grant drifted from configured partition");
      });
  device_->RegisterAudits(registry);
}

}  // namespace muxwise::core
