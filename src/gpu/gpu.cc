#include "gpu/gpu.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "sim/hash.h"
#include "sim/logging.h"

namespace muxwise::gpu {

namespace {

/** Minimum modeled kernel duration (tail/wave quantization). */
constexpr sim::Duration kMinKernelTime = sim::Microseconds(2);

/** Coarse log2 bucket of a positive quantity (0 for <= 0). */
int Log2Bucket(double x) {
  if (x <= 1.0) return 0;
  return static_cast<int>(std::log2(x));
}

}  // namespace

double StreamStats::BubbleRatio() const {
  if (first_activity >= last_activity) return 0.0;
  const double window = static_cast<double>(last_activity - first_activity);
  const double idle = window - static_cast<double>(busy_time);
  return std::max(0.0, idle / window);
}

Gpu::Gpu(sim::Simulator* simulator, GpuSpec spec, sim::Domain domain)
    : sim_(simulator), spec_(std::move(spec)), domain_(domain) {
  MUX_CHECK(sim_ != nullptr);
  MUX_CHECK(spec_.sm_count > 0);
}

StreamId Gpu::CreateStream(int sms) {
  MUX_CHECK(sms > 0 && sms <= spec_.sm_count);
  Stream stream;
  stream.sms = sms;
  streams_.push_back(std::move(stream));
  return static_cast<StreamId>(streams_.size()) - 1;
}

Gpu::Stream& Gpu::GetStream(StreamId id) {
  MUX_CHECK(id >= 0 && static_cast<std::size_t>(id) < streams_.size());
  return streams_[static_cast<std::size_t>(id)];
}

const Gpu::Stream& Gpu::GetStream(StreamId id) const {
  MUX_CHECK(id >= 0 && static_cast<std::size_t>(id) < streams_.size());
  return streams_[static_cast<std::size_t>(id)];
}

void Gpu::SetStreamSms(StreamId stream, int sms) {
  MUX_CHECK(sms > 0 && sms <= spec_.sm_count);
  GetStream(stream).sms = sms;
}

int Gpu::StreamSms(StreamId stream) const { return GetStream(stream).sms; }

void Gpu::Launch(StreamId stream, Kernel kernel, Callback on_complete) {
  Stream& s = GetStream(stream);
  CallbackChain chain;
  if (on_complete) chain.Add(std::move(on_complete));
  if (!s.running.has_value() && s.queue.empty()) {
    // An idle stream starts the kernel at once; only a busy one queues.
    Start(stream, std::move(kernel), std::move(chain));
    return;
  }
  s.queue.push_back(QueuedKernel{std::move(kernel), std::move(chain)});
  TryStart(stream);
}

void Gpu::OnStreamDrained(StreamId stream, Callback fn) {
  MUX_CHECK(fn != nullptr);
  Stream& s = GetStream(stream);
  if (!s.queue.empty()) {
    s.queue.back().on_complete.Add(std::move(fn));
  } else if (s.running.has_value()) {
    s.running->on_complete.Add(std::move(fn));
  } else {
    sim_->ScheduleAfter(0, domain_, std::move(fn));
  }
}

bool Gpu::StreamIdle(StreamId stream) const {
  const Stream& s = GetStream(stream);
  return !s.running.has_value() && s.queue.empty();
}

std::size_t Gpu::StreamQueueDepth(StreamId stream) const {
  return GetStream(stream).queue.size();
}

const StreamStats& Gpu::stream_stats(StreamId stream) const {
  return GetStream(stream).stats;
}

void Gpu::SetTracer(obs::Tracer tracer, std::string track_prefix) {
  tracer_ = tracer;
  track_prefix_ = std::move(track_prefix);
  // Label caches bind to a recorder's intern tables; drop them so the
  // next emit re-interns against the new recorder.
  for (Stream& s : streams_) s.track_label = kLabelUnset;
  kernel_name_label_ = kLabelUnset;
  hbm_name_label_ = kLabelUnset;
  abort_name_label_ = kLabelUnset;
}

std::string Gpu::StreamTrack(StreamId id) const {
  return track_prefix_ + "s" + std::to_string(id);
}

std::uint32_t Gpu::TrackLabel(StreamId id) {
  Stream& s = GetStream(id);
  if (s.track_label == kLabelUnset) {
    s.track_label = tracer_.recorder()->InternTrack(StreamTrack(id));
  }
  return s.track_label;
}

std::uint32_t Gpu::NameLabel(std::uint32_t* cache, std::string_view name) {
  if (*cache == kLabelUnset) {
    *cache = tracer_.recorder()->InternName(name);
  }
  return *cache;
}

void Gpu::MarkActive(StreamId id) {
  const auto it =
      std::lower_bound(active_streams_.begin(), active_streams_.end(), id);
  MUX_CHECK(it == active_streams_.end() || *it != id);
  active_streams_.insert(it, id);
}

void Gpu::MarkIdle(StreamId id) {
  const auto it =
      std::lower_bound(active_streams_.begin(), active_streams_.end(), id);
  MUX_CHECK(it != active_streams_.end() && *it == id);
  active_streams_.erase(it);
}

int Gpu::BusySms() const {
  int busy_sms = 0;
  for (const StreamId id : active_streams_) {
    busy_sms += streams_[static_cast<std::size_t>(id)].running->granted_sms;
  }
  return std::min(busy_sms, spec_.sm_count);
}

double Gpu::SmUtilizationIntegral() const {
  // Include the un-flushed tail up to now.
  double extra = 0.0;
  const double dt = static_cast<double>(sim_->Now() - integral_updated_at_);
  if (dt > 0.0) extra = dt * BusySms() / spec_.sm_count;
  return sm_utilization_integral_ + extra;
}

double Gpu::BusyTimeIntegral() const {
  double extra = 0.0;
  const double dt = static_cast<double>(sim_->Now() - integral_updated_at_);
  if (dt > 0.0 && !active_streams_.empty()) extra = dt;
  return busy_time_integral_ + extra;
}

double Gpu::ComputeTimeSeconds(const Kernel& kernel, int sms) const {
  MUX_CHECK(sms > 0);
  return GemmSeconds(kernel, sms) +
         StreamedSeconds(kernel.stream_flops, StreamDivisor(kernel, sms));
}

double Gpu::GemmSeconds(const Kernel& kernel, int sms) const {
  if (kernel.flops <= 0.0) return 0.0;
  double efficiency;
  if (kernel.work_items > 0.0 && kernel.saturation_half_items > 0.0) {
    // GEMM saturation by activation rows (tokens).
    efficiency = kernel.peak_efficiency * kernel.work_items /
                 (kernel.work_items + kernel.saturation_half_items);
  } else {
    const double work_per_sm = kernel.flops / sms;
    efficiency = kernel.peak_efficiency * work_per_sm /
                 (work_per_sm + kernel.saturation_half_flops_per_sm);
  }
  return kernel.flops / (sms * spec_.flops_per_sm * efficiency);
}

double Gpu::StreamDivisor(const Kernel& kernel, int sms) const {
  return sms * spec_.flops_per_sm * kernel.stream_efficiency;
}

double Gpu::StreamedSeconds(double stream_flops, double divisor) {
  return stream_flops > 0.0 ? stream_flops / divisor : 0.0;
}

double Gpu::SoloDurationSeconds(const Kernel& kernel, int sms) const {
  const double compute = ComputeTimeSeconds(kernel, sms);
  const double bandwidth = spec_.BandwidthCap(sms);
  const double memory = kernel.bytes > 0.0 ? kernel.bytes / bandwidth : 0.0;
  return std::max(compute, memory) +
         kernel.overlap_alpha * std::min(compute, memory) +
         sim::ToSeconds(kernel.fixed_time);
}

void Gpu::AdvanceIntegrals() { AccrueIntegrals(sim_->Now(), BusySms()); }

void Gpu::AccrueIntegrals(sim::Time until, int busy_sms) {
  const double dt = static_cast<double>(until - integral_updated_at_);
  if (dt > 0.0) {
    sm_utilization_integral_ += dt * busy_sms / spec_.sm_count;
    // Every grant is at least one SM, so busy_sms > 0 iff a kernel runs.
    if (busy_sms > 0) busy_time_integral_ += dt;
  }
  integral_updated_at_ = until;
}

bool Gpu::TryStart(StreamId id) {
  Stream& s = GetStream(id);
  if (s.running.has_value() || s.queue.empty()) return false;
  QueuedKernel next = std::move(s.queue.front());
  s.queue.pop_front();
  Start(id, std::move(next.kernel), std::move(next.on_complete));
  return true;
}

void Gpu::Start(StreamId id, Kernel kernel, CallbackChain on_complete) {
  Stream& s = GetStream(id);
  AdvanceIntegrals();

  RunningKernel run;
  run.kernel = std::move(kernel);
  run.on_complete = std::move(on_complete);
  run.serial = next_kernel_serial_++;
  run.granted_sms = s.sms;
  run.fraction_done = 0.0;
  run.last_update = sim_->Now();
  run.current_total = 0;  // Assigned by Rerate().
  s.running = std::move(run);
  MarkActive(id);

  if (tracer_.enabled()) {
    tracer_.SpanBegin(
        obs::SpanLabel{TrackLabel(id), NameLabel(&kernel_name_label_, "kernel")},
        static_cast<std::int64_t>(s.running->serial),
        static_cast<double>(s.running->granted_sms));
  }

  s.stats.first_activity = std::min(s.stats.first_activity, sim_->Now());
  Rerate();
}

void Gpu::Complete(StreamId id) {
  Stream& s = GetStream(id);
  MUX_CHECK(s.running.has_value());
  AdvanceIntegrals();

  RunningKernel finished = std::move(*s.running);
  s.running.reset();
  MarkIdle(id);
  // Rerate() already accrued busy time up to the last re-rating point;
  // account for the final uninterrupted stretch here.
  s.stats.busy_time += sim_->Now() - finished.last_update;
  s.stats.last_activity = sim_->Now();
  ++s.stats.kernels_completed;
  ++kernels_completed_;

  if (tracer_.enabled()) {
    tracer_.SpanEnd(
        obs::SpanLabel{TrackLabel(id), NameLabel(&kernel_name_label_, "kernel")},
        static_cast<std::int64_t>(finished.serial));
  }

  // Start the next kernel on this stream (which re-rates everyone), or
  // re-rate the streams still running.
  if (!TryStart(id)) Rerate();

  finished.on_complete.Invoke();
}

double Gpu::InterferenceFactor() {
  if (active_streams_.size() < 2) return 0.0;
  // Deterministic but configuration-dependent: hash the multiset of
  // (kind, SM-grant bucket, byte-volume bucket) descriptors. The serving
  // layer cannot query this; it must be learned by profiling, mirroring
  // the unmanaged memory-bandwidth contention of real GPUs (paper §3.3.1).
  std::uint64_t h = 0x243f6a8885a308d3ULL;
  std::vector<std::uint64_t>& parts = parts_scratch_;
  parts.clear();
  for (const StreamId id : active_streams_) {
    const RunningKernel& run = *streams_[static_cast<std::size_t>(id)].running;
    const int grain = std::max(1, spec_.partition_granularity);
    std::uint64_t p = static_cast<std::uint64_t>(run.kernel.kind);
    p = p * 1315423911ULL + static_cast<std::uint64_t>(run.granted_sms / grain);
    p = p * 1315423911ULL +
        static_cast<std::uint64_t>(Log2Bucket(run.kernel.bytes));
    p = p * 1315423911ULL +
        static_cast<std::uint64_t>(Log2Bucket(run.kernel.flops));
    parts.push_back(sim::SplitMix64Finalize(p));
  }
  std::sort(parts.begin(), parts.end());  // Order-independent.
  for (std::uint64_t p : parts) h = sim::SplitMix64Finalize(h ^ p);
  const double u =
      static_cast<double>(h >> 11) / static_cast<double>(1ULL << 53);
  return spec_.max_interference * 0.7 * u;
}

void Gpu::Rerate() {
  AdvanceIntegrals();
  const sim::Time now = sim_->Now();

  if (active_streams_.empty()) return;
  if (frozen_) {
    // Zombie freeze: bank each running kernel's progress under the old
    // rate, then stop its clock — cancel the completion and zero
    // current_total, so the thaw-time Rerate advances nothing across
    // the frozen span and reschedules from the banked fraction.
    for (const StreamId id : active_streams_) {
      Stream& s = streams_[static_cast<std::size_t>(id)];
      RunningKernel& run = *s.running;
      if (run.current_total > 0) {
        const double elapsed = static_cast<double>(now - run.last_update);
        run.fraction_done = std::min(
            1.0,
            run.fraction_done + elapsed / static_cast<double>(run.current_total));
        s.stats.busy_time += now - run.last_update;
      }
      run.last_update = now;
      run.current_total = 0;
      if (run.completion != sim::kInvalidEventId) {
        sim_->Cancel(run.completion);
        run.completion = sim::kInvalidEventId;
      }
    }
    return;
  }
  int total_granted = 0;
  for (const StreamId id : active_streams_) {
    total_granted += streams_[static_cast<std::size_t>(id)].running->granted_sms;
  }

  // Oversubscription (no partition management): scale effective SMs.
  const double sm_scale =
      total_granted > spec_.sm_count
          ? static_cast<double>(spec_.sm_count) / total_granted
          : 1.0;

  double pool = BandwidthPool(InterferenceFactor(), sm_scale);

  // First pass: advance progress and compute demands.
  std::vector<Rated>& rated = rated_scratch_;
  rated.clear();
  for (const StreamId id : active_streams_) {
    Stream& s = streams_[static_cast<std::size_t>(id)];
    RunningKernel& run = *s.running;
    // Advance fractional progress under the old rate.
    if (run.current_total > 0) {
      const double elapsed = static_cast<double>(now - run.last_update);
      run.fraction_done = std::min(
          1.0, run.fraction_done + elapsed / static_cast<double>(run.current_total));
      s.stats.busy_time += now - run.last_update;
    }
    run.last_update = now;

    const int eff_sms = std::max(
        1, static_cast<int>(std::floor(run.granted_sms * sm_scale)));
    rated.push_back(RateKernel(id, run.kernel, eff_sms));
  }

  // Max-min bandwidth allocation within the (interference-shrunk) pool.
  std::sort(rated.begin(), rated.end(),
            [](const Rated& a, const Rated& b) { return a.demand < b.demand; });
  std::size_t remaining = rated.size();
  for (Rated& r : rated) {
    const double fair = pool / static_cast<double>(remaining);
    r.alloc = std::min(r.demand, fair);
    pool -= r.alloc;
    --remaining;
  }

  // Second pass: derive durations and (re)schedule completions.
  for (const Rated& r : rated) {
    Stream& s = streams_[static_cast<std::size_t>(r.id)];
    RunningKernel& run = *s.running;
    if (tracer_.enabled()) {
      tracer_.Counter(
          obs::SpanLabel{TrackLabel(r.id), NameLabel(&hbm_name_label_, "hbm-share")},
          r.alloc);
    }
    run.current_total = KernelTotal(run.kernel, r);
    const double left = std::max(0.0, 1.0 - run.fraction_done);
    const sim::Duration time_left = std::max<sim::Duration>(
        1, static_cast<sim::Duration>(left * static_cast<double>(run.current_total)));
    if (run.completion != sim::kInvalidEventId) sim_->Cancel(run.completion);
    const StreamId id = r.id;
    run.completion = sim_->ScheduleAfter(time_left, domain_,
                                         [this, id] { Complete(id); });
  }
}

Gpu::Rated Gpu::RateKernel(StreamId id, const Kernel& kernel,
                           int eff_sms) const {
  return Demand(id, kernel, ComputeTimeSeconds(kernel, eff_sms) / degrade_flops_,
                spec_.BandwidthCap(eff_sms) * degrade_bandwidth_);
}

Gpu::Rated Gpu::Demand(StreamId id, const Kernel& kernel,
                       double compute_seconds, double cap) {
  Rated r;
  r.id = id;
  r.compute_seconds = compute_seconds;
  if (kernel.bytes <= 0.0) {
    r.demand = 0.0;
  } else if (r.compute_seconds <= 0.0) {
    r.demand = cap;  // Pure memory mover: takes whatever it can.
  } else {
    r.demand = std::min(kernel.bytes / r.compute_seconds, cap);
  }
  return r;
}

double Gpu::BandwidthPool(double interference, double sm_scale) const {
  double pool = spec_.hbm_bandwidth * degrade_bandwidth_ * (1.0 - interference);
  // Unmanaged SM oversubscription (plain streams, no green contexts)
  // interleaves thread blocks of unrelated kernels, thrashing caches:
  // effective bandwidth drops beyond the fair-share loss. Managed
  // partitions never oversubscribe, so this penalizes only engines
  // that skip partition management (WindServe-style, §6).
  if (sm_scale < 1.0) {
    pool *= 1.0 - 0.4 * (1.0 - sm_scale);
  }
  return pool;
}

sim::Duration Gpu::KernelTotal(const Kernel& kernel, const Rated& r) const {
  const double memory_seconds =
      (kernel.bytes > 0.0 && r.alloc > 0.0)
          ? kernel.bytes / r.alloc
          : (kernel.bytes > 0.0 ? 1e9 : 0.0);
  const double seconds =
      (std::max(r.compute_seconds, memory_seconds) +
       kernel.overlap_alpha * std::min(r.compute_seconds, memory_seconds) +
       sim::ToSeconds(kernel.fixed_time)) *
      slowdown_;
  return std::max(kMinKernelTime, static_cast<sim::Duration>(seconds * 1e9));
}

std::optional<Gpu::AloneClock> Gpu::AloneClockFor(StreamId stream,
                                                 const Kernel& shape) const {
  const Stream& s = GetStream(stream);
  if (frozen_ || !active_streams_.empty() || !s.queue.empty()) {
    return std::nullopt;
  }
  // Rerate with one active stream: no interference, so the pool is not
  // shrunk; a grant never exceeds the device, so SMs are not scaled; and
  // max-min arbitration over one kernel offers it the whole pool.
  MUX_CHECK(s.sms > 0);
  AloneClock clock;
  clock.gpu_ = this;
  clock.stream_ = stream;
  clock.gemm_seconds_ = GemmSeconds(shape, s.sms);
  clock.stream_divisor_ = StreamDivisor(shape, s.sms);
  clock.flops_factor_ = degrade_flops_;
  clock.cap_ = spec_.BandwidthCap(s.sms) * degrade_bandwidth_;
  clock.pool_ = BandwidthPool(0.0, 1.0);
  return clock;
}

Gpu::Rated Gpu::AloneClock::Rate(const Kernel& kernel) const {
  // ComputeTimeSeconds and RateKernel, with the shape's terms held.
  Rated r = Demand(stream_, kernel,
                   (gemm_seconds_ +
                    StreamedSeconds(kernel.stream_flops, stream_divisor_)) /
                       flops_factor_,
                   cap_);
  r.alloc = std::min(r.demand, pool_);
  return r;
}

Gpu::Priced Gpu::AloneClock::Price(const Kernel& kernel,
                                   sim::Time start) const {
  // A fresh kernel has no progress to keep (Rerate's `left` is 1), so
  // its time left is its whole duration.
  const Rated r = Rate(kernel);
  return Priced{start, start + gpu_->KernelTotal(kernel, r), r.alloc};
}

sim::Time Gpu::AloneCompletion(StreamId stream, const Kernel& kernel,
                               sim::Time start) const {
  const std::optional<AloneClock> clock = AloneClockFor(stream, kernel);
  return clock ? clock->Price(kernel, start).end : sim::kTimeNever;
}

void Gpu::RunPriced(StreamId id, std::span<const Priced> run) {
  Stream& s = GetStream(id);
  MUX_CHECK(!frozen_ && active_streams_.empty() && s.queue.empty());
  MUX_CHECK(!run.empty() && run.back().end <= sim_->Now());
  if (!tracer_.enabled()) {
    AccountPriced(s, run);
    return;
  }
  // One kernel at a time, so each trace event keeps its place.
  for (const Priced& kernel : run) {
    const auto serial = static_cast<std::int64_t>(next_kernel_serial_);
    const obs::SpanLabel span{TrackLabel(id),
                              NameLabel(&kernel_name_label_, "kernel")};
    const obs::Tracer at_start = tracer_.At(kernel.start);
    at_start.SpanBegin(span, serial, static_cast<double>(s.sms));
    at_start.Counter(
        obs::SpanLabel{TrackLabel(id), NameLabel(&hbm_name_label_, "hbm-share")},
        kernel.hbm_share);
    AccountPriced(s, std::span(&kernel, 1));
    tracer_.At(kernel.end).SpanEnd(span, serial);
  }
}

void Gpu::Adopt(StreamId id, Kernel kernel, const Priced& priced,
                Callback on_complete, sim::EventId place) {
  Stream& s = GetStream(id);
  MUX_CHECK(!frozen_ && active_streams_.empty() && s.queue.empty());
  MUX_CHECK(priced.start < sim_->Now() && sim_->Now() <= priced.end);
  MUX_CHECK(integral_updated_at_ <= priced.start);
  // Start's bookkeeping at priced.start: the idle gap before it adds
  // nothing busy, and Rerate gives a lone kernel the duration it was
  // priced at, with no progress yet.
  AccrueIntegrals(priced.start, 0);
  RunningKernel run;
  run.kernel = std::move(kernel);
  run.on_complete.Add(std::move(on_complete));
  run.serial = next_kernel_serial_++;
  run.granted_sms = s.sms;
  run.last_update = priced.start;
  run.current_total = priced.end - priced.start;
  run.completion = sim_->Replace(place, priced.end, domain_,
                                 [this, id] { Complete(id); });
  s.running = std::move(run);
  MarkActive(id);
  s.stats.first_activity = std::min(s.stats.first_activity, priced.start);
  if (tracer_.enabled()) {
    const obs::Tracer at_start = tracer_.At(priced.start);
    at_start.SpanBegin(
        obs::SpanLabel{TrackLabel(id), NameLabel(&kernel_name_label_, "kernel")},
        static_cast<std::int64_t>(s.running->serial),
        static_cast<double>(s.running->granted_sms));
    at_start.Counter(
        obs::SpanLabel{TrackLabel(id), NameLabel(&hbm_name_label_, "hbm-share")},
        priced.hbm_share);
  }
}

void Gpu::AccountPriced(Stream& s, std::span<const Priced> run) {
  // What AccrueIntegrals adds kernel by kernel. The idle gap before each
  // kernel adds +0.0 to the utilization integral, which leaves it as it
  // is. The kernel holds the stream's grant alone for dt, adding
  // dt * sms / sm_count; on a full-device grant that is dt exactly, as
  // dt * sm_count is an integer below 2^53. Each dt is still added in
  // order, so both integrals round as they do under Launch.
  const bool whole_device = s.sms == spec_.sm_count;
  double sm_integral = sm_utilization_integral_;
  double busy_integral = busy_time_integral_;
  sim::Duration busy = 0;
  sim::Time last_end = integral_updated_at_;
  for (const Priced& kernel : run) {
    MUX_CHECK(last_end <= kernel.start && kernel.start <= kernel.end);
    const sim::Duration d = kernel.end - kernel.start;
    const double dt = static_cast<double>(d);
    sm_integral += whole_device ? dt : dt * s.sms / spec_.sm_count;
    busy_integral += dt;
    busy += d;
    last_end = kernel.end;
  }
  sm_utilization_integral_ = sm_integral;
  busy_time_integral_ = busy_integral;
  integral_updated_at_ = last_end;
  next_kernel_serial_ += run.size();
  s.stats.first_activity = std::min(s.stats.first_activity, run.front().start);
  s.stats.busy_time += busy;
  s.stats.last_activity = last_end;
  s.stats.kernels_completed += run.size();
  kernels_completed_ += run.size();
}

void Gpu::SetSlowdown(double factor) {
  MUX_CHECK(factor >= 1.0);
  if (factor == slowdown_) return;
  slowdown_ = factor;
  Rerate();  // Running kernels stretch (or recover) immediately.
}

void Gpu::SetFrozen(bool frozen) {
  if (frozen == frozen_) return;
  frozen_ = frozen;
  // Freeze banks progress and cancels completions; thaw re-rates from
  // the banked fractions and reschedules them.
  Rerate();
}

void Gpu::SetDegrade(double flops_factor, double bandwidth_factor) {
  MUX_CHECK(flops_factor > 0.0 && flops_factor <= 1.0);
  MUX_CHECK(bandwidth_factor > 0.0 && bandwidth_factor <= 1.0);
  if (flops_factor == degrade_flops_ &&
      bandwidth_factor == degrade_bandwidth_) {
    return;
  }
  degrade_flops_ = flops_factor;
  degrade_bandwidth_ = bandwidth_factor;
  Rerate();  // Running kernels re-rate under the degraded roofline.
}

std::size_t Gpu::AbortAll() {
  AdvanceIntegrals();
  const sim::Time now = sim_->Now();
  std::size_t aborted = 0;
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    Stream& s = streams_[i];
    if (s.running.has_value()) {
      if (s.running->completion != sim::kInvalidEventId) {
        sim_->Cancel(s.running->completion);
      }
      // The partial execution still occupied the stream.
      s.stats.busy_time += now - s.running->last_update;
      s.stats.last_activity = now;
      if (tracer_.enabled()) {
        const auto id = static_cast<StreamId>(i);
        const auto serial = static_cast<std::int64_t>(s.running->serial);
        tracer_.SpanEnd(
            obs::SpanLabel{TrackLabel(id),
                           NameLabel(&kernel_name_label_, "kernel")},
            serial);
        tracer_.Instant(
            obs::SpanLabel{TrackLabel(id),
                           NameLabel(&abort_name_label_, "kernel-abort")},
            serial);
      }
      s.running.reset();
      ++aborted;
    }
    aborted += s.queue.size();
    s.queue.clear();
  }
  active_streams_.clear();
  kernels_aborted_ += aborted;
  return aborted;
}

void Gpu::RegisterAudits(check::InvariantRegistry& registry) const {
  registry.Register(
      "Gpu", "stream-partitions", [this](check::AuditContext& ctx) {
        for (std::size_t i = 0; i < streams_.size(); ++i) {
          const Stream& s = streams_[i];
          ctx.Check(s.sms >= 1 && s.sms <= spec_.sm_count,
                    "stream " + std::to_string(i) + " SM grant " +
                        std::to_string(s.sms) + " outside [1, " +
                        std::to_string(spec_.sm_count) + "]");
        }
      });
  registry.Register(
      "Gpu", "stream-accounting", [this](check::AuditContext& ctx) {
        std::size_t completed = 0;
        for (std::size_t i = 0; i < streams_.size(); ++i) {
          const StreamStats& stats = streams_[i].stats;
          const std::string label = "stream " + std::to_string(i) + " ";
          ctx.Check(stats.busy_time >= 0, label + "negative busy time");
          completed += stats.kernels_completed;
          if (stats.kernels_completed == 0) continue;
          ctx.Check(stats.first_activity <= stats.last_activity,
                    label + "activity window inverted");
          ctx.Check(stats.busy_time <=
                        stats.last_activity - stats.first_activity,
                    label + "busy time exceeds its activity window");
        }
        ctx.Check(completed == kernels_completed_,
                  "per-stream kernel counts sum to " +
                      std::to_string(completed) + ", device counted " +
                      std::to_string(kernels_completed_));
      });
  registry.Register(
      "Gpu", "active-stream-index", [this](check::AuditContext& ctx) {
        // The sorted active-stream index must hold exactly the streams
        // with a running kernel; Rerate and the utilization integrals
        // trust it instead of scanning every stream.
        std::vector<StreamId> expect;
        for (std::size_t i = 0; i < streams_.size(); ++i) {
          if (streams_[i].running.has_value()) {
            expect.push_back(static_cast<StreamId>(i));
          }
        }
        ctx.Check(expect == active_streams_,
                  "active-stream index holds " +
                      std::to_string(active_streams_.size()) +
                      " streams, device scan finds " +
                      std::to_string(expect.size()) + " running kernels");
      });
}

}  // namespace muxwise::gpu
