#include "serve/metrics.h"

#include <algorithm>
#include <cmath>

#include "sim/logging.h"

namespace muxwise::serve {

double Percentile(std::vector<double> samples, double p) {
  std::sort(samples.begin(), samples.end());
  return PercentileSorted(samples, p);
}

LatencySummary Summarize(const std::vector<double>& samples_ms) {
  QuantileSketch sketch;
  for (double s : samples_ms) sketch.Add(s);
  return sketch.Summarize();
}

double ClassMetrics::Attainment() const {
  if (split.total() == 0) return 1.0;
  return static_cast<double>(ttft_attained) /
         static_cast<double>(split.total());
}

void MetricsCollector::OnRequestComplete(const Request& request) {
  // A request must reach a terminal state before it is reported; a
  // kRetrying request is still owned by its engine's recovery path.
  MUX_CHECK(request.outcome != Outcome::kRetrying);
  ClassMetrics& slice =
      per_class_[workload::SloClassRank(request.spec->slo_class)];
  switch (request.outcome) {
    case Outcome::kTimedOut:
      ++timed_out_;
      ++slice.split.timed_out;
      return;
    case Outcome::kShed:
      ++shed_;
      ++slice.split.shed;
      return;
    case Outcome::kFailed:
      ++failed_;
      ++slice.split.failed;
      return;
    default:
      break;  // kCompleted — and kRunning, for fault-oblivious engines.
  }
  MUX_CHECK(request.completion >= 0);
  MUX_CHECK(request.first_token >= 0);
  ++completed_;
  ++slice.split.attained;
  if (request.prefill_start >= request.arrival) {
    slice.queue_delay.Add(
        sim::ToMilliseconds(request.prefill_start - request.arrival));
  }
  output_tokens_ += request.generated;
  input_tokens_ += request.spec->input_tokens;

  const double ttft_ms = sim::ToMilliseconds(request.Ttft());
  const double e2e_ms = sim::ToMilliseconds(request.E2e());
  slice.ttft.Add(ttft_ms);
  // Attainment against the per-prompt target is judged here, while the
  // prompt length is still in hand — the sketch keeps only the TTFT
  // population, not per-request (latency, tokens) pairs.
  if (ttft_ms <=
      sim::ToMilliseconds(slo_.TtftTargetFor(request.spec->input_tokens))) {
    ++slice.ttft_attained;
  }
  ttft_.Add(ttft_ms);
  ttft_per_token_.Add(
      ttft_ms / static_cast<double>(
                    std::max<std::int64_t>(1, request.spec->input_tokens)));
  e2e_.Add(e2e_ms);
  if (e2e_ms < ttft_ms) ++e2e_before_ttft_;

  // Per-token gaps after the first token are the TBT population.
  for (std::size_t i = 1; i < request.token_times.size(); ++i) {
    tbt_.Add(sim::ToMilliseconds(request.token_times[i] -
                                 request.token_times[i - 1]));
  }
  if (request.generated > 1) {
    tpot_.Add(
        sim::ToMilliseconds(request.completion - request.first_token) /
        static_cast<double>(request.generated - 1));
  }
}

GoodputSplit MetricsCollector::Split() const {
  GoodputSplit split;
  split.attained = completed_;
  split.timed_out = timed_out_;
  split.shed = shed_;
  split.failed = failed_;
  return split;
}

double MetricsCollector::TbtAttainment(sim::Duration tbt_target) const {
  if (tbt_.empty()) return 1.0;
  const double target_ms = sim::ToMilliseconds(tbt_target);
  return tbt_.CountLessEqual(target_ms) /
         static_cast<double>(tbt_.Count());
}

bool MetricsCollector::MeetsSlo(const workload::SloTargets& slo) const {
  return TbtAttainment(slo.tbt) >= slo.percentile;
}

double MetricsCollector::TokenThroughput(sim::Time t0, sim::Time t1) const {
  const double span = sim::ToSeconds(t1 - t0);
  if (span <= 0.0) return 0.0;
  return static_cast<double>(output_tokens_ + input_tokens_) / span;
}

double MetricsCollector::RequestThroughput(sim::Time t0, sim::Time t1) const {
  const double span = sim::ToSeconds(t1 - t0);
  if (span <= 0.0) return 0.0;
  return static_cast<double>(completed_) / span;
}

void MetricsCollector::RegisterAudits(
    check::InvariantRegistry& registry) const {
  registry.Register(
      "Metrics", "latency-sanity", [this](check::AuditContext& ctx) {
        auto non_negative = [&ctx](const QuantileSketch& sketch,
                                   const char* population) {
          ctx.Check(sketch.empty() || sketch.Min() >= 0.0,
                    std::string("negative ") + population + " sample");
        };
        non_negative(ttft_, "TTFT");
        non_negative(ttft_per_token_, "TTFT-per-token");
        non_negative(tbt_, "TBT");
        non_negative(tpot_, "TPOT");
        non_negative(e2e_, "E2E");
        // OnRequestComplete compares each request's E2E against its
        // TTFT at ingest; the violation counter must have stayed zero.
        ctx.Check(e2e_before_ttft_ == 0,
                  "requests completed before their first token "
                  "(E2E < TTFT for " +
                      std::to_string(e2e_before_ttft_) + " requests)");
      });
  registry.Register(
      "Metrics", "sample-counts", [this](check::AuditContext& ctx) {
        ctx.Check(ttft_.Count() == completed_,
                  "TTFT sample count disagrees with completed requests");
        ctx.Check(e2e_.Count() == completed_,
                  "E2E sample count disagrees with completed requests");
        ctx.Check(ttft_per_token_.Count() == completed_,
                  "TTFT-per-token count disagrees with completed requests");
        ctx.Check(tpot_.Count() <= completed_,
                  "more TPOT samples than completed requests");
        ctx.Check(output_tokens_ >= 0 && input_tokens_ >= 0,
                  "negative token counters");
      });
  registry.Register(
      "Metrics", "terminal-accounting", [this](check::AuditContext& ctx) {
        // Degraded outcomes never contribute latency samples, so the
        // split's attained slice alone must carry every sample.
        const GoodputSplit split = Split();
        ctx.Check(split.attained == completed_,
                  "attained slice disagrees with completed counter");
        ctx.Check(split.total() == notified(),
                  "goodput split loses requests: " +
                      std::to_string(split.total()) + " split vs " +
                      std::to_string(notified()) + " notified");
        // The per-class slices partition the aggregate split exactly.
        std::size_t class_total = 0;
        std::size_t class_attained = 0;
        for (const ClassMetrics& slice : per_class_) {
          class_total += slice.split.total();
          class_attained += slice.split.attained;
          ctx.Check(slice.ttft.Count() == slice.split.attained,
                    "class TTFT population disagrees with its split");
          ctx.Check(slice.queue_delay.Count() <= slice.split.attained,
                    "more class queue-delay samples than attained");
          ctx.Check(slice.ttft_attained <= slice.ttft.Count(),
                    "more attained TTFTs than TTFT samples");
        }
        ctx.Check(class_total == notified(),
                  "per-class splits lose requests");
        ctx.Check(class_attained == completed_,
                  "per-class attained disagrees with aggregate");
      });
}

}  // namespace muxwise::serve
