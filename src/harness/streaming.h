#ifndef MUXWISE_HARNESS_STREAMING_H_
#define MUXWISE_HARNESS_STREAMING_H_

#include <cstdint>

#include "harness/runner.h"

namespace muxwise::harness {

/** Clamped-exponential token-length distribution for synthetic streams:
 * min + Exp(mean - min), truncated at max. */
struct StreamingLengths {
  std::int64_t min = 8;
  double mean = 32.0;
  std::int64_t max = 128;
};

/**
 * A million-request-scale synthetic workload, generated lazily: the
 * driver holds ONE pending arrival event and the in-flight request
 * specs — never the whole trace — so memory is O(in-flight), not
 * O(total_requests). Requests are single-turn with Poisson arrivals;
 * lengths are deterministic in `seed`.
 */
struct StreamingSpec {
  std::uint64_t total_requests = 1'000'000;
  double rate_per_second = 100.0;
  StreamingLengths input{8, 32.0, 128};
  StreamingLengths output{2, 6.0, 16};
  std::uint64_t seed = 1;

  /**
   * Deterministic 1-in-K exact TTFT subsample (by request index) kept
   * alongside the sketch, sized for the sketch-vs-exact accuracy gate
   * (10^7 requests / 100 = 10^5 doubles). 0 disables the subsample.
   */
  std::uint64_t exact_subsample_period = 100;
};

/** The old name of the streaming result, kept only for the benchmark
 * driver; every run reports a RunOutcome. */
using StreamingOutcome = RunOutcome;

/**
 * Drives `spec.total_requests` synthetic requests through the shared
 * run path (RunArrivals), feeding completions straight into a
 * sketch-backed MetricsCollector. Arrivals self-schedule (each injects
 * the next), so the simulator queue and driver state stay O(in-flight)
 * at any scale. The outcome carries the exact 1-in-K TTFT subsample and
 * the in-flight high-water mark; config.event_budget is the livelock
 * guard.
 */
RunOutcome RunStreamingWorkload(
    EngineKind kind, const serve::Deployment& deployment,
    const StreamingSpec& spec,
    const core::ContentionEstimator* shared_estimator,
    const RunConfig& config = RunConfig());

}  // namespace muxwise::harness

#endif  // MUXWISE_HARNESS_STREAMING_H_
