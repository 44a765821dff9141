#ifndef MUXWISE_SIM_BACKOFF_H_
#define MUXWISE_SIM_BACKOFF_H_

#include "sim/time.h"

namespace muxwise::sim {

/**
 * Deterministic exponential backoff with a cap — the one retry-pacing
 * policy shared by every layer that re-offers work after a transient
 * failure: interconnect transfer retries (sim::Channel) and
 * fleet-router session re-homing (route::FleetRouter).
 *
 * The delay before attempt k (1-based) is initial * multiplier^(k-1),
 * clamped to `cap`. No jitter: retries in a deterministic simulator must
 * replay bit-identically, so spreading load is the caller's seed-stream
 * problem, not this helper's.
 */
struct ExponentialBackoff {
  /** Delay before the first retry (attempt 1). */
  Duration initial = Milliseconds(2);

  /** Geometric growth factor per attempt, >= 1. */
  double multiplier = 2.0;

  /** Upper bound on any single delay; kTimeNever means uncapped. */
  Duration cap = kTimeNever;
};

/**
 * Delay before retry `attempt` (1-based: attempt 1 waits `initial`),
 * computed by repeated scaled multiplication truncated to whole
 * nanoseconds; for delays below 2^53 ns a multiplier of 2 reproduces
 * integer doubling exactly, as the historical Channel retry loop did.
 * Saturates at `cap` (overflow-safe: a delay that would reach the cap
 * returns the cap before any integer conversion). `attempt < 1` is
 * treated as attempt 1.
 */
Duration BackoffDelay(const ExponentialBackoff& policy, int attempt);

}  // namespace muxwise::sim

#endif  // MUXWISE_SIM_BACKOFF_H_
