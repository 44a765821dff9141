#include "sim/backoff.h"

#include "sim/logging.h"

namespace muxwise::sim {

Duration BackoffDelay(const ExponentialBackoff& policy, int attempt) {
  MUX_CHECK(policy.initial >= 0);
  MUX_CHECK(policy.multiplier >= 1.0);
  Duration delay = policy.initial;
  if (delay >= policy.cap) return policy.cap;
  // The next delay is compared with the cap as a double, before it is
  // converted back: nothing can overflow, and the conversion only ever
  // sees values below the cap. Below 2^53 ns every delay is an exact
  // double, so doubling matches integer doubling bit for bit.
  const double cap = static_cast<double>(policy.cap);
  for (int i = 1; i < attempt; ++i) {
    const double next = static_cast<double>(delay) * policy.multiplier;
    if (next >= cap) return policy.cap;
    delay = static_cast<Duration>(next);
  }
  return delay;
}

}  // namespace muxwise::sim
