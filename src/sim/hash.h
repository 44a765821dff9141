#ifndef MUXWISE_SIM_HASH_H_
#define MUXWISE_SIM_HASH_H_

#include <cstdint>
#include <cstdio>
#include <string>

namespace muxwise::sim {

/**
 * The splitmix64 finalizer: a full 64-bit avalanche with no additive
 * step, so 0 maps to 0. Used where a well-mixed key is needed (hash
 * indices, label-derived seeds, kernel-shape fingerprints).
 */
inline std::uint64_t SplitMix64Finalize(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/**
 * One splitmix64 step: add the golden-ratio increment, then finalize.
 * Chained calls give a counter-based generator whose i-th draw depends
 * on nothing but (seed, i).
 */
inline std::uint64_t SplitMix64(std::uint64_t x) {
  return SplitMix64Finalize(x + 0x9e3779b97f4a7c15ULL);
}

/**
 * Boost-style hash_combine fold of `v` into the running digest `h`.
 * Order-sensitive by design: the event-stream and outcome digests are
 * witnesses of a sequence, not of a set.
 */
inline std::uint64_t MixDigest(std::uint64_t h, std::uint64_t v) {
  return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}

/** A digest as the 16 lowercase hex digits every report prints. */
inline std::string HexDigest(std::uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

}  // namespace muxwise::sim

#endif  // MUXWISE_SIM_HASH_H_
