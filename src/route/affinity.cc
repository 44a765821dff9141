#include "route/affinity.h"

#include "sim/hash.h"

namespace muxwise::route {

std::uint64_t PrefixAffinityKey(const kv::TokenSeq& prompt,
                                std::int64_t prefix_tokens) {
  const std::int64_t len = SeqLength(prompt);
  const kv::TokenSeq prefix =
      SeqPrefix(prompt, prefix_tokens < len ? prefix_tokens : len);
  std::uint64_t key = 0x517cc1b727220a95ull;
  for (const kv::TokenSpan& span : prefix) {
    key = sim::SplitMix64(key ^ static_cast<std::uint64_t>(span.stream));
    key = sim::SplitMix64(key ^ static_cast<std::uint64_t>(span.begin));
    key = sim::SplitMix64(key ^ static_cast<std::uint64_t>(span.end));
  }
  return key;
}

void AffinityTable::EvictReplica(std::size_t replica) {
  for (auto it = table_.begin(); it != table_.end();) {
    if (it->second == replica) {
      it = table_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace muxwise::route
