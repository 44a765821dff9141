#include "kv/kv_pool.h"

#include <algorithm>
#include <utility>

#include "sim/logging.h"

namespace muxwise::kv {

KvPool::KvPool(std::int64_t capacity_tokens) : capacity_(capacity_tokens) {
  MUX_CHECK(capacity_ > 0);
}

KvPool::PrefixLease KvPool::AcquirePrefix(const TokenSeq& seq,
                                          sim::Time now) {
  PrefixLease lease;
  RadixTree::MatchResult match = tree_.MatchAndLock(seq, now);
  lease.lock = match.lock;
  lease.matched_tokens = match.matched_tokens;
  ++lookups_;
  requested_tokens_ += SeqLength(seq);
  hit_tokens_ += match.matched_tokens;
  return lease;
}

void KvPool::ReleasePrefix(PrefixLease& lease) {
  if (lease.lock.node == nullptr) return;
  tree_.Unlock(lease.lock);
  lease.lock.node = nullptr;
  lease.matched_tokens = 0;
}

bool KvPool::TryReserve(std::int64_t tokens) {
  MUX_CHECK(tokens >= 0);
  if (tokens == 0) return true;
  if (free_tokens() < tokens) {
    tree_.EvictLru(tokens - free_tokens());
  }
  if (free_tokens() < tokens) {
    TraceOccupancy();  // Evictions may still have changed the cache.
    return false;
  }
  reserved_ += tokens;
  TraceOccupancy();
  return true;
}

void KvPool::ReleaseReserved(std::int64_t tokens) {
  MUX_CHECK(tokens >= 0);
  MUX_CHECK(tokens <= reserved_);
  reserved_ -= tokens;
  TraceOccupancy();
}

void KvPool::CommitSequence(const TokenSeq& seq, sim::Time now) {
  auto [added, lock] = tree_.InsertAndLock(seq, now);
  tree_.Unlock(lock);
  (void)added;
  // Whatever stays above capacity is pinned by in-flight requests;
  // engines admit within capacity, so that is transient pressure, not
  // corruption.
  if (used_tokens() > capacity_) {
    tree_.EvictLru(used_tokens() - capacity_);
  }
  TraceOccupancy();
}

void KvPool::Clear() {
  MUX_CHECK(tree_.LockedTokens() == 0);
  tree_.EvictLru(tree_.total_tokens());
  TraceOccupancy();
}

void KvPool::SpillReserved(std::int64_t tokens) {
  MUX_CHECK(tokens >= 0);
  MUX_CHECK(tokens <= reserved_);
  reserved_ -= tokens;
  spilled_ += tokens;
  spilled_in_total_ += tokens;
  TraceOccupancy();
}

bool KvPool::TryRestoreSpilled(std::int64_t tokens) {
  MUX_CHECK(tokens >= 0);
  MUX_CHECK(tokens <= spilled_);
  if (tokens == 0) return true;
  if (free_tokens() < tokens) {
    tree_.EvictLru(tokens - free_tokens());
  }
  if (free_tokens() < tokens) {
    TraceOccupancy();  // Evictions may still have changed the cache.
    return false;
  }
  spilled_ -= tokens;
  restored_total_ += tokens;
  reserved_ += tokens;
  TraceOccupancy();
  return true;
}

void KvPool::DropSpilled(std::int64_t tokens) {
  MUX_CHECK(tokens >= 0);
  MUX_CHECK(tokens <= spilled_);
  spilled_ -= tokens;
  dropped_spill_total_ += tokens;
  TraceOccupancy();
}

void KvPool::set_tracer(obs::Tracer tracer, std::string track) {
  tracer_ = tracer;
  track_ = std::move(track);
  TraceOccupancy();  // Establish the initial (usually empty) level.
}

void KvPool::TraceOccupancy() const {
  if (!tracer_.enabled()) return;
  tracer_.Counter(track_, "used-tokens",
                  static_cast<double>(used_tokens()));
  tracer_.Counter(track_, "cached-tokens",
                  static_cast<double>(cached_tokens()));
  tracer_.Counter(track_, "reserved-tokens",
                  static_cast<double>(reserved_));
  if (spilled_in_total_ > 0) {
    tracer_.Counter(track_, "spilled-tokens",
                    static_cast<double>(spilled_));
  }
}

void KvPool::RegisterAudits(check::InvariantRegistry& registry) const {
  registry.Register(
      "KvPool", "token-conservation", [this](check::AuditContext& ctx) {
        ctx.Check(reserved_ >= 0,
                  "negative reserved " + std::to_string(reserved_));
        ctx.Check(cached_tokens() >= 0,
                  "negative cached " + std::to_string(cached_tokens()));
        ctx.Check(used_tokens() == cached_tokens() + reserved_,
                  "used != cached + reserved");
        ctx.Check(used_tokens() <= capacity_,
                  "used " + std::to_string(used_tokens()) +
                      " exceeds capacity " + std::to_string(capacity_) +
                      " at quiescence");
        ctx.Check(hit_tokens_ <= requested_tokens_,
                  "hit tokens exceed requested tokens");
      });
  registry.Register(
      "KvPool", "quiescent-working-set", [this](check::AuditContext& ctx) {
        // At scenario end every in-flight request has finished, so its
        // reservation and prefix pin must have been returned.
        ctx.Check(reserved_ == 0,
                  "leaked working-set reservation of " +
                      std::to_string(reserved_) + " tokens");
        ctx.Check(tree_.LockedTokens() == 0,
                  "leaked prefix pin on " +
                      std::to_string(tree_.LockedTokens()) + " tokens");
      });
  registry.Register(
      "KvPool", "spill-ledger", [this](check::AuditContext& ctx) {
        // Spilled pages leave HBM, so the resident conservation law
        // (used == cached + reserved <= capacity) is checked above
        // unchanged; the ledger itself must conserve flow and drain.
        ctx.Check(spilled_ >= 0,
                  "negative spill ledger " + std::to_string(spilled_));
        ctx.Check(spilled_in_total_ ==
                      spilled_ + restored_total_ + dropped_spill_total_,
                  "spill ledger flow leak: in=" +
                      std::to_string(spilled_in_total_) + " held=" +
                      std::to_string(spilled_) + " restored=" +
                      std::to_string(restored_total_) + " dropped=" +
                      std::to_string(dropped_spill_total_));
        ctx.Check(spilled_ == 0,
                  "spill ledger holds " + std::to_string(spilled_) +
                      " tokens at quiescence");
      });
  registry.Register("KvPool", "radix-refcounts",
                    [this](check::AuditContext& ctx) { tree_.Audit(ctx); });
}

double KvPool::HitRate() const {
  if (requested_tokens_ == 0) return 0.0;
  return static_cast<double>(hit_tokens_) /
         static_cast<double>(requested_tokens_);
}

}  // namespace muxwise::kv
