#include "kv/radix_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "sim/rng.h"

namespace muxwise::kv {
namespace {

TokenSeq Session(std::int64_t stream, std::int64_t len) {
  return {{stream, 0, len}};
}

TEST(RadixTreeTest, EmptyTreeMatchesNothing) {
  RadixTree tree;
  EXPECT_EQ(tree.MatchedPrefix(Session(1, 100), 0), 0);
  EXPECT_EQ(tree.total_tokens(), 0);
}

TEST(RadixTreeTest, InsertThenMatchFull) {
  RadixTree tree;
  auto [added, lock] = tree.InsertAndLock(Session(1, 100), 1);
  EXPECT_EQ(added, 100);
  EXPECT_EQ(tree.total_tokens(), 100);
  tree.Unlock(lock);
  EXPECT_EQ(tree.MatchedPrefix(Session(1, 100), 2), 100);
  tree.CheckInvariants();
}

TEST(RadixTreeTest, MatchShorterPrefix) {
  RadixTree tree;
  auto [added, lock] = tree.InsertAndLock(Session(1, 100), 1);
  tree.Unlock(lock);
  EXPECT_EQ(tree.MatchedPrefix(Session(1, 40), 2), 40);
}

TEST(RadixTreeTest, MatchLongerQueryStopsAtCachedLength) {
  RadixTree tree;
  auto [added, lock] = tree.InsertAndLock(Session(1, 100), 1);
  tree.Unlock(lock);
  EXPECT_EQ(tree.MatchedPrefix(Session(1, 250), 2), 100);
}

TEST(RadixTreeTest, ExtensionAddsOnlyNewTokens) {
  RadixTree tree;
  auto [a1, l1] = tree.InsertAndLock(Session(1, 100), 1);
  tree.Unlock(l1);
  auto [a2, l2] = tree.InsertAndLock(Session(1, 300), 2);
  tree.Unlock(l2);
  EXPECT_EQ(a1, 100);
  EXPECT_EQ(a2, 200);
  EXPECT_EQ(tree.total_tokens(), 300);
  tree.CheckInvariants();
}

TEST(RadixTreeTest, ShorterInsertSplitsNode) {
  RadixTree tree;
  auto [a1, l1] = tree.InsertAndLock(Session(1, 300), 1);
  tree.Unlock(l1);
  auto [a2, l2] = tree.InsertAndLock(Session(1, 100), 2);
  tree.Unlock(l2);
  EXPECT_EQ(a2, 0);  // Fully cached already.
  EXPECT_EQ(tree.total_tokens(), 300);
  EXPECT_EQ(tree.node_count(), 2u);  // Split into 100 + 200.
  tree.CheckInvariants();
}

TEST(RadixTreeTest, SharedSystemPromptSharesOneNode) {
  RadixTree tree;
  // Two sessions with the same 50-token system prompt.
  TokenSeq a = {{0, 0, 50}, {1, 0, 100}};
  TokenSeq b = {{0, 0, 50}, {2, 0, 100}};
  auto [a1, l1] = tree.InsertAndLock(a, 1);
  tree.Unlock(l1);
  auto [a2, l2] = tree.InsertAndLock(b, 2);
  tree.Unlock(l2);
  EXPECT_EQ(a1, 150);
  EXPECT_EQ(a2, 100);  // System prompt reused.
  EXPECT_EQ(tree.total_tokens(), 250);
  EXPECT_EQ(tree.MatchedPrefix({{0, 0, 50}, {3, 0, 10}}, 3), 50);
  tree.CheckInvariants();
}

TEST(RadixTreeTest, LockPreventsEviction) {
  RadixTree tree;
  auto [added, lock] = tree.InsertAndLock(Session(1, 100), 1);
  EXPECT_EQ(tree.EvictLru(100), 0);  // Pinned: nothing evictable.
  tree.Unlock(lock);
  EXPECT_EQ(tree.EvictLru(100), 100);
  EXPECT_EQ(tree.total_tokens(), 0);
  tree.CheckInvariants();
}

TEST(RadixTreeTest, LockOnPrefixPinsWholePath) {
  RadixTree tree;
  auto [a1, l1] = tree.InsertAndLock(Session(1, 300), 1);
  tree.Unlock(l1);
  // Lock only the first 100 tokens (splits or partially covers nodes).
  RadixTree::MatchResult match = tree.MatchAndLock(Session(1, 100), 2);
  EXPECT_EQ(match.matched_tokens, 100);
  // The partially-covered 300-token node is pinned entirely, so nothing
  // can be evicted.
  EXPECT_EQ(tree.EvictLru(1000), 0);
  tree.Unlock(match.lock);
  EXPECT_EQ(tree.EvictLru(1000), 300);
}

TEST(RadixTreeTest, EvictsLeastRecentlyUsedFirst) {
  RadixTree tree;
  auto [a1, l1] = tree.InsertAndLock(Session(1, 100), /*now=*/10);
  tree.Unlock(l1);
  auto [a2, l2] = tree.InsertAndLock(Session(2, 100), /*now=*/20);
  tree.Unlock(l2);
  // Touch session 1 so session 2 becomes LRU.
  tree.MatchedPrefix(Session(1, 100), /*now=*/30);
  EXPECT_EQ(tree.EvictLru(50), 100);  // Whole leaf evicted.
  EXPECT_EQ(tree.MatchedPrefix(Session(2, 100), 40), 0);
  EXPECT_EQ(tree.MatchedPrefix(Session(1, 100), 41), 100);
  tree.CheckInvariants();
}

TEST(RadixTreeTest, EvictionCascadesToParents) {
  RadixTree tree;
  auto [a1, l1] = tree.InsertAndLock(Session(1, 100), 1);
  tree.Unlock(l1);
  auto [a2, l2] = tree.InsertAndLock(Session(1, 200), 2);
  tree.Unlock(l2);
  // Two nodes (100 + 100 extension); evicting 200 requires both.
  EXPECT_EQ(tree.EvictLru(200), 200);
  EXPECT_EQ(tree.node_count(), 0u);
  tree.CheckInvariants();
}

TEST(RadixTreeTest, SplitPreservesLocks) {
  RadixTree tree;
  auto [a1, lock] = tree.InsertAndLock(Session(1, 300), 1);
  // While locked, a shorter insert splits the node.
  auto [a2, l2] = tree.InsertAndLock(Session(1, 100), 2);
  tree.Unlock(l2);
  tree.CheckInvariants();
  EXPECT_EQ(tree.EvictLru(1000), 0);  // Still fully pinned.
  tree.Unlock(lock);
  tree.CheckInvariants();
  EXPECT_EQ(tree.EvictLru(1000), 300);
}

TEST(RadixTreeTest, LockedTokensReportsPinnedAmount) {
  RadixTree tree;
  auto [a1, lock] = tree.InsertAndLock(Session(1, 120), 1);
  EXPECT_EQ(tree.LockedTokens(), 120);
  tree.Unlock(lock);
  EXPECT_EQ(tree.LockedTokens(), 0);
}

TEST(RadixTreeTest, DivergentSessionsDontCrossMatch) {
  RadixTree tree;
  auto [a1, l1] = tree.InsertAndLock(Session(1, 100), 1);
  tree.Unlock(l1);
  auto [a2, l2] = tree.InsertAndLock(Session(2, 150), 2);
  tree.Unlock(l2);
  EXPECT_EQ(tree.total_tokens(), 250);
  EXPECT_EQ(tree.MatchedPrefix(Session(1, 100), 3), 100);
  EXPECT_EQ(tree.MatchedPrefix(Session(2, 100), 4), 100);
}

/**
 * Property test: random insert/match/evict against a reference model
 * that stores whole sequences. The tree's matched prefix must equal the
 * reference's best (when nothing was evicted), and totals stay
 * consistent with CheckInvariants throughout.
 */
TEST(RadixTreePropertyTest, MatchesReferenceWithoutEviction) {
  sim::Rng rng(7);
  RadixTree tree;
  // Reference: per (stream), the longest inserted length; plus shared
  // prefix streams handled by construction below.
  std::map<std::int64_t, std::int64_t> longest;
  sim::Time now = 0;
  for (int i = 0; i < 500; ++i) {
    const std::int64_t stream = rng.UniformInt(1, 20);
    const std::int64_t len = rng.UniformInt(1, 400);
    ++now;
    if (rng.Bernoulli(0.6)) {
      auto [added, lock] = tree.InsertAndLock(Session(stream, len), now);
      tree.Unlock(lock);
      longest[stream] = std::max(longest[stream], len);
    } else {
      const std::int64_t matched =
          tree.MatchedPrefix(Session(stream, len), now);
      const std::int64_t expected = std::min(len, longest[stream]);
      ASSERT_EQ(matched, expected) << "iter " << i;
    }
    if (i % 50 == 0) tree.CheckInvariants();
  }
  tree.CheckInvariants();
  std::int64_t expected_total = 0;
  for (const auto& [stream, len] : longest) expected_total += len;
  EXPECT_EQ(tree.total_tokens(), expected_total);
}

TEST(RadixTreePropertyTest, EvictionNeverBreaksInvariants) {
  sim::Rng rng(13);
  RadixTree tree;
  std::vector<RadixTree::Lock> locks;
  sim::Time now = 0;
  for (int i = 0; i < 300; ++i) {
    ++now;
    const double action = rng.Uniform();
    if (action < 0.5) {
      auto [added, lock] = tree.InsertAndLock(
          Session(rng.UniformInt(1, 10), rng.UniformInt(1, 300)), now);
      if (rng.Bernoulli(0.3) && locks.size() < 5) {
        locks.push_back(lock);
      } else {
        tree.Unlock(lock);
      }
    } else if (action < 0.8) {
      tree.EvictLru(rng.UniformInt(1, 500));
    } else if (!locks.empty()) {
      tree.Unlock(locks.back());
      locks.pop_back();
    }
    tree.CheckInvariants();
  }
  for (RadixTree::Lock& lock : locks) tree.Unlock(lock);
  // Everything unpinned: full eviction must be possible.
  tree.EvictLru(tree.total_tokens());
  EXPECT_EQ(tree.total_tokens(), 0);
  tree.CheckInvariants();
}

/**
 * Heavier churn with exact accounting against a naive reference: every
 * insert's `added` feeds a token ledger, every eviction's `freed`
 * drains it, and after each operation the tree's total must equal the
 * ledger exactly. Pinned paths are re-matched after every eviction —
 * a live (referenced) node must never be evicted, so the full locked
 * prefix stays matchable until its lock is released.
 */
TEST(RadixTreePropertyTest, ChurnMatchesNaiveAccountingAndSparesLiveNodes) {
  sim::Rng rng(4242);
  RadixTree tree;
  struct Held {
    RadixTree::Lock lock;
    std::int64_t stream = 0;
    std::int64_t pinned_tokens = 0;  // Length of the pinned prefix.
  };
  std::vector<Held> held;
  std::int64_t ledger = 0;  // Naive reference: inserted minus evicted.
  sim::Time now = 0;

  const auto verify = [&] {
    tree.CheckInvariants();
    ASSERT_EQ(tree.total_tokens(), ledger);
    ASSERT_LE(tree.LockedTokens(), tree.total_tokens());
  };

  for (int i = 0; i < 3000; ++i) {
    ++now;
    const double action = rng.Uniform();
    if (action < 0.35) {
      // Insert (often extending an existing session) and maybe pin.
      const std::int64_t stream = rng.UniformInt(1, 8);
      const std::int64_t len = 16 * rng.UniformInt(1, 128);
      auto [added, lock] = tree.InsertAndLock(Session(stream, len), now);
      ASSERT_GE(added, 0);
      ASSERT_LE(added, len);
      ledger += added;
      if (held.size() < 12 && rng.Bernoulli(0.5)) {
        held.push_back({lock, stream, len});
      } else {
        tree.Unlock(lock);
      }
    } else if (action < 0.55) {
      // Match-and-lock an arbitrary prefix; the pin covers the match.
      const std::int64_t stream = rng.UniformInt(1, 8);
      const std::int64_t len = 16 * rng.UniformInt(1, 128);
      RadixTree::MatchResult match =
          tree.MatchAndLock(Session(stream, len), now);
      ASSERT_LE(match.matched_tokens, len);
      if (match.lock.node != nullptr && held.size() < 12) {
        held.push_back({match.lock, stream, match.matched_tokens});
      } else if (match.lock.node != nullptr) {
        tree.Unlock(match.lock);
      }
    } else if (action < 0.75) {
      // Release a random pin.
      if (!held.empty()) {
        const std::size_t victim = static_cast<std::size_t>(
            rng.UniformInt(0, static_cast<std::int64_t>(held.size()) - 1));
        tree.Unlock(held[victim].lock);
        held.erase(held.begin() + static_cast<std::ptrdiff_t>(victim));
      }
    } else {
      // Evict under pressure; pinned tokens are off limits.
      const std::int64_t before = tree.total_tokens();
      const std::int64_t locked = tree.LockedTokens();
      const std::int64_t freed = tree.EvictLru(rng.UniformInt(1, 8192));
      ASSERT_GE(freed, 0);
      ASSERT_LE(freed, before - locked);
      ledger -= freed;
      // No live-node eviction: every pinned prefix is still fully
      // cached (recency bump via MatchedPrefix is fine here).
      for (const Held& h : held) {
        ASSERT_GE(tree.MatchedPrefix(Session(h.stream, h.pinned_tokens), now),
                  h.pinned_tokens)
            << "evicted a pinned path (stream " << h.stream << ")";
      }
    }
    verify();
  }

  for (Held& h : held) tree.Unlock(h.lock);
  const std::int64_t drained = tree.EvictLru(tree.total_tokens());
  EXPECT_EQ(drained, ledger);
  EXPECT_EQ(tree.total_tokens(), 0);
  EXPECT_EQ(tree.node_count(), 0u);
  tree.CheckInvariants();
}

/**
 * Naive O(n) reference for the radix tree's full contract, eviction order
 * included. Nodes sit in a flat vector and are never reused; children
 * are found by scanning every node. The victim is the evictable leaf
 * with the smallest (last_access, order the leaf became evictable),
 * where a leaf "becomes evictable" again whenever its last_access moves
 * while it is evictable. Only one node can change evictability per
 * operation (or per victim), so re-stamping after each step is exact.
 */
class ReferenceRadix {
 public:
  ReferenceRadix() { nodes_.push_back({}); }

  std::int64_t MatchedPrefix(const TokenSeq& seq, sim::Time now) {
    return Walk(seq, now, /*lock=*/false).first;
  }

  std::pair<std::int64_t, std::size_t> MatchAndLock(const TokenSeq& seq,
                                                    sim::Time now) {
    return Walk(seq, now, /*lock=*/true);
  }

  std::pair<std::int64_t, std::size_t> InsertAndLock(const TokenSeq& seq,
                                                     sim::Time now) {
    std::size_t node = 0;
    TokenSeq remaining = seq;
    std::int64_t added = 0;
    std::size_t deepest = 0;
    while (!remaining.empty()) {
      const std::size_t child = ChildMatching(node, remaining);
      if (child == 0) {
        nodes_.push_back({remaining, node, 1, now});
        added += SeqLength(remaining);
        deepest = nodes_.size() - 1;
        break;
      }
      const std::int64_t common =
          CommonPrefixLength(nodes_[child].edge, remaining);
      std::size_t top = child;
      if (common < SeqLength(nodes_[child].edge)) {
        Node split = nodes_[child];
        split.edge = SeqPrefix(nodes_[child].edge, common);
        split.stamp = 0;
        nodes_.push_back(split);
        top = nodes_.size() - 1;
        nodes_[child].edge = SeqSuffix(nodes_[child].edge, common);
        nodes_[child].parent = top;
      }
      nodes_[top].last_access = now;
      ++nodes_[top].ref_count;
      deepest = top;
      remaining = SeqSuffix(remaining, common);
      node = top;
    }
    Restamp();
    return {added, deepest};
  }

  void Unlock(std::size_t node) {
    for (; node != 0; node = nodes_[node].parent) --nodes_[node].ref_count;
    Restamp();
  }

  std::int64_t EvictLru(std::int64_t tokens_needed) {
    std::int64_t freed = 0;
    while (freed < tokens_needed) {
      std::size_t victim = 0;
      for (std::size_t i = 1; i < nodes_.size(); ++i) {
        if (nodes_[i].stamp == 0) continue;
        if (victim == 0 ||
            std::pair(nodes_[i].last_access, nodes_[i].stamp) <
                std::pair(nodes_[victim].last_access, nodes_[victim].stamp)) {
          victim = i;
        }
      }
      if (victim == 0) break;
      freed += SeqLength(nodes_[victim].edge);
      nodes_[victim].live = false;
      nodes_[victim].stamp = 0;
      Restamp();
    }
    return freed;
  }

  std::int64_t total_tokens() const {
    std::int64_t total = 0;
    for (std::size_t i = 1; i < nodes_.size(); ++i) {
      if (nodes_[i].live) total += SeqLength(nodes_[i].edge);
    }
    return total;
  }

  std::size_t node_count() const {
    return static_cast<std::size_t>(
               std::count_if(nodes_.begin(), nodes_.end(),
                             [](const Node& n) { return n.live; })) -
           1;
  }

 private:
  struct Node {
    TokenSeq edge;
    std::size_t parent = 0;
    std::int64_t ref_count = 0;
    sim::Time last_access = 0;
    bool live = true;
    std::uint64_t stamp = 0;  // Evictable-order stamp; 0 = not evictable.
    sim::Time stamped_access = 0;
  };

  /** The live child of `node` sharing a first token with `seq`, or 0. */
  std::size_t ChildMatching(std::size_t node, const TokenSeq& seq) const {
    for (std::size_t i = 1; i < nodes_.size(); ++i) {
      if (nodes_[i].live && nodes_[i].parent == node &&
          CommonPrefixLength(nodes_[i].edge, seq) > 0) {
        return i;
      }
    }
    return 0;
  }

  bool HasChildren(std::size_t node) const {
    for (std::size_t i = 1; i < nodes_.size(); ++i) {
      if (nodes_[i].live && nodes_[i].parent == node) return true;
    }
    return false;
  }

  std::pair<std::int64_t, std::size_t> Walk(const TokenSeq& seq,
                                            sim::Time now, bool lock) {
    std::size_t node = 0;
    TokenSeq remaining = seq;
    std::int64_t matched = 0;
    std::size_t deepest = 0;
    while (!remaining.empty()) {
      const std::size_t child = ChildMatching(node, remaining);
      if (child == 0) break;
      const std::int64_t common =
          CommonPrefixLength(nodes_[child].edge, remaining);
      matched += common;
      nodes_[child].last_access = now;
      if (lock) {
        ++nodes_[child].ref_count;
        deepest = child;
      }
      if (common < SeqLength(nodes_[child].edge)) break;
      remaining = SeqSuffix(remaining, common);
      node = child;
    }
    Restamp();
    return {matched, deepest};
  }

  void Restamp() {
    for (std::size_t i = 1; i < nodes_.size(); ++i) {
      Node& n = nodes_[i];
      const bool evictable = n.live && n.ref_count == 0 && !HasChildren(i);
      if (!evictable) {
        n.stamp = 0;
      } else if (n.stamp == 0 || n.stamped_access != n.last_access) {
        n.stamp = next_stamp_++;
        n.stamped_access = n.last_access;
      }
    }
  }

  std::vector<Node> nodes_;
  std::uint64_t next_stamp_ = 1;
};

/**
 * Random inserts (with splits and shared system prompts), matches,
 * pins held across many operations and released late, and evictions,
 * on a clock that often repeats a timestamp: the tree must free exactly
 * the reference's tokens per EvictLru call and match the same prefixes.
 */
TEST(RadixTreeModelTest, EvictsAndMatchesLikeTheReference) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    sim::Rng rng(seed);
    RadixTree tree;
    ReferenceRadix ref;
    struct Held {
      RadixTree::Lock lock;
      std::size_t ref_node = 0;
    };
    std::vector<Held> held;
    sim::Time now = 0;
    const auto random_seq = [&rng] {
      TokenSeq seq;
      if (rng.Bernoulli(0.3)) {
        AppendSpan(seq, {0, 0, 16 * rng.UniformInt(1, 4)});  // System prompt.
      }
      AppendSpan(seq, {rng.UniformInt(1, 12), 0, rng.UniformInt(1, 300)});
      return seq;
    };
    for (int i = 0; i < 4000; ++i) {
      if (rng.Bernoulli(0.6)) ++now;  // Otherwise: a same-timestamp tie.
      const double action = rng.Uniform();
      if (action < 0.3) {
        const TokenSeq seq = random_seq();
        auto [added, lock] = tree.InsertAndLock(seq, now);
        auto [ref_added, ref_node] = ref.InsertAndLock(seq, now);
        ASSERT_EQ(added, ref_added) << "op " << i;
        if (held.size() < 8 && rng.Bernoulli(0.3)) {
          held.push_back({lock, ref_node});
        } else {
          tree.Unlock(lock);
          ref.Unlock(ref_node);
        }
      } else if (action < 0.45) {
        const TokenSeq seq = random_seq();
        RadixTree::MatchResult match = tree.MatchAndLock(seq, now);
        auto [ref_matched, ref_node] = ref.MatchAndLock(seq, now);
        ASSERT_EQ(match.matched_tokens, ref_matched) << "op " << i;
        ASSERT_EQ(match.lock.node == nullptr, ref_node == 0) << "op " << i;
        if (match.lock.node != nullptr) held.push_back({match.lock, ref_node});
      } else if (action < 0.6) {
        const TokenSeq seq = random_seq();
        ASSERT_EQ(tree.MatchedPrefix(seq, now), ref.MatchedPrefix(seq, now))
            << "op " << i;
      } else if (action < 0.75) {
        // Release a pin, often one taken many operations ago.
        if (!held.empty()) {
          const auto victim = static_cast<std::ptrdiff_t>(rng.UniformInt(
              0, static_cast<std::int64_t>(held.size()) - 1));
          tree.Unlock(held[victim].lock);
          ref.Unlock(held[victim].ref_node);
          held.erase(held.begin() + victim);
        }
      } else {
        const std::int64_t want = rng.UniformInt(1, 600);
        ASSERT_EQ(tree.EvictLru(want), ref.EvictLru(want)) << "op " << i;
      }
      ASSERT_EQ(tree.total_tokens(), ref.total_tokens()) << "op " << i;
      ASSERT_EQ(tree.node_count(), ref.node_count()) << "op " << i;
      if (i % 100 == 0) tree.CheckInvariants();
    }
    for (const Held& h : held) {
      tree.Unlock(h.lock);
      ref.Unlock(h.ref_node);
    }
    ASSERT_EQ(tree.EvictLru(1), ref.EvictLru(1));
    for (std::int64_t stream = 1; stream <= 12; ++stream) {
      ASSERT_EQ(tree.MatchedPrefix(Session(stream, 300), now),
                ref.MatchedPrefix(Session(stream, 300), now));
    }
    tree.CheckInvariants();
  }
}

TEST(RadixTreeModelTest, EqualTimestampsEvictInTheOrderLeavesBecameFree) {
  RadixTree tree;
  auto [a_added, a] = tree.InsertAndLock(Session(1, 10), 5);
  auto [b_added, b] = tree.InsertAndLock(Session(2, 20), 5);
  auto [c_added, c] = tree.InsertAndLock(Session(3, 30), 5);
  // All three carry last_access 5; they become evictable as c, a, b.
  tree.Unlock(c);
  tree.Unlock(a);
  tree.Unlock(b);
  tree.MatchedPrefix(Session(3, 30), 5);  // Same stamp: keeps its place.
  tree.CheckInvariants();
  EXPECT_EQ(tree.EvictLru(1), 30);
  EXPECT_EQ(tree.EvictLru(1), 10);
  EXPECT_EQ(tree.EvictLru(1), 20);
  tree.CheckInvariants();
}

TEST(RadixTreeModelTest, OldPinReleasedLateIsEvictedFirst) {
  RadixTree tree;
  auto [a_added, old_pin] = tree.InsertAndLock(Session(1, 10), 1);
  for (std::int64_t stream = 2; stream <= 4; ++stream) {
    auto [added, lock] = tree.InsertAndLock(Session(stream, 10 * stream),
                                            stream);
    tree.Unlock(lock);
  }
  // Released after newer leaves were indexed, with its older stamp.
  tree.Unlock(old_pin);
  tree.CheckInvariants();
  EXPECT_EQ(tree.EvictLru(1), 10);
  EXPECT_EQ(tree.EvictLru(1), 20);
  EXPECT_EQ(tree.EvictLru(1), 30);
  EXPECT_EQ(tree.EvictLru(1), 40);
  EXPECT_EQ(tree.EvictLru(1), 0);
  tree.CheckInvariants();
}

TEST(RadixTreeModelTest, ParentExposedByEvictionKeepsItsOwnRecency) {
  RadixTree tree;
  auto [a1, l1] = tree.InsertAndLock(Session(1, 100), 1);
  tree.Unlock(l1);
  auto [a2, l2] = tree.InsertAndLock(Session(1, 170), 2);  // 100 + 70.
  tree.Unlock(l2);
  auto [a3, l3] = tree.InsertAndLock(Session(2, 50), 3);
  tree.Unlock(l3);
  EXPECT_EQ(tree.EvictLru(1), 70);  // The extension (stamp 2).
  tree.CheckInvariants();
  // Its parent is now a leaf stamped 2, older than stream 2's 3.
  EXPECT_EQ(tree.EvictLru(1), 100);
  EXPECT_EQ(tree.EvictLru(1), 50);
  EXPECT_EQ(tree.node_count(), 0u);
  tree.CheckInvariants();
}

/**
 * Stream churn under a bounded token budget, the shape of a long run of
 * short requests: 120k distinct streams through a cache that holds a
 * few thousand, so the child index grows several times and every
 * eviction is a backward-shift deletion. A few pins are held for a
 * while and some requests re-read a recent stream.
 */
TEST(RadixTreeModelTest, DistinctStreamChurnKeepsInvariants) {
  constexpr std::int64_t kStreams = 120000;
  constexpr std::int64_t kBudget = 200000;  // Tokens.
  sim::Rng rng(99);
  RadixTree tree;
  std::vector<RadixTree::Lock> held;
  std::int64_t ledger = 0;
  std::int64_t ops = 0;
  const auto step = [&] {
    if (++ops % 1000 == 0) {
      tree.CheckInvariants();
      ASSERT_EQ(tree.total_tokens(), ledger);
    }
  };
  for (std::int64_t stream = 1; stream <= kStreams; ++stream) {
    const sim::Time now = stream;
    const TokenSeq prompt = Session(stream, rng.UniformInt(8, 128));
    RadixTree::MatchResult miss = tree.MatchAndLock(prompt, now);
    ASSERT_EQ(miss.matched_tokens, 0);
    step();
    auto [added, lock] = tree.InsertAndLock(prompt, now);
    ledger += added;
    step();
    if (held.size() < 16 && rng.Bernoulli(0.01)) {
      held.push_back(lock);
    } else {
      tree.Unlock(lock);
    }
    if (!held.empty() && rng.Bernoulli(0.01)) {
      tree.Unlock(held.front());
      held.erase(held.begin());
    }
    if (stream > 10 && rng.Bernoulli(0.2)) {
      tree.MatchedPrefix(Session(stream - rng.UniformInt(1, 10), 64), now);
      step();
    }
    if (tree.total_tokens() > kBudget) {
      ledger -= tree.EvictLru(tree.total_tokens() - kBudget);
      step();
    }
  }
  for (RadixTree::Lock& lock : held) tree.Unlock(lock);
  ledger -= tree.EvictLru(tree.total_tokens());
  EXPECT_EQ(ledger, 0);
  EXPECT_EQ(tree.node_count(), 0u);
  tree.CheckInvariants();
}

}  // namespace
}  // namespace muxwise::kv
