#ifndef MUXWISE_KV_RADIX_TREE_H_
#define MUXWISE_KV_RADIX_TREE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "check/invariant_registry.h"
#include "kv/token_seq.h"
#include "sim/time.h"

namespace muxwise::kv {

/**
 * SGLang-style radix tree over cached token sequences.
 *
 * Each node owns a compressed edge (a TokenSeq) whose tokens occupy KV
 * pool space. Nodes carry reference counts: a request pins (locks) the
 * path covering the prefix it reuses so that eviction cannot free cache
 * under an in-flight computation. Unreferenced leaves are evicted in
 * LRU order (paper Fig. 5 uses exactly this policy); leaves with equal
 * `last_access` go in the order they became evictable.
 *
 * Performance structure (every request inserts, and most evict):
 *
 *  - Nodes live in a deque arena recycled through a free list, so node
 *    pointers stay stable and a recycled node keeps its edge capacity.
 *  - One tree-wide open-addressing child index replaces per-node maps:
 *    linear probing over 8-byte slots (a 32-bit hash of the child key
 *    beside the child's arena index), backward-shift deletion, and the
 *    full key (parent, first-span stream, first-span begin) checked on
 *    the node itself.
 *  - Walks advance a (span, offset) cursor through the query instead of
 *    copying suffixes, and each node caches its edge length.
 *  - The evictable-leaf index is ordered by (last_access, serial), where
 *    the serial is stamped when a leaf enters the index. Touches stamp
 *    the monotone simulated clock, so almost every entry appends to a
 *    sorted lane; the rest (a late Unlock of an old pin, a parent
 *    exposed by eviction) go to a small min-heap. A node remembers the
 *    serial of its one live entry, so entries it no longer matches are
 *    stale and skipped; both structures are compacted once stale
 *    entries outnumber live ones.
 */
class RadixTree {
 public:
  struct Node;

  /** Pin on a matched path. Release with Unlock(). */
  struct Lock {
    Node* node = nullptr;
  };

  struct MatchResult {
    std::int64_t matched_tokens = 0;
    Lock lock;  // Valid only when requested via MatchAndLock.
  };

  RadixTree();
  ~RadixTree();

  RadixTree(const RadixTree&) = delete;
  RadixTree& operator=(const RadixTree&) = delete;

  /** Longest cached prefix of `seq`, updating recency. Does not pin. */
  std::int64_t MatchedPrefix(const TokenSeq& seq, sim::Time now);

  /** Longest cached prefix of `seq`; pins the matched path. */
  MatchResult MatchAndLock(const TokenSeq& seq, sim::Time now);

  /** Releases a pin obtained from MatchAndLock or InsertAndLock. */
  void Unlock(Lock lock);

  /**
   * Ensures `seq` is fully present, splitting/creating nodes as needed.
   * Returns the number of tokens newly materialized (pool growth) and a
   * pin on the deepest node of the inserted path.
   */
  std::pair<std::int64_t, Lock> InsertAndLock(const TokenSeq& seq,
                                              sim::Time now);

  /**
   * Evicts unreferenced leaves, LRU first, until at least
   * `tokens_needed` tokens are freed or nothing evictable remains.
   * Returns tokens actually freed.
   */
  std::int64_t EvictLru(std::int64_t tokens_needed);

  /** Tokens currently cached (sum of all edge lengths). */
  std::int64_t total_tokens() const { return total_tokens_; }

  /** Tokens pinned by outstanding locks (not evictable). */
  std::int64_t LockedTokens() const;

  /** Number of nodes (diagnostic). */
  std::size_t node_count() const { return node_count_; }

  /** Internal consistency check used by tests; aborts on violation. */
  void CheckInvariants() const;

  /**
   * Non-aborting variant of CheckInvariants for the invariant-audit
   * registry: records every broken structural invariant (negative
   * refcounts, token/node/child miscounts, orphaned parent links, child
   * index or evictable index out of sync) on `ctx`.
   */
  void Audit(check::AuditContext& ctx) const;

 private:
  static constexpr std::uint32_t kNoNode = 0xffffffffu;

  /** One child-index slot: the child's key hash and arena index. */
  struct Slot {
    std::uint32_t hash = 0;
    std::uint32_t node = kNoNode;  // kNoNode marks an empty slot.
  };

  /** One evictable-index entry, live while `node->evict_serial == serial`. */
  struct EvictEntry {
    sim::Time last_access = 0;
    std::uint64_t serial = 0;
    Node* node = nullptr;
  };

  /** The eviction order: (last_access, serial) ascending. */
  static bool Before(const EvictEntry& a, const EvictEntry& b) {
    if (a.last_access != b.last_access) return a.last_access < b.last_access;
    return a.serial < b.serial;
  }

  /** Heap comparator that puts the LRU entry on top. */
  struct EvictsLater {
    bool operator()(const EvictEntry& a, const EvictEntry& b) const {
      return Before(b, a);
    }
  };

  Node& root() { return nodes_.front(); }
  const Node& root() const { return nodes_.front(); }

  /** Shared walk of MatchedPrefix and MatchAndLock. */
  MatchResult Match(const TokenSeq& seq, sim::Time now, bool lock);

  Node& NewNode(Node& parent);
  void FreeNode(Node& node);

  /**
   * Splits `node`'s edge at `offset` tokens, inserting a new parent that
   * owns the top part. Locks on `node` keep pinning the whole path.
   */
  Node& SplitNode(Node& node, std::int64_t offset);

  // Child index.
  static std::uint32_t ChildHash(std::uint32_t parent, std::int64_t stream,
                                 std::int64_t begin);
  static std::uint32_t HashOf(const Node& child);
  /** Arena index of `parent`'s child keyed (stream, begin), or kNoNode. */
  std::uint32_t FindChild(const Node& parent, std::int64_t stream,
                          std::int64_t begin) const;
  /** Slot holding `child`, which must be linked. */
  std::size_t SlotOf(const Node& child) const;
  void PlaceSlot(Slot slot);
  void LinkChild(Node& child);
  void UnlinkChild(Node& child);

  // Evictable index.
  static bool IsLive(const EvictEntry& entry);

  /** Sets `node`'s recency, dropping its index entry if the stamp moves. */
  void Touch(Node& node, sim::Time now);

  /**
   * Re-derives `node`'s membership in the evictable-leaf index after any
   * mutation of its children, ref_count or last_access. Must be called
   * at every such mutation so EvictLru never has to rescan the tree.
   */
  void Reindex(Node& node);
  void Deindex(Node& node);
  void CompactEvictable();

  /** Removes and returns the LRU evictable leaf, nullptr when none. */
  Node* PopLru();

  /**
   * The one verification walk behind CheckInvariants and Audit: calls
   * `violate` once per broken invariant.
   */
  void Verify(const std::function<void(const std::string&)>& violate) const;

  // nodes_[0] is the root sentinel. A free node has no parent.
  std::deque<Node> nodes_;
  std::vector<std::uint32_t> free_nodes_;
  std::int64_t total_tokens_ = 0;
  std::size_t node_count_ = 0;  // Excludes the root sentinel.

  // Every non-root node, keyed by (parent, first-span stream, begin).
  // Power-of-two sized, at most half full.
  std::vector<Slot> slots_;

  // Evictable leaves ordered by (last_access, serial): `lane_` is sorted
  // from `lane_head_`; `heap_` is a min-heap of entries that arrived
  // behind the lane's tail.
  std::vector<EvictEntry> lane_;
  std::size_t lane_head_ = 0;
  std::vector<EvictEntry> heap_;
  std::size_t evictable_count_ = 0;  // Live entries.
  std::uint64_t next_serial_ = 1;
};

struct RadixTree::Node {
  TokenSeq edge;
  Node* parent = nullptr;
  std::int64_t edge_tokens = 0;  // SeqLength(edge), cached.
  std::int64_t ref_count = 0;
  sim::Time last_access = 0;
  // Serial of this node's live evictable-index entry, 0 when absent.
  std::uint64_t evict_serial = 0;
  std::uint32_t index = 0;  // Arena slot.
  std::uint32_t child_count = 0;
};

}  // namespace muxwise::kv

#endif  // MUXWISE_KV_RADIX_TREE_H_
