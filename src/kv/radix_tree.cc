#include "kv/radix_tree.h"

#include <algorithm>

#include "sim/hash.h"
#include "sim/logging.h"

namespace muxwise::kv {

namespace {

/** Position in a query sequence: span index and offset within it. */
struct Cursor {
  std::size_t span = 0;
  std::int64_t offset = 0;
};

/** Moves `at` past exhausted (and empty) spans of `seq`. */
void SkipExhausted(const TokenSeq& seq, Cursor& at) {
  while (at.span < seq.size() && at.offset == seq[at.span].length()) {
    ++at.span;
    at.offset = 0;
  }
}

/**
 * Length of the common prefix of `edge` and `seq` from `at`, in tokens;
 * advances `at` past the matched tokens.
 */
std::int64_t MatchEdge(const TokenSeq& edge, const TokenSeq& seq,
                       Cursor& at) {
  std::int64_t matched = 0;
  for (const TokenSpan& span : edge) {
    std::int64_t done = 0;
    while (done < span.length()) {
      if (at.span == seq.size()) return matched;
      const TokenSpan& query = seq[at.span];
      if (query.stream != span.stream ||
          query.begin + at.offset != span.begin + done) {
        return matched;
      }
      const std::int64_t run =
          std::min(span.length() - done, query.length() - at.offset);
      matched += run;
      done += run;
      at.offset += run;
      SkipExhausted(seq, at);
    }
  }
  return matched;
}

/** Moves the first `offset` tokens of `bottom` into `top` (cleared). */
void SplitEdge(TokenSeq& bottom, std::int64_t offset, TokenSeq& top) {
  top.clear();
  std::size_t whole = 0;  // Spans that move entirely.
  while (offset > 0) {
    TokenSpan& span = bottom[whole];
    const std::int64_t take = std::min(offset, span.length());
    top.push_back({span.stream, span.begin, span.begin + take});
    offset -= take;
    if (take == span.length()) {
      ++whole;
    } else {
      span.begin += take;
    }
  }
  bottom.erase(bottom.begin(),
               bottom.begin() + static_cast<std::ptrdiff_t>(whole));
}

}  // namespace

RadixTree::RadixTree() : slots_(16) { nodes_.emplace_back(); }

RadixTree::~RadixTree() = default;

RadixTree::Node& RadixTree::NewNode(Node& parent) {
  Node* node = nullptr;
  if (free_nodes_.empty()) {
    MUX_CHECK(nodes_.size() < kNoNode);
    node = &nodes_.emplace_back();
    node->index = static_cast<std::uint32_t>(nodes_.size() - 1);
  } else {
    node = &nodes_[free_nodes_.back()];
    free_nodes_.pop_back();
  }
  node->parent = &parent;
  return *node;
}

void RadixTree::FreeNode(Node& node) {
  MUX_CHECK(node.child_count == 0 && node.evict_serial == 0);
  node.edge.clear();  // Keeps its capacity for the next tenant.
  node.parent = nullptr;
  node.edge_tokens = 0;
  node.ref_count = 0;
  node.last_access = 0;
  free_nodes_.push_back(node.index);
}

std::uint32_t RadixTree::ChildHash(std::uint32_t parent, std::int64_t stream,
                                   std::int64_t begin) {
  std::uint64_t x = sim::SplitMix64(static_cast<std::uint64_t>(stream) +
                                    (std::uint64_t{parent} << 32));
  x = sim::SplitMix64Finalize(x ^ static_cast<std::uint64_t>(begin));
  return static_cast<std::uint32_t>(x >> 32);
}

std::uint32_t RadixTree::HashOf(const Node& child) {
  return ChildHash(child.parent->index, child.edge.front().stream,
                   child.edge.front().begin);
}

std::uint32_t RadixTree::FindChild(const Node& parent, std::int64_t stream,
                                   std::int64_t begin) const {
  const std::uint32_t hash = ChildHash(parent.index, stream, begin);
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.node == kNoNode) return kNoNode;
    if (slot.hash != hash) continue;
    const Node& child = nodes_[slot.node];
    if (child.parent == &parent && child.edge.front().stream == stream &&
        child.edge.front().begin == begin) {
      return slot.node;
    }
  }
}

std::size_t RadixTree::SlotOf(const Node& child) const {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = HashOf(child) & mask;; i = (i + 1) & mask) {
    MUX_CHECK(slots_[i].node != kNoNode);
    if (slots_[i].node == child.index) return i;
  }
}

void RadixTree::PlaceSlot(Slot slot) {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = slot.hash & mask;
  while (slots_[i].node != kNoNode) i = (i + 1) & mask;
  slots_[i] = slot;
}

void RadixTree::LinkChild(Node& child) {
  if (2 * (node_count_ + 1) > slots_.size()) {
    std::vector<Slot> old(2 * slots_.size());
    old.swap(slots_);
    for (const Slot& slot : old) {
      if (slot.node != kNoNode) PlaceSlot(slot);
    }
  }
  PlaceSlot({HashOf(child), child.index});
  ++child.parent->child_count;
  ++node_count_;
}

void RadixTree::UnlinkChild(Node& child) {
  // Backward-shift deletion: pull each later entry of the probe run
  // into the hole unless that would move it before its home slot.
  const std::size_t mask = slots_.size() - 1;
  std::size_t hole = SlotOf(child);
  for (std::size_t i = (hole + 1) & mask; slots_[i].node != kNoNode;
       i = (i + 1) & mask) {
    const std::size_t home = slots_[i].hash & mask;
    if (((i - home) & mask) >= ((i - hole) & mask)) {
      slots_[hole] = slots_[i];
      hole = i;
    }
  }
  slots_[hole] = Slot{};
  --child.parent->child_count;
  --node_count_;
}

bool RadixTree::IsLive(const EvictEntry& entry) {
  return entry.node->evict_serial == entry.serial;
}

void RadixTree::Touch(Node& node, sim::Time now) {
  if (node.last_access == now) return;
  node.last_access = now;
  Deindex(node);  // Its entry carries the old stamp.
}

void RadixTree::Reindex(Node& node) {
  if (node.parent == nullptr) return;  // The root is never evicted.
  if (node.child_count != 0 || node.ref_count != 0) {
    Deindex(node);
    return;
  }
  if (node.evict_serial != 0) return;  // Indexed under its stamp.
  const EvictEntry entry{node.last_access, next_serial_++, &node};
  node.evict_serial = entry.serial;
  ++evictable_count_;
  if (lane_head_ == lane_.size() || !Before(entry, lane_.back())) {
    lane_.push_back(entry);
  } else {
    heap_.push_back(entry);
    std::push_heap(heap_.begin(), heap_.end(), EvictsLater{});
  }
}

void RadixTree::Deindex(Node& node) {
  if (node.evict_serial == 0) return;
  node.evict_serial = 0;
  --evictable_count_;
  const std::size_t entries = lane_.size() - lane_head_ + heap_.size();
  if (entries - evictable_count_ > evictable_count_) CompactEvictable();
}

void RadixTree::CompactEvictable() {
  // Entries before the lane head were popped, so none of them is live.
  const auto stale = [](const EvictEntry& e) { return !IsLive(e); };
  lane_head_ = 0;
  std::erase_if(lane_, stale);
  std::erase_if(heap_, stale);
  std::make_heap(heap_.begin(), heap_.end(), EvictsLater{});
}

RadixTree::Node* RadixTree::PopLru() {
  const auto pop_heap = [this] {
    std::pop_heap(heap_.begin(), heap_.end(), EvictsLater{});
    heap_.pop_back();
  };
  const auto pop_lane = [this] {
    // Reclaim the consumed prefix once it is half the lane.
    if (2 * ++lane_head_ >= lane_.size()) {
      lane_.erase(lane_.begin(),
                  lane_.begin() + static_cast<std::ptrdiff_t>(lane_head_));
      lane_head_ = 0;
    }
  };
  while (!heap_.empty() && !IsLive(heap_.front())) pop_heap();
  while (lane_head_ < lane_.size() && !IsLive(lane_[lane_head_])) pop_lane();
  const bool lane_first =
      lane_head_ < lane_.size() &&
      (heap_.empty() || Before(lane_[lane_head_], heap_.front()));
  Node* victim = nullptr;
  if (lane_first) {
    victim = lane_[lane_head_].node;
    pop_lane();
  } else if (!heap_.empty()) {
    victim = heap_.front().node;
    pop_heap();
  } else {
    return nullptr;
  }
  victim->evict_serial = 0;
  --evictable_count_;
  return victim;
}

RadixTree::MatchResult RadixTree::Match(const TokenSeq& seq, sim::Time now,
                                        bool lock) {
  MatchResult result;
  const Node* node = &root();
  Cursor at;
  SkipExhausted(seq, at);
  while (at.span < seq.size()) {
    const TokenSpan& span = seq[at.span];
    const std::uint32_t found =
        FindChild(*node, span.stream, span.begin + at.offset);
    if (found == kNoNode) break;
    Node& child = nodes_[found];
    const std::int64_t common = MatchEdge(child.edge, seq, at);
    MUX_CHECK(common > 0);
    result.matched_tokens += common;
    Touch(child, now);
    if (lock) {
      ++child.ref_count;
      result.lock.node = &child;
    }
    Reindex(child);
    if (common < child.edge_tokens) break;
    node = &child;
  }
  return result;
}

std::int64_t RadixTree::MatchedPrefix(const TokenSeq& seq, sim::Time now) {
  return Match(seq, now, /*lock=*/false).matched_tokens;
}

RadixTree::MatchResult RadixTree::MatchAndLock(const TokenSeq& seq,
                                               sim::Time now) {
  return Match(seq, now, /*lock=*/true);
}

void RadixTree::Unlock(Lock lock) {
  for (Node* node = lock.node; node != nullptr && node != &root();
       node = node->parent) {
    MUX_CHECK(node->ref_count > 0);
    --node->ref_count;
    Reindex(*node);
  }
}

RadixTree::Node& RadixTree::SplitNode(Node& node, std::int64_t offset) {
  MUX_CHECK(offset > 0 && offset < node.edge_tokens);
  MUX_CHECK(node.parent != nullptr);
  // The top part starts where `node` did, so it takes over its slot.
  const std::size_t slot = SlotOf(node);
  Node& top = NewNode(*node.parent);
  SplitEdge(node.edge, offset, top.edge);
  top.edge_tokens = offset;
  node.edge_tokens -= offset;
  top.ref_count = node.ref_count;  // Pins through `node` pin the path.
  top.last_access = node.last_access;
  slots_[slot].node = top.index;
  node.parent = &top;
  LinkChild(node);
  return top;
}

std::pair<std::int64_t, RadixTree::Lock> RadixTree::InsertAndLock(
    const TokenSeq& seq, sim::Time now) {
  Node* node = &root();
  Cursor at;
  SkipExhausted(seq, at);
  std::int64_t added = 0;
  Node* deepest = nullptr;
  while (at.span < seq.size()) {
    const TokenSpan& span = seq[at.span];
    const std::uint32_t found =
        FindChild(*node, span.stream, span.begin + at.offset);
    if (found == kNoNode) {
      Node& leaf = NewNode(*node);
      AppendSpan(leaf.edge, {span.stream, span.begin + at.offset, span.end});
      for (std::size_t i = at.span + 1; i < seq.size(); ++i) {
        AppendSpan(leaf.edge, seq[i]);
      }
      leaf.edge_tokens = SeqLength(leaf.edge);
      leaf.last_access = now;
      leaf.ref_count = 1;
      added += leaf.edge_tokens;
      total_tokens_ += leaf.edge_tokens;
      LinkChild(leaf);
      Reindex(*node);  // The parent stopped being an evictable leaf.
      deepest = &leaf;
      break;
    }
    Node* child = &nodes_[found];
    const std::int64_t common = MatchEdge(child->edge, seq, at);
    MUX_CHECK(common > 0);
    if (common < child->edge_tokens) {
      // The new sequence diverges (or ends) inside this edge: split so
      // the shared top part becomes its own node.
      child = &SplitNode(*child, common);
    }
    Touch(*child, now);
    ++child->ref_count;
    Reindex(*child);
    deepest = child;
    node = child;
  }
  return {added, Lock{deepest}};
}

std::int64_t RadixTree::EvictLru(std::int64_t tokens_needed) {
  std::int64_t freed = 0;
  while (freed < tokens_needed) {
    Node* victim = PopLru();
    if (victim == nullptr) break;
    MUX_CHECK(victim->child_count == 0 && victim->ref_count == 0);
    Node& parent = *victim->parent;
    freed += victim->edge_tokens;
    total_tokens_ -= victim->edge_tokens;
    UnlinkChild(*victim);
    FreeNode(*victim);
    Reindex(parent);  // The parent may have become an evictable leaf.
  }
  return freed;
}

std::int64_t RadixTree::LockedTokens() const {
  std::int64_t locked = 0;
  for (const Node& node : nodes_) {
    if (node.parent != nullptr && node.ref_count > 0) {
      locked += node.edge_tokens;
    }
  }
  return locked;
}

void RadixTree::Verify(
    const std::function<void(const std::string&)>& violate) const {
  const auto check = [&violate](bool ok, const char* what) {
    if (!ok) violate(what);
  };
  std::int64_t tokens = 0;
  std::size_t nodes = 0;
  std::size_t evictable_leaves = 0;
  std::vector<std::uint32_t> children(nodes_.size(), 0);
  std::uint32_t index = 0;
  for (const Node& node : nodes_) {
    check(node.index == index++, "node arena index out of sync");
    if (node.parent == nullptr) continue;  // The root or a free node.
    ++nodes;
    tokens += node.edge_tokens;
    if (node.edge.empty()) {
      violate("non-root node with empty edge");
      continue;
    }
    if (node.ref_count < 0) {
      violate("negative ref_count " + std::to_string(node.ref_count));
    }
    check(node.edge_tokens == SeqLength(node.edge),
          "cached edge length disagrees with the edge");
    const Node& parent = *node.parent;
    check(&parent == &root() || parent.parent != nullptr,
          "child with stale parent link");
    ++children[parent.index];
    check(FindChild(parent, node.edge.front().stream,
                    node.edge.front().begin) == node.index,
          "node missing from the child index under its key");
    // A child pinned by a lock implies the parent is pinned too,
    // because locks increment every node on the path.
    if (&parent != &root() && node.ref_count > 0) {
      check(parent.ref_count > 0,
            "pinned child under unpinned parent (locks must pin whole "
            "paths)");
    }
    const bool evictable = node.child_count == 0 && node.ref_count == 0;
    if (evictable) ++evictable_leaves;
    check(evictable == (node.evict_serial != 0),
          "evictable-leaf index membership out of sync");
  }
  for (const Node& node : nodes_) {
    if (&node == &root() || node.parent != nullptr) {
      check(children[node.index] == node.child_count,
            "child count disagrees with the node's children");
    }
  }

  std::size_t live_entries = 0;
  const auto count = [&](const EvictEntry& entry) {
    if (!IsLive(entry)) return;
    ++live_entries;
    check(entry.last_access == entry.node->last_access,
          "evictable-leaf index key is stale");
  };
  for (std::size_t i = lane_head_; i < lane_.size(); ++i) {
    count(lane_[i]);
    if (i > lane_head_) {
      check(Before(lane_[i - 1], lane_[i]), "evictable lane out of order");
    }
  }
  for (const EvictEntry& entry : heap_) count(entry);
  check(std::is_heap(heap_.begin(), heap_.end(), EvictsLater{}),
        "evictable heap out of order");

  if (tokens != total_tokens_) {
    violate("edge-token sum " + std::to_string(tokens) +
            " disagrees with total_tokens " + std::to_string(total_tokens_));
  }
  if (nodes != node_count_) {
    violate("node scan " + std::to_string(nodes) +
            " disagrees with node_count " + std::to_string(node_count_));
  }
  const auto linked = static_cast<std::size_t>(std::count_if(
      slots_.begin(), slots_.end(),
      [](const Slot& slot) { return slot.node != kNoNode; }));
  if (linked != nodes) {
    violate("child index holds " + std::to_string(linked) +
            " entries for " + std::to_string(nodes) + " nodes");
  }
  if (evictable_leaves != live_entries || live_entries != evictable_count_) {
    violate("evictable-leaf scan " + std::to_string(evictable_leaves) +
            " disagrees with live index entries " +
            std::to_string(live_entries) + " (counted " +
            std::to_string(evictable_count_) + ")");
  }
}

void RadixTree::CheckInvariants() const {
  Verify([](const std::string& what) {
    sim::Panic("RadixTree invariant violated: " + what);
  });
}

void RadixTree::Audit(check::AuditContext& ctx) const {
  Verify([&ctx](const std::string& what) { ctx.Violate(what); });
}

}  // namespace muxwise::kv
