#include "sim/simulator.h"

#include <algorithm>
#include <utility>

#include "sim/logging.h"

namespace muxwise::sim {

namespace {

/** Mixes a 64-bit key (splitmix64 finalizer) for the id index. */
std::uint64_t HashId(std::uint64_t h) {
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

}  // namespace

// --- IdIndex ---------------------------------------------------------------

void Simulator::IdIndex::Grow() {
  const std::size_t capacity = cells_.empty() ? 64 : cells_.size() * 2;
  std::vector<Cell> old = std::move(cells_);
  cells_.assign(capacity, Cell{});
  const std::size_t mask = capacity - 1;
  for (const Cell& cell : old) {
    if (cell.id == kInvalidEventId) continue;
    std::size_t i = HashId(cell.id) & mask;
    while (cells_[i].id != kInvalidEventId) i = (i + 1) & mask;
    cells_[i] = cell;
  }
}

void Simulator::IdIndex::Insert(EventId id, std::uint32_t slot) {
  // Keep the load factor under 3/4 so probe chains stay short.
  if (cells_.empty() || (size_ + 1) * 4 >= cells_.size() * 3) Grow();
  const std::size_t mask = cells_.size() - 1;
  std::size_t i = HashId(id) & mask;
  while (cells_[i].id != kInvalidEventId) i = (i + 1) & mask;
  cells_[i].id = id;
  cells_[i].slot = slot;
  ++size_;
}

bool Simulator::IdIndex::Erase(EventId id, std::uint32_t* slot) {
  if (size_ == 0) return false;
  const std::size_t mask = cells_.size() - 1;
  std::size_t i = HashId(id) & mask;
  while (cells_[i].id != id) {
    if (cells_[i].id == kInvalidEventId) return false;
    i = (i + 1) & mask;
  }
  *slot = cells_[i].slot;
  --size_;
  // Backward-shift deletion: close the probe chain without tombstones.
  std::size_t hole = i;
  std::size_t probe = i;
  while (true) {
    probe = (probe + 1) & mask;
    if (cells_[probe].id == kInvalidEventId) break;
    const std::size_t home = HashId(cells_[probe].id) & mask;
    // `probe`'s entry may fill the hole iff its home position does not
    // lie in the (cyclic) open interval (hole, probe].
    const bool movable = hole <= probe ? (home <= hole || home > probe)
                                       : (home <= hole && home > probe);
    if (movable) {
      cells_[hole] = cells_[probe];
      hole = probe;
    }
  }
  cells_[hole] = Cell{};
  return true;
}

// --- Event arena -----------------------------------------------------------

std::uint32_t Simulator::AllocSlot() {
  if (free_head_ != kNoFreeSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = pool_[slot].next_free;
    return slot;
  }
  pool_.emplace_back();
  return static_cast<std::uint32_t>(pool_.size()) - 1;
}

void Simulator::FreeSlot(std::uint32_t slot) {
  Event& event = pool_[slot];
  event.id = kInvalidEventId;
  event.callback = nullptr;
  event.next_free = free_head_;
  free_head_ = slot;
}

// --- Binary heap -----------------------------------------------------------

void Simulator::HeapPush(const HeapEntry& entry) {
  heap_.push_back(entry);
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!Before(heap_[i], heap_[parent])) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

void Simulator::HeapPopTop() {
  heap_[0] = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  std::size_t i = 0;
  while (true) {
    const std::size_t left = 2 * i + 1;
    if (left >= n) break;
    const std::size_t right = left + 1;
    std::size_t least =
        (right < n && Before(heap_[right], heap_[left])) ? right : left;
    if (!Before(heap_[least], heap_[i])) break;
    std::swap(heap_[i], heap_[least]);
    i = least;
  }
}

const Simulator::HeapEntry* Simulator::PeekLive() {
  while (!heap_.empty()) {
    const HeapEntry& top = heap_[0];
    // A cancelled event freed its slot; the slot's id no longer matches
    // (freed, or already recycled by a newer event), marking the entry
    // as a tombstone.
    if (pool_[top.slot].id == top.id) return &top;
    HeapPopTop();
  }
  return nullptr;
}

// --- Scheduling API --------------------------------------------------------

EventId Simulator::ScheduleAt(Time when, Callback cb) {
  MUX_CHECK(when >= now_);
  MUX_CHECK(cb != nullptr);
  const std::uint32_t slot = AllocSlot();
  Event& event = pool_[slot];
  event.when = when;
  event.id = next_id_++;
  event.callback = std::move(cb);
  index_.Insert(event.id, slot);
  HeapPush(HeapEntry{when, event.id, slot});
  ++live_events_;
  return event.id;
}

EventId Simulator::ScheduleAfter(Duration delay, Callback cb) {
  MUX_CHECK(delay >= 0);
  return ScheduleAt(now_ + delay, std::move(cb));
}

bool Simulator::Cancel(EventId id) {
  std::uint32_t slot = 0;
  if (!index_.Erase(id, &slot)) return false;
  MUX_CHECK(pool_[slot].id == id);
  // Freeing the slot releases the callback now and implicitly turns the
  // heap entry into a tombstone discarded on its way to the top.
  FreeSlot(slot);
  MUX_CHECK(live_events_ > 0);
  --live_events_;
  return true;
}

void Simulator::FoldDigest(Time when, EventId id) {
  // Boost-style hash fold over (when, id); order-sensitive by design.
  auto mix = [](std::uint64_t h, std::uint64_t v) {
    return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
  };
  digest_ = mix(digest_, static_cast<std::uint64_t>(when));
  digest_ = mix(digest_, id);
}

void Simulator::ExecuteTop() {
  const HeapEntry entry = heap_[0];
  HeapPopTop();
  Event& event = pool_[entry.slot];
  MUX_CHECK(event.when >= now_);
  now_ = event.when;
  // Detach the callback and release the slot *before* invoking, so the
  // callback can schedule (possibly reusing this slot) or cancel freely.
  Callback callback = std::move(event.callback);
  std::uint32_t indexed_slot = 0;
  const bool indexed = index_.Erase(entry.id, &indexed_slot);
  MUX_CHECK(indexed);
  FreeSlot(entry.slot);
  MUX_CHECK(live_events_ > 0);
  --live_events_;
  ++executed_;
  FoldDigest(entry.when, entry.id);
  callback();
}

bool Simulator::Step() {
  if (PeekLive() == nullptr) return false;
  ExecuteTop();
  return true;
}

std::size_t Simulator::Run() {
  std::size_t n = 0;
  while (Step()) ++n;
  return n;
}

std::size_t Simulator::RunUntil(Time until) {
  MUX_CHECK(until >= now_);
  std::size_t n = 0;
  while (true) {
    const HeapEntry* top = PeekLive();
    if (top == nullptr || top->when > until) break;
    ExecuteTop();
    ++n;
  }
  now_ = until;
  return n;
}

std::size_t Simulator::RunUntil(Time until, std::size_t max_events) {
  MUX_CHECK(until >= now_);
  std::size_t n = 0;
  while (n < max_events) {
    const HeapEntry* top = PeekLive();
    if (top == nullptr || top->when > until) {
      now_ = until;
      return n;
    }
    ExecuteTop();
    ++n;
  }
  // Budget exhausted mid-stream: Now() stays at the last event's time so
  // the caller can see where the scenario stalled.
  return n;
}

Time Simulator::NextEventTime() {
  const HeapEntry* top = PeekLive();
  return top == nullptr ? kTimeNever : top->when;
}

void Simulator::RegisterAudits(check::InvariantRegistry& registry) const {
  registry.Register(
      "Simulator", "event-queue-consistency",
      [this](check::AuditContext& ctx) {
        // Every live event owns exactly one arena slot (cancelled events
        // free their slot immediately), and the cancellation index holds
        // exactly the live ids.
        std::size_t live = 0;
        Time min_when = kTimeNever;
        for (const Event& event : pool_) {
          if (event.id == kInvalidEventId) continue;
          ++live;
          min_when = std::min(min_when, event.when);
          ctx.Check(event.callback != nullptr,
                    "live event " + std::to_string(event.id) +
                        " lost its callback");
        }
        ctx.Check(live == live_events_,
                  "live-event count " + std::to_string(live_events_) +
                      " disagrees with arena scan " + std::to_string(live));
        ctx.Check(index_.size() == live_events_,
                  "cancellation index holds " + std::to_string(index_.size()) +
                      " ids for " + std::to_string(live_events_) +
                      " live events");
        if (live > 0) {
          ctx.Check(min_when >= now_,
                    "pending event at t=" + std::to_string(min_when) +
                        " precedes Now()=" + std::to_string(now_));
        }
      });
  registry.Register("Simulator", "time-monotonic",
                    [this](check::AuditContext& ctx) {
                      ctx.Check(now_ >= kTimeZero,
                                "Now()=" + std::to_string(now_) +
                                    " ran backwards past simulation start");
                    });
}

}  // namespace muxwise::sim
