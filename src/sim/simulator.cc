#include "sim/simulator.h"

#include <algorithm>
#include <utility>

#include "sim/hash.h"
#include "sim/logging.h"

namespace muxwise::sim {

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

void Simulator::HeapPush(const QueueEntry& entry) {
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

// --- Sorted lane -----------------------------------------------------------

void Simulator::LanePopFront() {
  ++lane_head_;
  // Each compaction moves no more entries than were popped since the
  // last one, so popping stays amortised O(1); an emptied lane resets.
  if (2 * lane_head_ >= lane_.size()) {
    lane_.erase(lane_.begin(),
                lane_.begin() + static_cast<std::ptrdiff_t>(lane_head_));
    lane_head_ = 0;
  }
}

const Simulator::QueueEntry* Simulator::PeekLive() {
  // A cancelled event freed its slot; the slot's id no longer matches
  // (freed, or already recycled by a newer event), marking the entry as
  // a tombstone.
  while (!heap_.empty() && !IsLive(heap_[0])) HeapPopTop();
  while (lane_head_ < lane_.size() && !IsLive(lane_[lane_head_])) {
    LanePopFront();
  }
  const QueueEntry* heap_top = heap_.empty() ? nullptr : &heap_[0];
  if (lane_head_ == lane_.size()) return heap_top;
  const QueueEntry* lane_top = &lane_[lane_head_];
  if (heap_top == nullptr || Before(*lane_top, *heap_top)) return lane_top;
  return heap_top;
}

// --- Scheduling API --------------------------------------------------------

EventId Simulator::ScheduleAt(Time when, Callback cb) {
  MUX_CHECK(when >= now_);
  MUX_CHECK(cb != nullptr);
  // The handle packs the slot above the serial: 2^40 events per
  // simulator and 2^24 simultaneously pending ones.
  MUX_CHECK(next_id_ <= kSerialMask);
  const std::uint32_t slot = AllocSlot();
  MUX_CHECK(slot < (std::uint32_t{1} << (64 - kSerialBits)));
  Event& event = pool_[slot];
  event.when = when;
  event.id = next_id_++;
  event.callback = std::move(cb);
  const QueueEntry entry{when, event.id, slot};
  // Ids grow monotonically, so an entry not earlier than the lane's tail
  // keeps the lane sorted by (when, id).
  if (lane_.empty() || when >= lane_.back().when) {
    lane_.push_back(entry);
  } else {
    HeapPush(entry);
  }
  ++live_events_;
  return (static_cast<EventId>(slot) << kSerialBits) | event.id;
}

EventId Simulator::ScheduleAfter(Duration delay, Callback cb) {
  MUX_CHECK(delay >= 0);
  return ScheduleAt(now_ + delay, std::move(cb));
}

bool Simulator::Cancel(EventId id) {
  const EventId serial = id & kSerialMask;
  const EventId slot = id >> kSerialBits;
  // A free slot's id is kInvalidEventId, so serial 0 must never match.
  if (serial == kInvalidEventId || slot >= pool_.size() ||
      pool_[slot].id != serial) {
    return false;
  }
  // Freeing the slot releases the callback now and implicitly turns the
  // queue entry into a tombstone discarded on its way to the front.
  FreeSlot(static_cast<std::uint32_t>(slot));
  MUX_CHECK(live_events_ > 0);
  --live_events_;
  return true;
}

void Simulator::FoldDigest(Time when, EventId id) {
  digest_ = MixDigest(digest_, static_cast<std::uint64_t>(when));
  digest_ = MixDigest(digest_, id);
}

void Simulator::ExecuteTop(const QueueEntry* top) {
  const QueueEntry entry = *top;
  if (top == heap_.data()) {
    HeapPopTop();
  } else {
    LanePopFront();
  }
  Event& event = pool_[entry.slot];
  MUX_CHECK(event.when >= now_);
  now_ = event.when;
  // Detach the callback and release the slot *before* invoking, so the
  // callback can schedule (possibly reusing this slot) or cancel freely.
  Callback callback = std::move(event.callback);
  FreeSlot(entry.slot);
  MUX_CHECK(live_events_ > 0);
  --live_events_;
  ++executed_;
  FoldDigest(entry.when, entry.id);
  callback();
}

bool Simulator::Step() {
  const QueueEntry* top = PeekLive();
  if (top == nullptr) return false;
  ExecuteTop(top);
  return true;
}

std::size_t Simulator::Run(std::size_t max_events) {
  std::size_t n = 0;
  while (n < max_events && Step()) ++n;
  return n;
}

std::size_t Simulator::RunUntil(Time until) {
  MUX_CHECK(until >= now_);
  std::size_t n = 0;
  while (true) {
    const QueueEntry* top = PeekLive();
    if (top == nullptr || top->when > until) break;
    ExecuteTop(top);
    ++n;
  }
  now_ = until;
  return n;
}

std::size_t Simulator::RunUntil(Time until, std::size_t max_events) {
  MUX_CHECK(until >= now_);
  std::size_t n = 0;
  while (n < max_events) {
    const QueueEntry* top = PeekLive();
    if (top == nullptr || top->when > until) {
      now_ = until;
      return n;
    }
    ExecuteTop(top);
    ++n;
  }
  // Budget exhausted mid-stream: Now() stays at the last event's time so
  // the caller can see where the scenario stalled.
  return n;
}

Time Simulator::NextEventTime() {
  const QueueEntry* top = PeekLive();
  return top == nullptr ? kTimeNever : top->when;
}

void Simulator::RegisterAudits(check::InvariantRegistry& registry) const {
  registry.Register(
      "Simulator", "event-queue-consistency",
      [this](check::AuditContext& ctx) {
        // Every live event owns exactly one arena slot (cancelled events
        // free their slot immediately) and exactly one heap or lane entry
        // carrying its (when, id). Entries whose id no longer matches
        // their slot are tombstones and count for nothing.
        std::vector<std::uint32_t> entries(pool_.size(), 0);
        auto count = [&](const QueueEntry& entry) {
          if (IsLive(entry) && pool_[entry.slot].when == entry.when) {
            ++entries[entry.slot];
          }
        };
        for (const QueueEntry& entry : heap_) count(entry);
        for (std::size_t i = lane_head_; i < lane_.size(); ++i) {
          count(lane_[i]);
          if (i > lane_head_ && !Before(lane_[i - 1], lane_[i])) {
            ctx.Violate("lane entry " + std::to_string(lane_[i].id) +
                        " does not follow " + std::to_string(lane_[i - 1].id));
          }
        }
        std::size_t live = 0;
        Time min_when = kTimeNever;
        for (std::size_t slot = 0; slot < pool_.size(); ++slot) {
          const Event& event = pool_[slot];
          if (event.id == kInvalidEventId) continue;
          ++live;
          min_when = std::min(min_when, event.when);
          ctx.Check(event.callback != nullptr,
                    "live event " + std::to_string(event.id) +
                        " lost its callback");
          if (entries[slot] != 1) {
            ctx.Violate("live event " + std::to_string(event.id) + " has " +
                        std::to_string(entries[slot]) + " queue entries");
          }
        }
        ctx.Check(live == live_events_,
                  "live-event count " + std::to_string(live_events_) +
                      " disagrees with arena scan " + std::to_string(live));
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
