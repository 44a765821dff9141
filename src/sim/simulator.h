#ifndef MUXWISE_SIM_SIMULATOR_H_
#define MUXWISE_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "check/invariant_registry.h"
#include "sim/time.h"

namespace muxwise::sim {

/**
 * Opaque handle used to cancel a scheduled event: the event's arena slot
 * in the top 24 bits above its 40-bit serial. Never kInvalidEventId.
 */
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEventId = 0;

/**
 * Who may observe an event: the global domain, or one that NewDomain()
 * made for a component whose events touch only its own state (a fleet
 * replica's device, host thread, timers and links). An event that
 * names no domain is global.
 */
using Domain = std::uint32_t;
inline constexpr Domain kGlobalDomain = 0;

/**
 * Discrete-event simulator core.
 *
 * Single-threaded by design: all model components (GPU streams, serving
 * engines, workload frontends) interact solely by scheduling callbacks on
 * one Simulator, which executes them in (time, insertion-order) order.
 * That total order makes every experiment bit-reproducible. The clock
 * moves only when an event runs or a RunUntil horizon is reached; work
 * priced ahead of the loop (a decode stretch) ends in an event of its
 * own.
 *
 * Performance structure (the hottest loop in the codebase):
 *
 *  - Event records live in a pooled arena (`pool_`) recycled through a
 *    free list, so steady-state scheduling allocates nothing.
 *  - The ready queue is two structures of POD entries (when, id, slot),
 *    merged at pop time by the strict (when, id) order: an append-only
 *    sorted lane taking every entry that does not precede its tail
 *    (pre-scheduled, time-sorted arrivals), and a hand-rolled binary
 *    min-heap taking the rest (near-future completions), which therefore
 *    stays shallow. The monotonic id doubles as the FIFO tie-break serial
 *    for same-timestamp events *and* as the staleness witness for
 *    cancelled entries (an entry whose id no longer matches its pool
 *    slot is a tombstone, skipped on pop).
 *  - An EventId handle carries its arena slot beside the serial, so
 *    Cancel() finds the event without any id -> slot map.
 *  - Events of a domain from NewDomain() go to that domain's own binary
 *    heap, and a pop takes the least of every top, so AdvanceBound()
 *    can read one domain's next event.
 *
 * None of this changes observable ordering: events still execute in
 * exactly (when, id) order, so event-stream digests are bit-identical
 * to the earlier std::priority_queue implementation.
 */
class Simulator {
 public:
  using Callback = std::function<void()>;

  Simulator() = default;

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /** Current simulated time. */
  Time Now() const { return now_; }

  /**
   * Schedules `cb` to run at absolute time `when` (>= Now()).
   * Returns a handle usable with Cancel().
   */
  EventId ScheduleAt(Time when, Callback cb) {
    return Schedule(when, kGlobalDomain, std::move(cb));
  }

  /** ScheduleAt, for an event of `domain`. */
  EventId ScheduleAt(Time when, Domain domain, Callback cb) {
    return Schedule(when, domain, std::move(cb));
  }

  /** Schedules `cb` to run `delay` after the current time. */
  EventId ScheduleAfter(Duration delay, Callback cb);

  /** ScheduleAfter, for an event of `domain`. */
  EventId ScheduleAfter(Duration delay, Domain domain, Callback cb);

  /**
   * A new event domain. Events of different domains still run in one
   * (time, schedule order); domains only narrow AdvanceBound(). A
   * simulator keeps no per-domain state before the first call.
   */
  Domain NewDomain();

  /**
   * Cancels pending event `place` and schedules `cb` at `when` (>= Now())
   * in `domain` in its stead, keeping its schedule order: among events
   * due at the same time, it runs where one scheduled together with
   * `place` would. Returns the new handle.
   */
  EventId Replace(EventId place, Time when, Domain domain, Callback cb);

  /**
   * Cancels a pending event. Safe to call with a handle whose event
   * already fired or was already cancelled, even once its slot holds a
   * newer event, and with kInvalidEventId (all no-ops returning false).
   */
  bool Cancel(EventId id);

  /**
   * Runs until the event queue drains or `max_events` events have run
   * (the livelock guard of drivers with no time horizon). Returns
   * events executed.
   */
  std::size_t Run(std::size_t max_events = SIZE_MAX);

  /**
   * Runs all events with timestamp <= `until`, then sets Now() to `until`
   * (even if the queue drained earlier). Returns events executed.
   */
  std::size_t RunUntil(Time until);

  /**
   * Like RunUntil(until), but executes at most `max_events` events — the
   * guard that lets a driver terminate a livelocked scenario (e.g. a
   * zero-delay event loop that never advances time) with a diagnostic
   * instead of spinning forever. When the budget ends the run early,
   * Now() stays at the last executed event's time rather than advancing
   * to `until`. Returns events executed.
   */
  std::size_t RunUntil(Time until, std::size_t max_events);

  /**
   * Timestamp of the earliest pending event, kTimeNever when drained.
   * Non-const: discards cancelled tombstones on its way to the answer.
   */
  Time NextEventTime();

  /** Executes exactly one event if any is pending. Returns true if so. */
  bool Step();

  /**
   * How far `domain` may run ahead of the event loop: the horizon of a
   * running RunUntil (Step and Run have none, and neither has code
   * running outside them), capped one tick before the earliest pending
   * event of `domain` or of the global domain. For kGlobalDomain that
   * is every pending event: the latest time an event scheduled now can
   * fall due with no other event before it. Before Now() when such an
   * event is due now. The answer holds until an event is scheduled or
   * cancelled. Non-const for the same reason as NextEventTime().
   */
  Time AdvanceBound(Domain domain = kGlobalDomain);

  /** True when no live events remain. */
  bool Empty() const { return live_events_ == 0; }

  /** Number of events pending (excludes cancelled tombstones). */
  std::size_t PendingEvents() const { return live_events_; }

  /** Total events executed since construction. */
  std::size_t ExecutedEvents() const { return executed_; }

  /**
   * Order-sensitive digest of the executed event stream: a hash folded
   * over (when, id) of every event fired so far. Two runs of the same
   * scenario must produce identical digests — the witness the harness's
   * determinism verifier compares. Any reordering, dropped event, or
   * timing change perturbs it.
   */
  std::uint64_t EventDigest() const { return digest_; }

  /**
   * Registers event-queue consistency audits: the live-event count
   * matches the arena scan, no pending event precedes Now(), the lane is
   * sorted from its head, and every live slot is queued exactly once.
   */
  void RegisterAudits(check::InvariantRegistry& registry) const;

 private:
  /**
   * Pooled event record. A slot whose `id` is kInvalidEventId is free
   * (linked through `next_free`); Cancel() frees the slot immediately,
   * which implicitly tombstones the queue entry still pointing at it.
   */
  struct Event {
    Time when = 0;
    EventId id = kInvalidEventId;  // The serial, without the slot bits.
    Callback callback;
    std::uint32_t next_free = kNoFreeSlot;
  };

  /** Queue entry: everything a comparison or a staleness check needs. */
  struct QueueEntry {
    Time when = 0;
    EventId id = kInvalidEventId;  // Monotonic FIFO tie-break serial.
    std::uint32_t slot = 0;
  };

  static constexpr std::uint32_t kNoFreeSlot = 0xffffffffu;
  static constexpr int kSerialBits = 40;
  static constexpr EventId kSerialMask = (EventId{1} << kSerialBits) - 1;

  /** Strict (when, id) ordering — same-time events run in schedule order. */
  static bool Before(const QueueEntry& a, const QueueEntry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.id < b.id;
  }

  bool IsLive(const QueueEntry& entry) const {
    return pool_[entry.slot].id == entry.id;
  }

  std::uint32_t AllocSlot();
  void FreeSlot(std::uint32_t slot);

  EventId Schedule(Time when, Domain domain, Callback&& cb);

  /** Fills a fresh slot for event `id` and returns its queue entry. */
  QueueEntry NewEvent(Time when, EventId id, Callback&& cb);

  /** Queues `entry` of `domain`, a domain other than the global one. */
  void PushToDomain(Domain domain, const QueueEntry& entry);

  /** The Cancel() handle of a queued event. */
  static EventId Handle(const QueueEntry& entry) {
    return (static_cast<EventId>(entry.slot) << kSerialBits) | entry.id;
  }

  static void HeapPush(std::vector<QueueEntry>& heap, const QueueEntry& entry);
  static void HeapPopTop(std::vector<QueueEntry>& heap);

  /** Discards tombstones at the top of a domain's heap; its top or null. */
  const QueueEntry* DomainTop(std::vector<QueueEntry>& heap);

  /** Pops `top` when it heads a domain's heap; false when none does. */
  bool PopDomainTop(const QueueEntry* top);

  /** Advances the lane head, compacting once it passes half the lane. */
  void LanePopFront();

  /**
   * Discards tombstones at the heap top and the lane head, returning the
   * live minimum of the two (nullptr when drained). The returned pointer
   * is invalidated by any schedule/pop.
   */
  const QueueEntry* PeekGlobal();

  /** PeekGlobal, and every domain's top: the live minimum of them all. */
  const QueueEntry* PeekLive();

  /**
   * Pops `top` (PeekLive()'s answer) from the heap or the lane and
   * executes it: advances Now(), folds the digest, releases the slot,
   * and invokes the callback (the callback may freely schedule or
   * cancel).
   */
  void ExecuteTop(const QueueEntry* top);

  /** Folds one executed event into the stream digest. */
  void FoldDigest(Time when, EventId id);

  Time now_ = kTimeZero;
  Time horizon_ = kTimeNever;  // RunUntil's `until` while it runs.
  EventId next_id_ = 1;
  std::size_t executed_ = 0;
  std::uint64_t digest_ = 0x9e3779b97f4a7c15ULL;
  std::size_t live_events_ = 0;

  std::vector<Event> pool_;
  std::uint32_t free_head_ = kNoFreeSlot;
  std::vector<QueueEntry> heap_;
  // Sorted by (when, id) from lane_head_; entries before it are popped.
  std::vector<QueueEntry> lane_;
  std::size_t lane_head_ = 0;
  // The heap of domain d's events, at d - 1; the global domain's events
  // are in heap_ and lane_.
  std::vector<std::vector<QueueEntry>> domains_;
};

}  // namespace muxwise::sim

#endif  // MUXWISE_SIM_SIMULATOR_H_
