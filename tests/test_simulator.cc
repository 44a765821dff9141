#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "check/invariant_registry.h"
#include "frozen_digests.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace muxwise::sim {
namespace {

TEST(SimulatorTest, StartsAtTimeZero) {
  Simulator simulator;
  EXPECT_EQ(simulator.Now(), kTimeZero);
  EXPECT_TRUE(simulator.Empty());
}

TEST(SimulatorTest, ExecutesEventAtScheduledTime) {
  Simulator simulator;
  Time fired_at = -1;
  simulator.ScheduleAt(Milliseconds(5),
                       [&] { fired_at = simulator.Now(); });
  simulator.Run();
  EXPECT_EQ(fired_at, Milliseconds(5));
  EXPECT_EQ(simulator.Now(), Milliseconds(5));
}

TEST(SimulatorTest, ScheduleAfterUsesCurrentTime) {
  Simulator simulator;
  Time fired_at = -1;
  simulator.ScheduleAt(Milliseconds(10), [&] {
    simulator.ScheduleAfter(Milliseconds(3),
                            [&] { fired_at = simulator.Now(); });
  });
  simulator.Run();
  EXPECT_EQ(fired_at, Milliseconds(13));
}

TEST(SimulatorTest, ExecutesInTimeOrder) {
  Simulator simulator;
  std::vector<int> order;
  simulator.ScheduleAt(Milliseconds(30), [&] { order.push_back(3); });
  simulator.ScheduleAt(Milliseconds(10), [&] { order.push_back(1); });
  simulator.ScheduleAt(Milliseconds(20), [&] { order.push_back(2); });
  simulator.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, SameTimeEventsRunInInsertionOrder) {
  Simulator simulator;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    simulator.ScheduleAt(Milliseconds(1), [&order, i] { order.push_back(i); });
  }
  simulator.Run();
  ASSERT_EQ(order.size(), 16u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(SimulatorTest, SameTickStormKeepsFifoUnderCancellationChurn) {
  // A same-tick storm with interleaved cancellations: FIFO-within-tick
  // (ascending schedule order) must survive heap sifts, arena slot
  // recycling and lazy tombstone discards.
  Simulator simulator;
  std::vector<int> order;
  std::vector<int> expected;
  for (int round = 0; round < 40; ++round) {
    const Time tick = Milliseconds(round + 1);
    std::vector<EventId> ids;
    for (int i = 0; i < 64; ++i) {
      ids.push_back(simulator.ScheduleAt(
          tick, [&order, round, i] { order.push_back(round * 64 + i); }));
    }
    // Cancel every third event; their recycled slots are immediately
    // reused by a second wave scheduled on the same tick.
    for (int i = 0; i < 64; i += 3) {
      ASSERT_TRUE(simulator.Cancel(ids[i]));
    }
    for (int i = 0; i < 64; ++i) {
      if (i % 3 != 0) expected.push_back(round * 64 + i);
    }
    for (int i = 0; i < 8; ++i) {
      simulator.ScheduleAt(tick, [&order, round, i] {
        order.push_back(round * 64 + 64 + i);
      });
      expected.push_back(round * 64 + 64 + i);
    }
  }
  simulator.Run();
  EXPECT_EQ(order, expected);
}

TEST(SimulatorTest, SameTickStormDigestIsFrozen) {
  // The storm schedule is integer-only, so its digest is identical on
  // every platform; freezing it pins the (when, id) execution-order
  // contract — FIFO tie-breaks and id assignment — across refactors.
  auto run = [] {
    Simulator simulator;
    std::vector<EventId> ids;
    for (int round = 0; round < 16; ++round) {
      const Time tick = Microseconds(10 * (round + 1));
      ids.clear();
      for (int i = 0; i < 32; ++i) {
        ids.push_back(simulator.ScheduleAt(tick, [] {}));
      }
      for (int i = 1; i < 32; i += 4) simulator.Cancel(ids[i]);
      for (int i = 0; i < 4; ++i) simulator.ScheduleAt(tick, [] {});
    }
    simulator.Run();
    return simulator.EventDigest();
  };
  const std::uint64_t digest = run();
  EXPECT_EQ(digest, run());
  EXPECT_EQ(digest, tests::kSixteenRoundStormDigest)
      << "digest drifted to " << std::hex << digest;
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator simulator;
  bool fired = false;
  const EventId id =
      simulator.ScheduleAt(Milliseconds(1), [&] { fired = true; });
  EXPECT_TRUE(simulator.Cancel(id));
  simulator.Run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(simulator.ExecutedEvents(), 0u);
}

TEST(SimulatorTest, CancelTwiceReturnsFalse) {
  Simulator simulator;
  const EventId id = simulator.ScheduleAt(Milliseconds(1), [] {});
  EXPECT_TRUE(simulator.Cancel(id));
  EXPECT_FALSE(simulator.Cancel(id));
}

TEST(SimulatorTest, CancelAfterFireReturnsFalse) {
  Simulator simulator;
  const EventId id = simulator.ScheduleAt(Milliseconds(1), [] {});
  simulator.Run();
  EXPECT_FALSE(simulator.Cancel(id));
}

TEST(SimulatorTest, CancelUnknownIdReturnsFalse) {
  Simulator simulator;
  EXPECT_FALSE(simulator.Cancel(12345));
}

TEST(SimulatorTest, StaleHandleOfRecycledSlotDoesNotCancelNewOccupant) {
  Simulator simulator;
  const EventId stale = simulator.ScheduleAt(Milliseconds(1), [] {});
  ASSERT_TRUE(simulator.Cancel(stale));
  bool fired = false;
  const EventId occupant =
      simulator.ScheduleAt(Milliseconds(1), [&] { fired = true; });
  // The occupant reuses the freed arena slot (the handle's top 24 bits).
  ASSERT_EQ(stale >> 40, occupant >> 40);
  ASSERT_NE(stale, occupant);
  EXPECT_FALSE(simulator.Cancel(stale));
  EXPECT_FALSE(simulator.Cancel(kInvalidEventId));
  EXPECT_FALSE(simulator.Cancel(~EventId{0}));  // Slot out of range.
  EXPECT_EQ(simulator.PendingEvents(), 1u);
  simulator.Run();
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, LaneRestartedBelowPendingHeapEntriesKeepsFifo) {
  // The one way a heap entry can tie a later lane entry on time: the
  // lane's tail is cancelled, everything above the heap entries drains,
  // and the emptied lane restarts at their timestamp.
  Simulator simulator;
  std::vector<int> order;
  simulator.ScheduleAt(Milliseconds(1), [&] { order.push_back(0); });
  const EventId tail = simulator.ScheduleAt(Milliseconds(3), [] {});
  simulator.ScheduleAt(Milliseconds(2), [&] { order.push_back(1); });
  simulator.ScheduleAt(Milliseconds(2), [&] { order.push_back(2); });
  ASSERT_TRUE(simulator.Cancel(tail));
  simulator.RunUntil(Milliseconds(1));
  simulator.ScheduleAt(Milliseconds(2), [&] { order.push_back(3); });
  simulator.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(SimulatorTest, PendingEventsExcludesCancelled) {
  Simulator simulator;
  simulator.ScheduleAt(Milliseconds(1), [] {});
  const EventId id = simulator.ScheduleAt(Milliseconds(2), [] {});
  EXPECT_EQ(simulator.PendingEvents(), 2u);
  simulator.Cancel(id);
  EXPECT_EQ(simulator.PendingEvents(), 1u);
}

TEST(SimulatorTest, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulator simulator;
  std::vector<Time> fired;
  simulator.ScheduleAt(Milliseconds(5), [&] { fired.push_back(5); });
  simulator.ScheduleAt(Milliseconds(15), [&] { fired.push_back(15); });
  simulator.RunUntil(Milliseconds(10));
  EXPECT_EQ(fired, (std::vector<Time>{5}));
  EXPECT_EQ(simulator.Now(), Milliseconds(10));
  simulator.Run();
  EXPECT_EQ(fired, (std::vector<Time>{5, 15}));
}

TEST(SimulatorTest, RunUntilBoundaryIsInclusive) {
  Simulator simulator;
  bool fired = false;
  simulator.ScheduleAt(Milliseconds(10), [&] { fired = true; });
  simulator.RunUntil(Milliseconds(10));
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, AdvanceBoundStopsShortOfPendingEventsAndTheHorizon) {
  Simulator simulator;
  std::vector<Time> bounds;
  simulator.ScheduleAt(Milliseconds(5), [&] {
    bounds.push_back(simulator.AdvanceBound());  // One tick before 8 ms.
    simulator.ScheduleAt(Milliseconds(5), [] {});
    bounds.push_back(simulator.AdvanceBound());  // An event is due now.
  });
  simulator.ScheduleAt(Milliseconds(8), [&] {
    // Nothing else is pending: only RunUntil's horizon bounds the jump.
    bounds.push_back(simulator.AdvanceBound());
  });
  simulator.RunUntil(Milliseconds(10));
  EXPECT_EQ(bounds, (std::vector<Time>{Milliseconds(8) - 1,
                                       Milliseconds(5) - 1, Milliseconds(10)}));
  // Outside RunUntil there is no horizon, and with nothing pending no
  // finite time is out of reach.
  EXPECT_EQ(simulator.AdvanceBound(), kTimeNever - 1);
  simulator.ScheduleAt(Seconds(100), [] {});
  EXPECT_EQ(simulator.AdvanceBound(), Seconds(100) - 1);
}

TEST(SimulatorTest, StepExecutesExactlyOneEvent) {
  Simulator simulator;
  int count = 0;
  simulator.ScheduleAt(Milliseconds(1), [&] { ++count; });
  simulator.ScheduleAt(Milliseconds(2), [&] { ++count; });
  EXPECT_TRUE(simulator.Step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(simulator.Step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(simulator.Step());
}

TEST(SimulatorTest, EventsCanScheduleMoreEvents) {
  Simulator simulator;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) simulator.ScheduleAfter(Microseconds(1), recurse);
  };
  simulator.ScheduleAt(0, recurse);
  simulator.Run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(simulator.ExecutedEvents(), 100u);
}

TEST(SimulatorTest, CancellingFromWithinEventWorks) {
  Simulator simulator;
  bool second_fired = false;
  EventId second = kInvalidEventId;
  simulator.ScheduleAt(Milliseconds(1),
                       [&] { EXPECT_TRUE(simulator.Cancel(second)); });
  second = simulator.ScheduleAt(Milliseconds(2), [&] { second_fired = true; });
  simulator.Run();
  EXPECT_FALSE(second_fired);
}

/**
 * Property test: a random schedule/cancel workload matches a reference
 * model executed with stable sorting.
 */
TEST(SimulatorPropertyTest, MatchesReferenceModelUnderRandomWorkload) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    Simulator simulator;
    struct Ref {
      Time when;
      int tag;
      bool cancelled = false;
    };
    std::vector<Ref> reference;
    std::vector<EventId> ids;
    std::vector<int> executed;

    for (int i = 0; i < 200; ++i) {
      const Time when = Milliseconds(rng.UniformInt(0, 50));
      reference.push_back(Ref{when, i});
      ids.push_back(
          simulator.ScheduleAt(when, [&executed, i] { executed.push_back(i); }));
    }
    // Cancel a random 25%.
    for (int i = 0; i < 200; ++i) {
      if (rng.Bernoulli(0.25)) {
        simulator.Cancel(ids[static_cast<std::size_t>(i)]);
        reference[static_cast<std::size_t>(i)].cancelled = true;
      }
    }
    simulator.Run();

    std::vector<int> expected;
    std::vector<Ref> live;
    for (const Ref& r : reference) {
      if (!r.cancelled) live.push_back(r);
    }
    std::stable_sort(live.begin(), live.end(),
                     [](const Ref& a, const Ref& b) { return a.when < b.when; });
    for (const Ref& r : live) expected.push_back(r.tag);
    EXPECT_EQ(executed, expected) << "seed " << seed;
  }
}

/**
 * Property test for the two ready-queue structures: a time-sorted
 * pre-scheduled batch (with equal-time runs) fills the sorted lane while
 * callbacks schedule near-future events that tie with it on time, cancel
 * ~25% of all handles ever returned (fired, cancelled and pending
 * alike), and the outer loop mixes Step, RunUntil and Run. Execution
 * order must be the stable sort by time of everything scheduled and not
 * cancelled, and the queue audits must hold at every pause.
 */
TEST(SimulatorPropertyTest, LaneAndHeapMergeMatchesReferenceModel) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    Simulator simulator;
    check::InvariantRegistry registry;
    simulator.RegisterAudits(registry);
    struct Ref {
      Time when;
      bool cancelled = false;
      bool fired = false;
    };
    std::vector<Ref> reference;  // Indexed by tag, in schedule order.
    std::vector<EventId> ids;
    std::vector<int> executed;
    std::function<void(Time)> schedule = [&](Time when) {
      const int tag = static_cast<int>(reference.size());
      reference.push_back(Ref{when});
      ids.push_back(simulator.ScheduleAt(when, [&, tag] {
        executed.push_back(tag);
        reference[static_cast<std::size_t>(tag)].fired = true;
        const std::int64_t children = tag < 1500 ? rng.UniformInt(0, 2) : 0;
        for (std::int64_t c = 0; c < children; ++c) {
          schedule(simulator.Now() + Milliseconds(rng.UniformInt(0, 5)));
        }
        if (rng.Bernoulli(0.25)) {
          const auto victim = static_cast<std::size_t>(
              rng.UniformInt(0, static_cast<std::int64_t>(ids.size()) - 1));
          Ref& ref = reference[victim];
          const bool pending = !ref.fired && !ref.cancelled;
          EXPECT_EQ(simulator.Cancel(ids[victim]), pending)
              << "seed " << seed << " victim " << victim;
          ref.cancelled = ref.cancelled || pending;
        }
      }));
    };

    Time when = 0;
    for (int i = 0; i < 300; ++i) {
      when += Milliseconds(rng.UniformInt(0, 3));  // 0 extends a run.
      schedule(when);
    }
    while (!simulator.Empty()) {
      switch (rng.UniformInt(0, 3)) {
        case 0:
          simulator.Step();
          break;
        case 1:
          simulator.RunUntil(simulator.Now() +
                             Milliseconds(rng.UniformInt(0, 4)));
          break;
        case 2:
          simulator.RunUntil(
              simulator.Now() + Milliseconds(rng.UniformInt(0, 8)),
              static_cast<std::size_t>(rng.UniformInt(1, 6)));
          break;
        default:
          simulator.Run(static_cast<std::size_t>(rng.UniformInt(1, 20)));
          break;
      }
      EXPECT_TRUE(registry.RunAll().empty()) << "seed " << seed;
    }

    std::vector<int> expected;
    for (std::size_t tag = 0; tag < reference.size(); ++tag) {
      if (!reference[tag].cancelled) expected.push_back(static_cast<int>(tag));
    }
    std::stable_sort(expected.begin(), expected.end(), [&](int a, int b) {
      return reference[static_cast<std::size_t>(a)].when <
             reference[static_cast<std::size_t>(b)].when;
    });
    EXPECT_EQ(executed, expected) << "seed " << seed;
    EXPECT_GT(reference.size(), 600u) << "seed " << seed;
  }
}

TEST(TimeTest, ConversionRoundTrips) {
  EXPECT_EQ(Milliseconds(1.5), Nanoseconds(1500000));
  EXPECT_DOUBLE_EQ(ToMilliseconds(Milliseconds(12.25)), 12.25);
  EXPECT_DOUBLE_EQ(ToSeconds(Seconds(3.5)), 3.5);
  EXPECT_DOUBLE_EQ(ToMicroseconds(Microseconds(7)), 7.0);
}

TEST(TimeTest, FormatDurationPicksUnits) {
  EXPECT_EQ(FormatDuration(Nanoseconds(500)), "500ns");
  EXPECT_EQ(FormatDuration(Microseconds(12)), "12.000us");
  EXPECT_EQ(FormatDuration(Milliseconds(3.5)), "3.500ms");
  EXPECT_EQ(FormatDuration(Seconds(2)), "2.000s");
}


// ------------------------------------------------- pinned driver digests

/**
 * Raw event-queue throughput: `actors` self-rescheduling callbacks with
 * deterministic, distinct delays, plus schedule-then-cancel churn on
 * every 8th firing so the cancellation path stays on the profile. With
 * `preloaded` > 0 the actors churn under that many time-sorted no-op
 * arrivals scheduled up front, 500 ns apart — the queue shape of a
 * replayed trace, whose frontend pre-schedules every arrival.
 */
tests::DriverDigest DriveEvents(std::size_t target_events, int actors,
                                std::size_t preloaded) {
  Simulator simulator;
  for (std::size_t i = 0; i < preloaded; ++i) {
    simulator.ScheduleAt(
        Nanoseconds(1000 + 500 * static_cast<std::int64_t>(i)), [] {});
  }
  std::size_t fired = 0;
  std::vector<std::function<void()>> bodies(
      static_cast<std::size_t>(actors));
  for (int a = 0; a < actors; ++a) {
    bodies[static_cast<std::size_t>(a)] = [&, a] {
      ++fired;
      if (fired >= target_events) return;
      if (fired % 8 == 0) {
        // Schedule-and-cancel: a completion re-rated away, the hottest
        // cancellation pattern in gpu::Gpu.
        const EventId doomed =
            simulator.ScheduleAfter(Microseconds(500), [] {});
        simulator.Cancel(doomed);
      }
      const Duration delay =
          Nanoseconds(1 + (static_cast<Duration>(fired % 97) * (a + 1)));
      simulator.ScheduleAfter(delay, bodies[static_cast<std::size_t>(a)]);
    };
  }
  for (int a = 0; a < actors; ++a) {
    simulator.ScheduleAfter(Nanoseconds(a + 1),
                            bodies[static_cast<std::size_t>(a)]);
  }
  simulator.Run();
  return {simulator.ExecutedEvents(), simulator.EventDigest()};
}

/**
 * Same-tick storms: every round schedules `width` events at one shared
 * timestamp (insertion order defines execution order), and the last of
 * them opens the next round — the adversarial case for the heap's
 * same-timestamp FIFO tie-break.
 */
tests::DriverDigest DriveStorm(std::size_t rounds, std::size_t width) {
  Simulator simulator;
  std::size_t round = 0;
  std::function<void()> start_round = [&] {
    if (round >= rounds) return;
    ++round;
    const Time when = simulator.Now() + Microseconds(10);
    for (std::size_t i = 0; i + 1 < width; ++i) {
      simulator.ScheduleAt(when, [] {});
    }
    simulator.ScheduleAt(when, [&] { start_round(); });
  };
  start_round();
  simulator.Run();
  return {simulator.ExecutedEvents(), simulator.EventDigest()};
}

// Each driver runs twice: both runs must reproduce the pinned witnesses.

TEST(SimulatorDriverTest, EventChurnMatchesItsPinnedDigest) {
  for (int run = 0; run < 2; ++run) {
    EXPECT_EQ(DriveEvents(200'000, 64, 0), tests::kEventChurnDigest)
        << "run " << run;
  }
}

TEST(SimulatorDriverTest, PreloadedChurnMatchesItsPinnedDigest) {
  for (int run = 0; run < 2; ++run) {
    EXPECT_EQ(DriveEvents(200'000, 64, 20'000), tests::kPreloadedChurnDigest)
        << "run " << run;
  }
}

TEST(SimulatorDriverTest, SameTickStormMatchesItsPinnedDigest) {
  for (int run = 0; run < 2; ++run) {
    EXPECT_EQ(DriveStorm(400, 256), tests::kSameTickStormDigest)
        << "run " << run;
  }
}

}  // namespace
}  // namespace muxwise::sim
