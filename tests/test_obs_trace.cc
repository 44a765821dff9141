#include "obs/trace.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace_export.h"
#include "sim/simulator.h"

namespace muxwise::obs {
namespace {

TEST(TraceRecorderTest, InternsStringsInFirstSeenOrder) {
  TraceRecorder recorder;
  EXPECT_EQ(recorder.InternTrack("gpu/s0"), 0u);
  EXPECT_EQ(recorder.InternTrack("gpu/s1"), 1u);
  EXPECT_EQ(recorder.InternTrack("gpu/s0"), 0u);  // Idempotent.
  EXPECT_EQ(recorder.InternName("kernel"), 0u);
  EXPECT_EQ(recorder.InternName("hbm-share"), 1u);
  EXPECT_EQ(recorder.InternName("kernel"), 0u);
  ASSERT_EQ(recorder.tracks().size(), 2u);
  ASSERT_EQ(recorder.names().size(), 2u);
  EXPECT_EQ(recorder.tracks()[1], "gpu/s1");
  EXPECT_EQ(recorder.names()[1], "hbm-share");
}

TEST(TraceRecorderTest, UnboundedRecorderKeepsEverything) {
  TraceRecorder recorder;
  const std::uint32_t track = recorder.InternTrack("t");
  const std::uint32_t name = recorder.InternName("n");
  for (int i = 0; i < 1000; ++i) {
    recorder.Record({EventKind::kInstant, track, name, i, i, 0.0});
  }
  EXPECT_EQ(recorder.size(), 1000u);
  EXPECT_EQ(recorder.dropped(), 0u);
  const std::vector<TraceEvent> events = recorder.Events();
  EXPECT_EQ(events.front().time, 0);
  EXPECT_EQ(events.back().time, 999);
}

TEST(TraceRecorderTest, BoundedRingDropsOldestFirst) {
  TraceRecorder recorder(TraceRecorder::Options{.ring_capacity = 4});
  const std::uint32_t track = recorder.InternTrack("t");
  const std::uint32_t name = recorder.InternName("n");
  for (int i = 0; i < 10; ++i) {
    recorder.Record({EventKind::kInstant, track, name, i, i, 0.0});
  }
  EXPECT_EQ(recorder.size(), 4u);
  EXPECT_EQ(recorder.dropped(), 6u);
  const std::vector<TraceEvent> events = recorder.Events();
  ASSERT_EQ(events.size(), 4u);
  // Survivors are the newest four, still reported oldest-first.
  EXPECT_EQ(events[0].time, 6);
  EXPECT_EQ(events[1].time, 7);
  EXPECT_EQ(events[2].time, 8);
  EXPECT_EQ(events[3].time, 9);
}

TEST(TraceRecorderTest, SpanSamplingKeepsBeginEndPairsTogether) {
  // 1-in-4 sampling keyed by (track, name, id): both ends of a span
  // share the key, so whichever spans survive, they survive whole.
  TraceRecorder recorder(TraceRecorder::Options{.span_sample_period = 4});
  const std::uint32_t track = recorder.InternTrack("t");
  const std::uint32_t name = recorder.InternName("span");
  constexpr int kSpans = 256;
  for (int id = 0; id < kSpans; ++id) {
    recorder.Record({EventKind::kSpanBegin, track, name, id, id, 0.0});
    recorder.Record({EventKind::kSpanEnd, track, name, id + 1, id, 0.0});
  }
  EXPECT_GT(recorder.sampled_out(), 0u);
  EXPECT_LT(recorder.size(), 2u * kSpans);
  EXPECT_EQ(recorder.size() + recorder.sampled_out(), 2u * kSpans);
  std::map<std::int64_t, int> begins;
  std::map<std::int64_t, int> ends;
  for (const TraceEvent& event : recorder.Events()) {
    (event.kind == EventKind::kSpanBegin ? begins : ends)[event.id]++;
  }
  EXPECT_EQ(begins, ends);  // No orphaned Begin or End survives.
}

TEST(TraceRecorderTest, SpanSamplingNeverDropsInstantsOrCounters) {
  TraceRecorder recorder(TraceRecorder::Options{.span_sample_period = 1000});
  const std::uint32_t track = recorder.InternTrack("t");
  const std::uint32_t name = recorder.InternName("n");
  for (int i = 0; i < 100; ++i) {
    recorder.Record({EventKind::kInstant, track, name, i, i, 0.0});
    recorder.Record({EventKind::kCounter, track, name, i, 0, 1.0 * i});
  }
  EXPECT_EQ(recorder.size(), 200u);
  EXPECT_EQ(recorder.sampled_out(), 0u);
}

TEST(TraceRecorderTest, SpanSamplingIsIdentityAtPeriodOne) {
  TraceRecorder sampled(TraceRecorder::Options{.span_sample_period = 1});
  TraceRecorder plain;
  for (TraceRecorder* recorder : {&sampled, &plain}) {
    const std::uint32_t track = recorder->InternTrack("t");
    const std::uint32_t name = recorder->InternName("n");
    for (int id = 0; id < 64; ++id) {
      recorder->Record({EventKind::kSpanBegin, track, name, id, id, 0.0});
      recorder->Record({EventKind::kComplete, track, name, id, id, 5.0});
      recorder->Record({EventKind::kSpanEnd, track, name, id + 1, id, 0.0});
    }
  }
  EXPECT_EQ(sampled.sampled_out(), 0u);
  EXPECT_EQ(sampled.Events(), plain.Events());
  EXPECT_EQ(TraceDigest(sampled), TraceDigest(plain));
}

TEST(TraceRecorderTest, SpanSamplingDecisionIsAPureFunctionOfIdentity) {
  // Same stream recorded twice (and once with events interleaved
  // differently in time): identical survivor sets, because the keep
  // decision never looks at timestamps or arrival order.
  auto record = [](sim::Time skew) {
    TraceRecorder recorder(
        TraceRecorder::Options{.span_sample_period = 3});
    const std::uint32_t track = recorder.InternTrack("t");
    const std::uint32_t name = recorder.InternName("n");
    std::vector<std::int64_t> kept;
    for (int id = 0; id < 128; ++id) {
      recorder.Record(
          {EventKind::kComplete, track, name, id + skew, id, 1.0});
    }
    for (const TraceEvent& event : recorder.Events()) {
      kept.push_back(event.id);
    }
    return kept;
  };
  const auto baseline = record(0);
  EXPECT_FALSE(baseline.empty());
  EXPECT_EQ(record(0), baseline);
  EXPECT_EQ(record(1000), baseline);  // Time shift changes nothing.
}

TEST(TraceRecorderTest, ClearResetsEventsAndTables) {
  TraceRecorder recorder;
  const std::uint32_t track = recorder.InternTrack("t");
  const std::uint32_t name = recorder.InternName("n");
  recorder.Record({EventKind::kInstant, track, name, 1, 0, 0.0});
  recorder.Clear();
  EXPECT_EQ(recorder.size(), 0u);
  EXPECT_TRUE(recorder.tracks().empty());
  EXPECT_TRUE(recorder.names().empty());
  EXPECT_EQ(recorder.InternTrack("other"), 0u);  // Tables restart at 0.
}

TEST(TracerTest, DisabledTracerIsANoOpWithoutASimulator) {
  // A default-constructed Tracer has neither recorder nor simulator;
  // every emit path must bail before dereferencing either.
  Tracer tracer;
  EXPECT_FALSE(tracer.enabled());
  tracer.SpanBegin("t", "n", 1);
  tracer.SpanEnd("t", "n", 1);
  tracer.Complete("t", "n", 1, 0, 10);
  tracer.Instant("t", "n");
  tracer.Counter("t", "n", 1.0);
  EXPECT_EQ(tracer.recorder(), nullptr);
}

TEST(TracerTest, EnabledTracerStampsSimulatedTime) {
  sim::Simulator simulator;
  TraceRecorder recorder;
  const Tracer tracer(&recorder, &simulator);
  ASSERT_TRUE(tracer.enabled());

  simulator.ScheduleAt(5, [&] { tracer.SpanBegin("work", "step", 7, 3.0); });
  simulator.ScheduleAt(12, [&] { tracer.SpanEnd("work", "step", 7); });
  simulator.ScheduleAt(12, [&] { tracer.Counter("work", "load", 2.5); });
  simulator.Run();

  const std::vector<TraceEvent> events = recorder.Events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, EventKind::kSpanBegin);
  EXPECT_EQ(events[0].time, 5);
  EXPECT_EQ(events[0].id, 7);
  EXPECT_EQ(events[0].value, 3.0);
  EXPECT_EQ(events[1].kind, EventKind::kSpanEnd);
  EXPECT_EQ(events[1].time, 12);
  EXPECT_EQ(events[2].kind, EventKind::kCounter);
  EXPECT_EQ(events[2].value, 2.5);
}

TEST(TracerTest, CompleteStoresRetroactiveBeginAndDuration) {
  sim::Simulator simulator;
  TraceRecorder recorder;
  const Tracer tracer(&recorder, &simulator);
  simulator.ScheduleAt(100, [&] { tracer.Complete("p", "reconfig", 3, 40, 25); });
  simulator.Run();
  const std::vector<TraceEvent> events = recorder.Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, EventKind::kComplete);
  EXPECT_EQ(events[0].time, 40);  // Retroactive begin, not Now().
  EXPECT_EQ(events[0].value, 25.0);
}

TEST(TraceBinaryTest, DigestIsStableAndSensitive) {
  // The digest is the only consumer of the binary form, so it must see
  // every byte of it: every event field, every intern-table string and
  // the dropped count.
  struct Edit {
    TraceEvent event{EventKind::kInstant, 0, 0, 10, 7, 1.5};
    std::string track0 = "gpu/s0";
    std::string name0 = "kernel";
    std::string extra_track = "kv";
    std::string extra_name = "used-tokens";
    std::size_t records = 4;
  };
  auto digest = [](const Edit& edit) {
    TraceRecorder recorder(TraceRecorder::Options{4, 1});
    recorder.InternTrack(edit.track0);
    recorder.InternName(edit.name0);
    recorder.InternTrack(edit.extra_track);
    recorder.InternName(edit.extra_name);
    for (std::size_t i = 0; i < edit.records; ++i) recorder.Record(edit.event);
    return TraceDigest(recorder);
  };
  const std::uint64_t base = digest(Edit{});
  EXPECT_EQ(digest(Edit{}), base);

  std::vector<std::pair<const char*, Edit>> edits(11);
  edits[0].first = "kind";
  edits[0].second.event.kind = EventKind::kCounter;
  edits[1].first = "track";
  edits[1].second.event.track = 1;
  edits[2].first = "name";
  edits[2].second.event.name = 1;
  edits[3].first = "time";
  edits[3].second.event.time = 11;
  edits[4].first = "id";
  edits[4].second.event.id = 8;
  edits[5].first = "value";
  edits[5].second.event.value = 2.5;
  edits[6].first = "track string 0";
  edits[6].second.track0 = "gpu/s1";
  edits[7].first = "track string 1";
  edits[7].second.extra_track = "kv2";
  edits[8].first = "name string 0";
  edits[8].second.name0 = "kernel2";
  edits[9].first = "name string 1";
  edits[9].second.extra_name = "free-tokens";
  edits[10].first = "dropped";
  edits[10].second.records = 5;  // Same four events kept, one dropped.
  for (const auto& [field, edit] : edits) {
    EXPECT_NE(digest(edit), base) << field;
  }
}

TEST(TraceJsonTest, ExportsChromeTraceEventPhases) {
  TraceRecorder recorder;
  const std::uint32_t t = recorder.InternTrack("engine/decode");
  const std::uint32_t n = recorder.InternName("decode-step");
  const std::uint32_t c = recorder.InternName("decode-pending");
  recorder.Record({EventKind::kSpanBegin, t, n, 1000, 1, 8.0});
  recorder.Record({EventKind::kSpanEnd, t, n, 3500, 1, 0.0});
  recorder.Record({EventKind::kCounter, t, c, 3500, 0, 7.0});
  recorder.Record({EventKind::kInstant, t, n, 4000, 2, 0.0});
  recorder.Record({EventKind::kComplete, t, n, 5000, 3, 1500.0});

  const std::string json = ExportChromeJson(recorder);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"engine/decode\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // ns -> microsecond timestamps keep sub-us precision: 3500 ns = 3.500.
  EXPECT_NE(json.find("\"ts\":3.500"), std::string::npos);
}

}  // namespace
}  // namespace muxwise::obs
