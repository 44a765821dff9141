#include "benchrun/report.h"

#include <gtest/gtest.h>

#include <string>

#include "benchrun/simcore.h"

namespace muxwise::benchrun {
namespace {

BenchResult MakeBench(const std::string& name, double wall_ms,
                      std::uint64_t events, std::uint64_t digest) {
  BenchResult b;
  b.name = name;
  b.wall_ms = {wall_ms, wall_ms, wall_ms};
  b.wall_ms_median = wall_ms;
  b.sim_events = events;
  b.events_per_sec = events / (wall_ms / 1e3);
  b.digest = digest;
  return b;
}

BenchReport MakeReport(std::vector<BenchResult> benches) {
  BenchReport report;
  report.suite = "smoke";
  report.repeat = 3;
  report.machine.host = "test";
  report.machine.compiler = "test 1.0";
  report.machine.build_type = "release";
  report.machine.cpus = 1;
  report.machine.hw_threads = 8;
  report.benches = std::move(benches);
  return report;
}

TEST(BenchDiffTest, IdenticalReportsPass) {
  const BenchReport base =
      MakeReport({MakeBench("a", 10.0, 1000, 0x1111), MakeBench("b", 20.0, 2000, 0x2222)});
  const DiffResult diff = DiffReports(base, base);
  EXPECT_TRUE(diff.ok()) << (diff.failures.empty() ? "" : diff.failures[0]);
}

TEST(BenchDiffTest, DigestChangeFailsEvenWhenFaster) {
  const BenchReport base = MakeReport({MakeBench("a", 10.0, 1000, 0x1111)});
  const BenchReport cand = MakeReport({MakeBench("a", 5.0, 1000, 0xdead)});
  const DiffResult diff = DiffReports(base, cand);
  ASSERT_FALSE(diff.ok());
  EXPECT_NE(diff.failures[0].find("digest"), std::string::npos)
      << diff.failures[0];
}

TEST(BenchDiffTest, SimEventCountChangeFails) {
  const BenchReport base = MakeReport({MakeBench("a", 10.0, 1000, 0x1111)});
  const BenchReport cand = MakeReport({MakeBench("a", 10.0, 1001, 0x1111)});
  EXPECT_FALSE(DiffReports(base, cand).ok());
}

TEST(BenchDiffTest, TenPercentSlowdownFailsTheGate) {
  // The synthetic regression the CI gate must catch: same work, same
  // digest, 12% more wall time (> the 10% threshold).
  const BenchReport base = MakeReport({MakeBench("a", 100.0, 1000, 0x1111)});
  const BenchReport cand = MakeReport({MakeBench("a", 112.0, 1000, 0x1111)});
  const DiffResult diff = DiffReports(base, cand);
  ASSERT_FALSE(diff.ok());
  EXPECT_NE(diff.failures[0].find("wall"), std::string::npos)
      << diff.failures[0];
}

TEST(BenchDiffTest, SlowdownWithinThresholdPasses) {
  const BenchReport base = MakeReport({MakeBench("a", 100.0, 1000, 0x1111)});
  const BenchReport cand = MakeReport({MakeBench("a", 108.0, 1000, 0x1111)});
  EXPECT_TRUE(DiffReports(base, cand).ok());
}

TEST(BenchDiffTest, WallCheckCanBeDisabledButDigestsStillGate) {
  DiffOptions options;
  options.check_wall = false;
  const BenchReport base = MakeReport({MakeBench("a", 100.0, 1000, 0x1111)});
  EXPECT_TRUE(
      DiffReports(base, MakeReport({MakeBench("a", 250.0, 1000, 0x1111)}),
                  options)
          .ok());
  EXPECT_FALSE(
      DiffReports(base, MakeReport({MakeBench("a", 100.0, 1000, 0x2222)}),
                  options)
          .ok());
}

TEST(BenchDiffTest, MissingBaselineBenchFailsCoverage) {
  const BenchReport base =
      MakeReport({MakeBench("a", 10.0, 1000, 0x1), MakeBench("b", 10.0, 1000, 0x2)});
  const BenchReport cand = MakeReport({MakeBench("a", 10.0, 1000, 0x1)});
  EXPECT_FALSE(DiffReports(base, cand).ok());

  DiffOptions lax;
  lax.require_coverage = false;
  EXPECT_TRUE(DiffReports(base, cand, lax).ok());
}

TEST(BenchDiffTest, NewCandidateBenchIsNotedNotFailed) {
  const BenchReport base = MakeReport({MakeBench("a", 10.0, 1000, 0x1)});
  const BenchReport cand =
      MakeReport({MakeBench("a", 10.0, 1000, 0x1), MakeBench("z", 1.0, 10, 0x9)});
  const DiffResult diff = DiffReports(base, cand);
  EXPECT_TRUE(diff.ok());
  EXPECT_FALSE(diff.notes.empty());
}

TEST(BenchReportTest, JsonRoundTripsLossllessly) {
  const BenchReport report = MakeReport(
      {MakeBench("simcore.events", 42.5, 200063, 0x684f4e7c0c05b620ULL)});
  BenchReport parsed;
  std::string error;
  ASSERT_TRUE(FromJson(ToJson(report), parsed, error)) << error;
  ASSERT_EQ(parsed.benches.size(), 1u);
  EXPECT_EQ(parsed.suite, "smoke");
  EXPECT_EQ(parsed.repeat, 3);
  EXPECT_EQ(parsed.machine.compiler, "test 1.0");
  EXPECT_EQ(parsed.machine.cpus, 1);
  EXPECT_EQ(parsed.machine.hw_threads, 8);
  EXPECT_EQ(parsed.benches[0].name, "simcore.events");
  EXPECT_EQ(parsed.benches[0].sim_events, 200063u);
  EXPECT_EQ(parsed.benches[0].digest, 0x684f4e7c0c05b620ULL);
  EXPECT_DOUBLE_EQ(parsed.benches[0].wall_ms_median, 42.5);
  EXPECT_EQ(parsed.benches[0].wall_ms.size(), 3u);
}

TEST(BenchReportTest, ReportWithoutHwThreadsStillParses) {
  // hw_threads joined the machine schema after schema_version 1
  // shipped; reports recorded before it must stay readable (field
  // defaults 0).
  BenchReport report = MakeReport({MakeBench("a", 1.0, 10, 0x1)});
  std::string json = ToJson(report);
  const std::string needle = ",\n    \"hw_threads\": 8";
  const auto pos = json.find(needle);
  ASSERT_NE(pos, std::string::npos) << json;
  json.erase(pos, needle.size());
  BenchReport parsed;
  std::string error;
  ASSERT_TRUE(FromJson(json, parsed, error)) << error;
  EXPECT_EQ(parsed.machine.cpus, 1);
  EXPECT_EQ(parsed.machine.hw_threads, 0);
}

TEST(BenchReportTest, DetectedMachineReportsUsableCpuCounts) {
  // Wall times are only comparable within a machine class, so the
  // report must record a real CPU count — never the hardcoded 1 the
  // first schema shipped on every machine.
  const MachineInfo machine = MachineInfo::Detect();
  EXPECT_GE(machine.cpus, 1);
  EXPECT_GE(machine.hw_threads, 1);
  // Affinity can only restrict below the hardware thread count.
  EXPECT_LE(machine.cpus, machine.hw_threads);
}

TEST(BenchReportTest, SchemaVersionMismatchIsRejected) {
  BenchReport report = MakeReport({MakeBench("a", 1.0, 10, 0x1)});
  std::string json = ToJson(report);
  const std::string needle = "\"schema_version\": 1";
  const auto pos = json.find(needle);
  ASSERT_NE(pos, std::string::npos);
  json.replace(pos, needle.size(), "\"schema_version\": 999");
  BenchReport parsed;
  std::string error;
  EXPECT_FALSE(FromJson(json, parsed, error));
  EXPECT_NE(error.find("schema"), std::string::npos) << error;
}

TEST(BenchReportTest, MalformedJsonIsRejected) {
  BenchReport parsed;
  std::string error;
  EXPECT_FALSE(FromJson("{\"schema_version\": 1,", parsed, error));
  EXPECT_FALSE(FromJson("not json at all", parsed, error));
}

TEST(MedianTest, HandlesOddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
  EXPECT_DOUBLE_EQ(Median({7.0}), 7.0);
}

TEST(SimcoreBenchTest, SmokeRepetitionsAreEventIdenticalAndDigestStable) {
  // benchrun's repetition self-check: repetitions of the storm bench
  // redo identical simulated work, so event counts and digests must
  // agree rep to rep (RunSimcoreBench flags any drift via ok/note).
  SimcoreOptions options;
  options.smoke = true;
  options.repeat = 2;
  const BenchResult first = RunSimcoreBench("simcore.storm", options);
  EXPECT_TRUE(first.ok) << first.note;
  EXPECT_GT(first.sim_events, 0u);
  EXPECT_NE(first.digest, 0u);
  EXPECT_EQ(first.wall_ms.size(), 2u);

  // And a fresh measurement reproduces the same witnesses.
  const BenchResult second = RunSimcoreBench("simcore.storm", options);
  EXPECT_TRUE(second.ok) << second.note;
  EXPECT_EQ(first.sim_events, second.sim_events);
  EXPECT_EQ(first.digest, second.digest);
}

TEST(SimcoreBenchTest, UnknownBenchNameReportsFailure) {
  const BenchResult result = RunSimcoreBench("simcore.nope", SimcoreOptions{});
  EXPECT_FALSE(result.ok);
}

}  // namespace
}  // namespace muxwise::benchrun
