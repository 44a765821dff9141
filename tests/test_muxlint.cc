#include "muxlint/muxlint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace muxwise::muxlint {
namespace {

LintReport Lint(const std::string& path, const std::string& content) {
  LintReport report;
  LintContent(path, content, report);
  return report;
}

bool HasRule(const LintReport& report, const std::string& rule) {
  return std::any_of(report.findings.begin(), report.findings.end(),
                     [&rule](const Finding& f) { return f.rule == rule; });
}

TEST(MuxlintTest, FlagsWallClockUse) {
  const LintReport r = Lint(
      "src/foo.cc", "auto t = std::chrono::steady_clock::now();\n");
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, "wall-clock");
  EXPECT_EQ(r.findings[0].line, 1);
}

TEST(MuxlintTest, FlagsCTimeCall) {
  EXPECT_TRUE(HasRule(Lint("src/foo.cc", "std::int64_t t = time(nullptr);\n"),
                      "wall-clock"));
}

TEST(MuxlintTest, DoesNotFlagIdentifiersContainingTime) {
  const LintReport r =
      Lint("src/foo.cc",
           "sim::Duration busy_time(0);\nauto x = last_time(a);\n");
  EXPECT_FALSE(HasRule(r, "wall-clock"));
}

TEST(MuxlintTest, SuppressionSilencesWallClock) {
  const LintReport r = Lint(
      "src/foo.cc",
      "auto t = std::chrono::steady_clock::now();  "
      "// muxlint: allow(wall-clock)\n");
  EXPECT_TRUE(r.findings.empty());
  EXPECT_EQ(r.suppressed, 1u);
}

TEST(MuxlintTest, SuppressionIsRuleSpecific) {
  // allow(raw-rand) must not silence a wall-clock finding.
  const LintReport r = Lint(
      "src/foo.cc",
      "auto t = std::chrono::steady_clock::now();  "
      "// muxlint: allow(raw-rand)\n");
  EXPECT_TRUE(HasRule(r, "wall-clock"));
}

TEST(MuxlintTest, FlagsRawRandOutsideRngModule) {
  EXPECT_TRUE(HasRule(Lint("src/serve/foo.cc", "int x = rand();\n"),
                      "raw-rand"));
  EXPECT_TRUE(HasRule(
      Lint("src/serve/foo.cc", "std::random_device rd;\n"), "raw-rand"));
  EXPECT_TRUE(HasRule(
      Lint("src/serve/foo.cc", "std::mt19937_64 engine;\n"), "raw-rand"));
}

TEST(MuxlintTest, ExemptsRngModuleFromRawRand) {
  EXPECT_FALSE(HasRule(
      Lint("src/sim/rng.cc", "std::mt19937_64 engine_;\n"), "raw-rand"));
}

TEST(MuxlintTest, FlagsPointerKeyedUnorderedContainers) {
  EXPECT_TRUE(HasRule(
      Lint("src/foo.h", "std::unordered_map<Node*, int> index_;\n"),
      "ptr-key-container"));
  EXPECT_TRUE(HasRule(
      Lint("src/foo.h", "std::unordered_set<const Node*> seen_;\n"),
      "ptr-key-container"));
}

TEST(MuxlintTest, AllowsValueOrIdKeyedUnorderedContainers) {
  const LintReport r = Lint(
      "src/foo.h",
      "std::unordered_map<EventId, std::weak_ptr<Event>> index_;\n"
      "std::unordered_map<std::string, Node*> by_name_;\n");
  EXPECT_FALSE(HasRule(r, "ptr-key-container"));
}

TEST(MuxlintTest, FlagsPointerKeyedOrderedContainers) {
  // An ordered container keyed by pointer is in address order too.
  for (const char* line :
       {"std::set<std::pair<sim::Time, Node*>> evictable_;\n",
        "std::map<const Node*, int> depth_;\n",
        "std::multiset<Request*> queue_;\n",
        "std::multimap<std::pair<int, Node*>, int, Cmp> order_;\n",
        "std::unordered_map<std::pair<int, Node*>, int, H> index_;\n"}) {
    EXPECT_TRUE(HasRule(Lint("src/foo.h", line), "ptr-key-container"))
        << line;
  }
}

TEST(MuxlintTest, AllowsOrderedContainersWithPointersOnlyInTheValue) {
  const LintReport r = Lint(
      "src/foo.cc",
      "std::map<std::size_t, std::vector<const CrashEvent*>> by_step;\n"
      "std::map<std::string, const BenchResult*> by_name;\n"
      "std::set<std::pair<sim::Time, std::uint64_t>> order_;\n"
      "std::map<std::pair<int, int>, std::unique_ptr<Node>> children;\n"
      "std::set<int> ids; Node* first = nullptr;\n");
  EXPECT_FALSE(HasRule(r, "ptr-key-container"));
}

TEST(MuxlintTest, FlagsFloatingPointSimTime) {
  EXPECT_TRUE(HasRule(
      Lint("src/foo.cc", "double completion_time = 0.0;\n"),
      "float-sim-time"));
  EXPECT_TRUE(HasRule(Lint("src/foo.cc", "double deadline = 1.5;\n"),
                      "float-sim-time"));
  EXPECT_TRUE(HasRule(Lint("src/foo.cc", "float latency_ns = 0;\n"),
                      "float-sim-time"));
}

TEST(MuxlintTest, AllowsIntegerSimTimeAndPlainDoubles) {
  const LintReport r = Lint(
      "src/foo.cc",
      "sim::Time completion_time = 0;\n"
      "double drain_timeout_seconds = 600.0;\n"
      "double rate = 0.5;\n");
  EXPECT_FALSE(HasRule(r, "float-sim-time"));
}

TEST(MuxlintTest, FlagsBareAssert) {
  EXPECT_TRUE(HasRule(Lint("src/foo.cc", "assert(x > 0);\n"),
                      "bare-assert"));
}

TEST(MuxlintTest, AllowsStaticAssertAndGtestMacros) {
  const LintReport r = Lint(
      "src/foo.cc",
      "static_assert(sizeof(int) == 4);\nASSERT_EQ(a, b);\n");
  EXPECT_FALSE(HasRule(r, "bare-assert"));
}

TEST(MuxlintTest, IgnoresPatternsInCommentsAndStrings) {
  const LintReport r = Lint(
      "src/foo.cc",
      "// calls rand() internally, see std::chrono docs\n"
      "/* assert(false) would be wrong here */\n"
      "const char* s = \"std::random_device\";\n");
  EXPECT_TRUE(r.findings.empty());
}

TEST(MuxlintTest, TracksMultiLineBlockComments) {
  const LintReport r = Lint(
      "src/foo.cc",
      "/* start of a long comment\n"
      "   rand() inside it\n"
      "   end */\n"
      "int x = rand();\n");
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].line, 4);
}

TEST(MuxlintTest, RequiresIncludeGuardInHeaders) {
  const LintReport missing =
      Lint("src/foo.h", "#pragma once\nint f();\n");
  EXPECT_TRUE(HasRule(missing, "include-guard"));

  const LintReport good = Lint(
      "src/foo.h",
      "#ifndef MUXWISE_FOO_H_\n#define MUXWISE_FOO_H_\n"
      "int f();\n#endif  // MUXWISE_FOO_H_\n");
  EXPECT_FALSE(HasRule(good, "include-guard"));
}

TEST(MuxlintTest, IncludeGuardOnlyAppliesToHeaders) {
  EXPECT_FALSE(HasRule(Lint("src/foo.cc", "int f() { return 1; }\n"),
                       "include-guard"));
}

TEST(MuxlintTest, IncludeGuardSuppressionWorksFileWide) {
  const LintReport r = Lint(
      "src/foo.h",
      "// muxlint: allow(include-guard) -- generated header\n"
      "#pragma once\nint f();\n");
  EXPECT_FALSE(HasRule(r, "include-guard"));
  EXPECT_EQ(r.suppressed, 1u);
}

TEST(MuxlintTest, JsonReportIsWellFormedAndComplete) {
  LintReport report;
  LintContent("src/a.cc", "int x = rand();\n", report);
  const std::string json = FormatJson(report);
  EXPECT_NE(json.find("\"rule\": \"raw-rand\""), std::string::npos);
  EXPECT_NE(json.find("\"files_scanned\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"line\": 1"), std::string::npos);
}

TEST(MuxlintTest, FlagsEpochlessCallbackInFaultCapableLayers) {
  const LintReport r = Lint(
      "src/baselines/foo.cc",
      "host_->Submit(delay, [this, id] { OnDone(id); });\n");
  ASSERT_TRUE(HasRule(r, "dangling-callback"));
}

TEST(MuxlintTest, AcceptsEpochGuardedCallback) {
  const LintReport r = Lint(
      "src/core/foo.cc",
      "host_->Submit(delay, [this, id, e = epoch()] { OnDone(id); });\n"
      "link_->Transfer(bytes, [this, pe = p_epoch_] { Resume(); });\n");
  EXPECT_FALSE(HasRule(r, "dangling-callback"));
}

TEST(MuxlintTest, DanglingCallbackScopedToFaultCapableLayers) {
  // The same pattern outside src/baselines and src/core (layers without
  // crash epochs) is not a finding.
  const LintReport r = Lint(
      "src/serve/foo.cc",
      "host_->Submit(delay, [this, id] { OnDone(id); });\n");
  EXPECT_FALSE(HasRule(r, "dangling-callback"));
}

TEST(MuxlintTest, DanglingCallbackIgnoresThislessLambdas) {
  const LintReport r = Lint(
      "src/baselines/foo.cc",
      "link_->Transfer(bytes, [&done] { done = true; });\n");
  EXPECT_FALSE(HasRule(r, "dangling-callback"));
}

TEST(MuxlintTest, DanglingCallbackSuppressible) {
  const LintReport r = Lint(
      "src/baselines/foo.cc",
      "host_->Submit(d, [this] { F(); });  "
      "// muxlint: allow(dangling-callback)\n");
  EXPECT_FALSE(HasRule(r, "dangling-callback"));
  EXPECT_EQ(r.suppressed, 1u);
}

TEST(MuxlintTest, FlagsWallClockNamesInTraceLayer) {
  // In the observability layer a clock *name* is a finding even
  // without a call — one `steady_clock` anywhere poisons trace
  // reproducibility.
  EXPECT_TRUE(HasRule(
      Lint("src/obs/trace.cc", "using clock_t2 = std::chrono::system_clock;\n"),
      "trace-wall-clock"));
  EXPECT_TRUE(HasRule(
      Lint("tools/muxwise/trace.cc", "std::int64_t t = clock();\n"),
      "trace-wall-clock"));
  EXPECT_TRUE(HasRule(
      Lint("tools/muxwise/trace.cc",
           "clock_gettime(CLOCK_MONOTONIC, &ts);\n"),
      "trace-wall-clock"));
}

TEST(MuxlintTest, TraceWallClockScopedToTraceCode) {
  // Outside the trace layer only the repo-wide wall-clock rule (which
  // needs a call) applies; the name alone passes.
  const LintReport r =
      Lint("src/serve/foo.cc", "// mentions steady_clock by name\n"
                               "int steady_clock_like = 0;\n");
  EXPECT_FALSE(HasRule(r, "trace-wall-clock"));
  // Only the trace subcommand's source is in scope, not the rest of
  // the CLI.
  EXPECT_FALSE(HasRule(
      Lint("tools/muxwise/fuzz.cc",
           "const auto t = chr::steady_clock::now();\n"),
      "trace-wall-clock"));
}

TEST(MuxlintTest, FlagsPriorityQueueInSimulationSubstrate) {
  EXPECT_TRUE(HasRule(
      Lint("src/sim/foo.cc",
           "std::priority_queue<Ev, std::vector<Ev>, decltype(cmp)> q(cmp);\n"),
      "priority-queue"));
  EXPECT_TRUE(HasRule(
      Lint("src/gpu/foo.cc", "std::priority_queue<int> q;\n"),
      "priority-queue"));
}

TEST(MuxlintTest, PriorityQueueScopedToSimAndGpu) {
  // The kv radix tree legitimately uses one for LRU eviction ranking.
  EXPECT_FALSE(HasRule(
      Lint("src/kv/radix_tree.cc", "std::priority_queue<HeapEntry> heap;\n"),
      "priority-queue"));
}

TEST(MuxlintTest, PriorityQueueSuppressible) {
  const LintReport r = Lint(
      "src/sim/foo.cc",
      "std::priority_queue<int> q;  // muxlint: allow(priority-queue)\n");
  EXPECT_FALSE(HasRule(r, "priority-queue"));
  EXPECT_EQ(r.suppressed, 1u);
}

TEST(MuxlintTest, FlagsDirectEventAllocation) {
  EXPECT_TRUE(HasRule(
      Lint("src/sim/foo.cc", "Event* e = new Event{when, id};\n"),
      "event-arena"));
  EXPECT_TRUE(HasRule(
      Lint("src/sim/foo.cc", "auto e = std::make_unique<Event>();\n"),
      "event-arena"));
  EXPECT_TRUE(HasRule(
      Lint("src/gpu/foo.cc", "delete pending_event;\n"), "event-arena"));
}

TEST(MuxlintTest, EventArenaIgnoresNonEventAllocationsAndOtherLayers) {
  // Unrelated allocations in scope, and Event allocations out of scope.
  EXPECT_FALSE(HasRule(
      Lint("src/sim/foo.cc", "auto s = std::make_unique<Stream>();\n"),
      "event-arena"));
  EXPECT_FALSE(HasRule(
      Lint("src/obs/foo.cc", "Event* e = new Event;\n"), "event-arena"));
  // `= delete;` declarations are not deletions of events.
  EXPECT_FALSE(HasRule(
      Lint("src/sim/foo.h", "Simulator(const Simulator&) = delete;\n"),
      "event-arena"));
}

TEST(MuxlintTest, EventArenaSuppressible) {
  const LintReport r = Lint(
      "src/sim/foo.cc",
      "Event* e = new Event;  // muxlint: allow(event-arena)\n");
  EXPECT_FALSE(HasRule(r, "event-arena"));
  EXPECT_EQ(r.suppressed, 1u);
}

TEST(MuxlintTest, FlagsQueuePushesInServingLayers) {
  EXPECT_TRUE(HasRule(
      Lint("src/core/foo.cc", "waiting_.push_back(std::move(request));\n"),
      "unbounded-queue"));
  EXPECT_TRUE(HasRule(
      Lint("src/serve/foo.cc", "held_[key].push_back(index);\n"),
      "unbounded-queue"));
  EXPECT_TRUE(HasRule(
      Lint("src/core/foo.cc", "pending_completions_.emplace_back(r);\n"),
      "unbounded-queue"));
  EXPECT_TRUE(HasRule(
      Lint("src/core/foo.cc", "waiting_.push_front(std::move(r));\n"),
      "unbounded-queue"));
}

TEST(MuxlintTest, UnboundedQueueScopedToServingLayers) {
  // Queues outside the serving path (and non-member locals) are fine.
  EXPECT_FALSE(HasRule(
      Lint("src/sim/foo.cc", "waiting_.push_back(std::move(ev));\n"),
      "unbounded-queue"));
  EXPECT_FALSE(HasRule(
      Lint("src/core/foo.cc", "requeue.push_back(std::move(r));\n"),
      "unbounded-queue"));
  // Metric sample vectors merely contain a queue-ish word.
  EXPECT_FALSE(HasRule(
      Lint("src/serve/metrics.cc", "queue_delay_ms.push_back(ms);\n"),
      "unbounded-queue"));
}

TEST(MuxlintTest, FlagsSampleAccumulationInMetricLayers) {
  EXPECT_TRUE(HasRule(
      Lint("src/serve/metrics.cc", "queue_delay_ms.push_back(ms);\n"),
      "unbounded-samples"));
  EXPECT_TRUE(HasRule(
      Lint("src/serve/metrics.cc", "ttft_samples_.push_back(v);\n"),
      "unbounded-samples"));
  EXPECT_TRUE(HasRule(
      Lint("src/route/fleet_router.cc", "failover_latency_.emplace_back(d);\n"),
      "unbounded-samples"));
  EXPECT_TRUE(HasRule(
      Lint("src/serve/metrics.cc", "per_class_[cls].e2e_ms.push_back(v);\n"),
      "unbounded-samples"));
}

TEST(MuxlintTest, UnboundedSamplesScopedToMetricLayers) {
  // The sketch-backed metrics layer owns the rule's scope; the same
  // pattern elsewhere (harness subsamples, tests) is deliberate.
  EXPECT_FALSE(HasRule(
      Lint("src/harness/streaming.cc", "ttft_subsample_ms.push_back(v);\n"),
      "unbounded-samples"));
  // Non-sample vectors in scope stay clean.
  EXPECT_FALSE(HasRule(
      Lint("src/serve/engine.cc", "token_times.push_back(now);\n"),
      "unbounded-samples"));
  EXPECT_FALSE(HasRule(
      Lint("src/route/fleet_router.cc", "replicas_.push_back(std::move(r));\n"),
      "unbounded-samples"));
}

TEST(MuxlintTest, UnboundedSamplesSuppressible) {
  const LintReport r = Lint(
      "src/serve/metrics.cc",
      "ttft_samples_.push_back(v);  // muxlint: allow(unbounded-samples)\n");
  EXPECT_FALSE(HasRule(r, "unbounded-samples"));
  EXPECT_EQ(r.suppressed, 1u);
}

TEST(MuxlintTest, UnboundedQueueSuppressible) {
  const LintReport r = Lint(
      "src/core/foo.cc",
      "waiting_.push_back(r);  // muxlint: allow(unbounded-queue)\n");
  EXPECT_FALSE(HasRule(r, "unbounded-queue"));
  EXPECT_EQ(r.suppressed, 1u);
}

TEST(MuxlintTest, RulesListCoversEveryEmittableRule) {
  const auto rules = Rules();
  auto named = [&rules](const std::string& name) {
    return std::any_of(rules.begin(), rules.end(),
                       [&name](const RuleInfo& r) { return r.name == name; });
  };
  EXPECT_TRUE(named("wall-clock"));
  EXPECT_TRUE(named("raw-rand"));
  EXPECT_TRUE(named("ptr-key-container"));
  EXPECT_TRUE(named("float-sim-time"));
  EXPECT_TRUE(named("bare-assert"));
  EXPECT_TRUE(named("dangling-callback"));
  EXPECT_TRUE(named("trace-wall-clock"));
  EXPECT_TRUE(named("priority-queue"));
  EXPECT_TRUE(named("event-arena"));
  EXPECT_TRUE(named("unbounded-queue"));
  EXPECT_TRUE(named("unbounded-samples"));
  EXPECT_TRUE(named("include-guard"));
}


// --- CodePortion / SplitLine edge cases (comment & string stripping) ---

TEST(MuxlintTest, CommentMarkersInsideStringLiteralsAreInert) {
  // A "//" inside a string must not truncate the rest of the line:
  // the rand() call after the literal is live code.
  const LintReport r = Lint(
      "src/serve/foo.cc",
      "Log(\"see http://docs // not a comment\"); int x = rand();\n");
  EXPECT_TRUE(HasRule(r, "raw-rand"));
}

TEST(MuxlintTest, BlockCommentOpenerInsideStringLiteralIsInert) {
  // A "/*" inside a string must not put the scanner into block-comment
  // state; the next line is still live code.
  const LintReport r = Lint(
      "src/serve/foo.cc",
      "const char* s = \"/* still a string\";\n"
      "int x = rand();\n");
  ASSERT_TRUE(HasRule(r, "raw-rand"));
  EXPECT_EQ(r.findings[0].line, 2);
}

TEST(MuxlintTest, BlockCommentOpeningAndClosingOnOneLine) {
  // Code after the close is live; code inside is not.
  const LintReport r = Lint(
      "src/serve/foo.cc",
      "int a = /* rand() in comment */ 0; int b = rand();\n");
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, "raw-rand");
}

TEST(MuxlintTest, BackToBackBlockCommentsOnOneLine) {
  const LintReport clean = Lint(
      "src/serve/foo.cc",
      "/* one */ /* rand() two */ int x = 0;\n");
  EXPECT_TRUE(clean.findings.empty());
  const LintReport hit = Lint(
      "src/serve/foo.cc",
      "/* one */ int x = rand(); /* two */\n");
  EXPECT_TRUE(HasRule(hit, "raw-rand"));
}

TEST(MuxlintTest, EscapedQuotesDoNotUnbalanceStringStripping) {
  const LintReport r = Lint(
      "src/serve/foo.cc",
      "const char* s = \"a \\\" // b\"; int x = rand();\n");
  EXPECT_TRUE(HasRule(r, "raw-rand"));
}

// --- Pragma audit: comment-aware parsing and stale-allow ---

TEST(MuxlintTest, PragmaInsideStringLiteralIsNotASuppression) {
  // The pragma text lives in a string literal, so the wall-clock
  // finding on the same line must NOT be suppressed — and no
  // stale-allow can fire either (no pragma was parsed).
  const LintReport r = Lint(
      "src/serve/foo.cc",
      "const char* doc = \"// muxlint: allow(wall-clock)\"; "
      "auto t = std::chrono::steady_clock::now();\n");
  EXPECT_TRUE(HasRule(r, "wall-clock"));
  EXPECT_FALSE(HasRule(r, "stale-allow"));
  EXPECT_EQ(r.suppressed, 0u);
}

TEST(MuxlintTest, MidCommentMentionOfPragmaSyntaxIsNotASuppression) {
  // Prose that merely mentions the pragma mid-sentence is not parsed;
  // only a pragma at the start of the comment counts.
  const LintReport r = Lint(
      "src/serve/foo.cc",
      "int x = 0;  // sites carry `// muxlint: allow(unbounded-queue)`\n");
  EXPECT_TRUE(r.findings.empty());
  EXPECT_EQ(r.suppressed, 0u);
}

TEST(MuxlintTest, StaleAllowFiresWhenPragmaSuppressesNothing) {
  const LintReport r = Lint(
      "src/serve/foo.cc", "int x = 0;  // muxlint: allow(wall-clock)\n");
  ASSERT_TRUE(HasRule(r, "stale-allow"));
  EXPECT_EQ(r.findings[0].line, 1);
}

TEST(MuxlintTest, StaleAllowFiresOnUnknownRuleName) {
  // A typo'd rule name silences nothing forever; that is exactly the
  // failure mode the audit exists for.
  const LintReport r = Lint(
      "src/serve/foo.cc",
      "auto t = std::chrono::steady_clock::now();  "
      "// muxlint: allow(wallclock)\n");
  EXPECT_TRUE(HasRule(r, "wall-clock"));   // Not suppressed.
  EXPECT_TRUE(HasRule(r, "stale-allow"));  // And the pragma is dead.
}

TEST(MuxlintTest, LiveAllowIsNotStale) {
  const LintReport r = Lint(
      "src/serve/foo.cc",
      "auto t = std::chrono::steady_clock::now();  "
      "// muxlint: allow(wall-clock)\n");
  EXPECT_TRUE(r.findings.empty());
  EXPECT_EQ(r.suppressed, 1u);
}

TEST(MuxlintTest, StaleAllowPerNameInAMixedList) {
  // allow(wall-clock, raw-rand) where only wall-clock fires: the
  // raw-rand half of the pragma is stale.
  const LintReport r = Lint(
      "src/serve/foo.cc",
      "auto t = std::chrono::steady_clock::now();  "
      "// muxlint: allow(wall-clock, raw-rand)\n");
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, "stale-allow");
  EXPECT_EQ(r.suppressed, 1u);
}

TEST(MuxlintTest, AllowAllIsStaleOnlyWhenNothingSuppressed) {
  const LintReport live = Lint(
      "src/serve/foo.cc",
      "auto t = std::chrono::steady_clock::now();  "
      "// muxlint: allow(all)\n");
  EXPECT_TRUE(live.findings.empty());
  const LintReport stale = Lint(
      "src/serve/foo.cc", "int x = 0;  // muxlint: allow(all)\n");
  EXPECT_TRUE(HasRule(stale, "stale-allow"));
}

TEST(MuxlintTest, SuppressedCountsBrokenOutPerRule) {
  LintReport report;
  LintContent("src/core/foo.cc",
              "waiting_.push_back(r);  // muxlint: allow(unbounded-queue)\n"
              "gated_.push_back(r);  // muxlint: allow(unbounded-queue)\n"
              "auto t = std::chrono::steady_clock::now();  "
              "// muxlint: allow(wall-clock)\n",
              report);
  EXPECT_EQ(report.suppressed, 3u);
  EXPECT_EQ(report.suppressed_by_rule.at("unbounded-queue"), 2u);
  EXPECT_EQ(report.suppressed_by_rule.at("wall-clock"), 1u);
  const std::string json = FormatJson(report);
  EXPECT_NE(json.find("\"suppressed_by_rule\""), std::string::npos);
  EXPECT_NE(json.find("\"unbounded-queue\": 2"), std::string::npos);
}

// --- Layering: the declared module DAG over src/ ---

TEST(MuxlintTest, LayeringFlagsBackEdgeInclude) {
  const LintReport r = Lint(
      "src/sim/foo.cc", "#include \"core/muxwise_engine.h\"\n");
  ASSERT_TRUE(HasRule(r, "layering"));
  EXPECT_NE(r.findings[0].message.find("back-edge"), std::string::npos);
}

TEST(MuxlintTest, LayeringAcceptsDownwardAndIntraBandIncludes) {
  const LintReport r = Lint(
      "src/core/foo.cc",
      "#include \"sim/simulator.h\"\n"      // Downward.
      "#include \"overload/controller.h\"\n"  // Downward (band 3 < 5).
      "#include \"baselines/chunked.h\"\n"    // Intra-band.
      "#include <vector>\n"                     // System, out of scope.
      "#include \"core/dispatcher.h\"\n");    // Same module.
  EXPECT_FALSE(HasRule(r, "layering"));
}

TEST(MuxlintTest, LayeringFlagsObsIncludingServe) {
  EXPECT_TRUE(HasRule(
      Lint("src/obs/trace.cc", "#include \"serve/engine.h\"\n"),
      "layering"));
}

TEST(MuxlintTest, LayeringOnlyAppliesToSrcModules) {
  // Tools and tests may include anything.
  EXPECT_FALSE(HasRule(
      Lint("tools/muxwise/bench.cc", "#include \"harness/runner.h\"\n"),
      "layering"));
  EXPECT_FALSE(HasRule(
      Lint("tests/test_foo.cc", "#include \"core/muxwise_engine.h\"\n"),
      "layering"));
}

TEST(MuxlintTest, LayeringIgnoresCommentedOutIncludes) {
  const LintReport r = Lint(
      "src/sim/foo.cc", "// #include \"core/muxwise_engine.h\"\n");
  EXPECT_FALSE(HasRule(r, "layering"));
}

// --- Mutable namespace-scope state ---

TEST(MuxlintTest, FlagsMutableNamespaceScopeGlobal) {
  const LintReport r = Lint(
      "src/sim/foo.cc",
      "namespace muxwise::sim {\n"
      "std::atomic<LogLevel> g_log_level{LogLevel::kWarn};\n"
      "}\n");
  ASSERT_TRUE(HasRule(r, "mutable-global"));
  EXPECT_EQ(r.findings[0].line, 2);
}

TEST(MuxlintTest, MutableGlobalFlagsStaticAndPlainDefinitions) {
  EXPECT_TRUE(HasRule(
      Lint("src/core/foo.cc",
           "namespace muxwise::core {\nstatic int g_count = 0;\n}\n"),
      "mutable-global"));
  EXPECT_TRUE(HasRule(
      Lint("src/core/foo.cc",
           "namespace muxwise::core {\nint g_flag;\n}\n"),
      "mutable-global"));
}

TEST(MuxlintTest, MutableGlobalIgnoresConstants) {
  const LintReport r = Lint(
      "src/core/foo.cc",
      "namespace muxwise::core {\n"
      "constexpr int kMax = 8;\n"
      "const char* const kName = \"x\";\n"
      "inline constexpr double kRate = 0.5;\n"
      "}\n");
  EXPECT_FALSE(HasRule(r, "mutable-global"));
}

TEST(MuxlintTest, MutableGlobalIgnoresLocalsAndMembers) {
  const LintReport r = Lint(
      "src/core/foo.cc",
      "namespace muxwise::core {\n"
      "struct State { int count = 0; };\n"       // Class member.
      "void F() { int local = 0; (void)local; }\n"  // Function local.
      "class Engine {\n"
      " private:\n"
      "  int inflight_ = 0;\n"                   // Class member.
      "};\n"
      "}\n");
  EXPECT_FALSE(HasRule(r, "mutable-global"));
}

TEST(MuxlintTest, MutableGlobalIgnoresMultiLineSignatureContinuations) {
  // A defaulted parameter on a continuation line looks like a
  // declaration; the statement-start gate must keep it out.
  const LintReport r = Lint(
      "src/harness/foo.h",
      "#ifndef MUXWISE_HARNESS_FOO_H_\n"
      "#define MUXWISE_HARNESS_FOO_H_\n"
      "namespace muxwise::harness {\n"
      "void Run(int a,\n"
      "         std::uint64_t arrival_seed = 2024);\n"
      "}\n"
      "#endif  // MUXWISE_HARNESS_FOO_H_\n");
  EXPECT_FALSE(HasRule(r, "mutable-global"));
}

TEST(MuxlintTest, MutableGlobalScopedToSrc) {
  EXPECT_FALSE(HasRule(
      Lint("tests/test_foo.cc",
           "namespace muxwise {\nint g_fixture_count = 0;\n}\n"),
      "mutable-global"));
}

// --- Shard safety: instance-key tracking and annotations ---

TEST(MuxlintTest, ShardSafetyFlagsUnannotatedCrossInstanceFunction) {
  const LintReport r = Lint(
      "src/core/foo.cc",
      "namespace muxwise::core {\n"
      "void CrossTalk() {\n"
      "  cluster_->instance(0).host->Submit(1);\n"
      "  cluster_->instance(1).device->Run();\n"
      "}\n"
      "}\n");
  ASSERT_TRUE(HasRule(r, "shard-safety"));
  EXPECT_EQ(r.findings[0].line, 2);
}

TEST(MuxlintTest, ShardSafetyAcceptsChannelEntryAnnotation) {
  const LintReport r = Lint(
      "src/core/foo.cc",
      "namespace muxwise::core {\n"
      "MUX_CHANNEL_ENTRY void Blessed() {\n"
      "  cluster_->instance(0).host->Submit(1);\n"
      "  cluster_->instance(1).host->Submit(1);\n"
      "}\n"
      "}\n");
  EXPECT_FALSE(HasRule(r, "shard-safety"));
}

TEST(MuxlintTest, ShardSafetyFlagsShardLocalViolation) {
  const LintReport r = Lint(
      "src/baselines/foo.cc",
      "namespace muxwise::baselines {\n"
      "MUX_SHARD_LOCAL void Sneaky() {\n"
      "  cluster_->instance(0).host->Submit(1);\n"
      "  cluster_->instance(d).host->Submit(1);\n"
      "}\n"
      "}\n");
  ASSERT_TRUE(HasRule(r, "shard-safety"));
  EXPECT_NE(r.findings[0].message.find("MUX_SHARD_LOCAL"),
            std::string::npos);
}

TEST(MuxlintTest, ShardSafetyAcceptsSingleInstanceFunctions) {
  // One key — a bound alias reused many times — is shard-local in
  // practice even without the annotation.
  const LintReport r = Lint(
      "src/baselines/foo.cc",
      "namespace muxwise::baselines {\n"
      "void PumpPrefill() {\n"
      "  gpu::Instance& instance = cluster_->instance(0);\n"
      "  instance.host->Submit(1);\n"
      "  instance.device->Run();\n"
      "}\n"
      "void Straggle(std::size_t domain) {\n"
      "  cluster_->instance(domain).device->Slow();\n"
      "}\n"
      "}\n");
  EXPECT_FALSE(HasRule(r, "shard-safety"));
}

TEST(MuxlintTest, ShardSafetyCountsEachAddInstanceDistinct) {
  // Wiring two instances is a cross-shard act: the constructor must be
  // a declared channel entry point.
  const LintReport r = Lint(
      "src/baselines/foo.cc",
      "namespace muxwise::baselines {\n"
      "void Wire() {\n"
      "  prefill_ = &cluster_->AddInstance(4);\n"
      "  decode_ = &cluster_->AddInstance(4);\n"
      "}\n"
      "}\n");
  EXPECT_TRUE(HasRule(r, "shard-safety"));
}

TEST(MuxlintTest, ShardSafetyScopedToEngineLayers) {
  const LintReport r = Lint(
      "src/gpu/foo.cc",
      "namespace muxwise::gpu {\n"
      "void Touch() {\n"
      "  cluster_->instance(0).host->Submit(1);\n"
      "  cluster_->instance(1).host->Submit(1);\n"
      "}\n"
      "}\n");
  EXPECT_FALSE(HasRule(r, "shard-safety"));
}

TEST(MuxlintTest, ShardSafetySuppressibleOnSignatureLine) {
  const LintReport r = Lint(
      "src/core/foo.cc",
      "namespace muxwise::core {\n"
      "void Legacy() {  // muxlint: allow(shard-safety)\n"
      "  cluster_->instance(0).host->Submit(1);\n"
      "  cluster_->instance(1).host->Submit(1);\n"
      "}\n"
      "}\n");
  EXPECT_FALSE(HasRule(r, "shard-safety"));
  EXPECT_EQ(r.suppressed, 1u);
}

TEST(MuxlintTest, DanglingCallbackCoversTypedSend) {
  EXPECT_TRUE(HasRule(
      Lint("src/core/foo.cc",
           "link_->Send<std::int64_t>(b, id, [this](std::int64_t) {});\n"),
      "dangling-callback"));
  EXPECT_FALSE(HasRule(
      Lint("src/core/foo.cc",
           "link_->Send<std::int64_t>(b, id, "
           "[this, e = epoch()](std::int64_t) {});\n"),
      "dangling-callback"));
}

// --- Baseline: grandfathered findings ---

TEST(MuxlintTest, BaselineSuffixMatchRemovesGrandfatheredFindings) {
  LintReport report;
  LintContent("/abs/path/src/sim/logging.cc",
              "namespace muxwise::sim {\nint g_level = 1;\n}\n", report);
  ASSERT_TRUE(HasRule(report, "mutable-global"));
  ApplyBaseline({{"mutable-global", "src/sim/logging.cc"}}, report);
  EXPECT_TRUE(report.findings.empty());
  EXPECT_EQ(report.baselined, 1u);
}

TEST(MuxlintTest, BaselineIsRuleSpecific) {
  LintReport report;
  LintContent("src/sim/logging.cc",
              "namespace muxwise::sim {\nint g_level = 1;\n}\n", report);
  ApplyBaseline({{"wall-clock", "src/sim/logging.cc"}}, report);
  EXPECT_TRUE(HasRule(report, "mutable-global"));
  EXPECT_EQ(report.baselined, 0u);
}

TEST(MuxlintTest, BaselineRoundTripsThroughFormatAndLoad) {
  LintReport report;
  LintContent("/repo/src/sim/logging.cc",
              "namespace muxwise::sim {\nint g_level = 1;\n}\n", report);
  const std::string text = FormatBaseline(report);
  EXPECT_NE(text.find("mutable-global src/sim/logging.cc"),
            std::string::npos);

  const std::string path =
      ::testing::TempDir() + "/muxlint_baseline_roundtrip.txt";
  {
    std::ofstream out(path);
    out << text;
  }
  std::vector<BaselineEntry> entries;
  std::vector<std::string> errors;
  ASSERT_TRUE(LoadBaseline(path, entries, errors));
  EXPECT_TRUE(errors.empty());
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].rule, "mutable-global");
  EXPECT_EQ(entries[0].path, "src/sim/logging.cc");
  ApplyBaseline(entries, report);
  EXPECT_TRUE(report.findings.empty());
  EXPECT_EQ(report.baselined, 1u);
}

TEST(MuxlintTest, LoadBaselineReportsMissingFileAndMalformedLines) {
  std::vector<BaselineEntry> entries;
  std::vector<std::string> errors;
  EXPECT_FALSE(LoadBaseline("/nonexistent/baseline.txt", entries, errors));
  EXPECT_EQ(errors.size(), 1u);

  const std::string path = ::testing::TempDir() + "/muxlint_baseline_bad.txt";
  {
    std::ofstream out(path);
    out << "# comment\n\nmalformed-no-path\nwall-clock src/a.cc\n";
  }
  entries.clear();
  errors.clear();
  EXPECT_TRUE(LoadBaseline(path, entries, errors));
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].rule, "wall-clock");
  EXPECT_EQ(errors.size(), 1u);  // The malformed line is surfaced.
}

// --- LintTree: traversal robustness ---

namespace fs = std::filesystem;

void WriteFile(const fs::path& path, const std::string& content) {
  fs::create_directories(path.parent_path());
  std::ofstream out(path);
  out << content;
}

TEST(MuxlintTest, LintTreeSkipsBuildAndGitDirectories) {
  const fs::path root =
      fs::path(::testing::TempDir()) / "muxlint_tree_skip";
  fs::remove_all(root);
  WriteFile(root / "src" / "serve" / "ok.cc", "int x = rand();\n");
  WriteFile(root / "build" / "copy.cc", "int x = rand();\n");
  WriteFile(root / ".git" / "hook.cc", "int x = rand();\n");
  WriteFile(root / "nested" / "build" / "gen.cc", "int x = rand();\n");

  LintReport report;
  EXPECT_TRUE(LintTree({root.string()}, report));
  EXPECT_EQ(report.files_scanned, 1u);  // Only src/serve/ok.cc.
  EXPECT_TRUE(report.errors.empty());
  fs::remove_all(root);
}

TEST(MuxlintTest, LintTreeSurfacesMissingRoots) {
  LintReport report;
  EXPECT_FALSE(LintTree({"/nonexistent/muxlint/root"}, report));
  ASSERT_EQ(report.errors.size(), 1u);
  EXPECT_NE(report.errors[0].find("/nonexistent/muxlint/root"),
            std::string::npos);
  // The failure shows up in every rendering, not just the exit code.
  EXPECT_NE(FormatText(report).find("error"), std::string::npos);
  EXPECT_NE(FormatJson(report).find("\"errors\""), std::string::npos);
}

// --- SARIF output ---

TEST(MuxlintTest, SarifReportIsWellFormed) {
  LintReport report;
  LintContent("src/a.cc", "int x = rand();\n", report);
  const std::string sarif = FormatSarif(report);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"muxlint\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"raw-rand\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 1"), std::string::npos);
  EXPECT_NE(sarif.find("\"executionSuccessful\": true"),
            std::string::npos);
  // Every known rule is declared in the driver's rule table.
  for (const RuleInfo& rule : Rules()) {
    EXPECT_NE(sarif.find("\"id\": \"" + rule.name + "\""),
              std::string::npos)
        << rule.name;
  }
}

TEST(MuxlintTest, SarifMarksFailedInvocations) {
  LintReport report;
  report.errors.push_back("somewhere: unreadable");
  const std::string sarif = FormatSarif(report);
  EXPECT_NE(sarif.find("\"executionSuccessful\": false"),
            std::string::npos);
  EXPECT_NE(sarif.find("somewhere: unreadable"), std::string::npos);
}

// --- Docs stay in sync with the rule registry ---

TEST(MuxlintTest, RulesListCoversProjectRulesWithTiers) {
  const auto rules = Rules();
  auto tier_of = [&rules](const std::string& name) -> std::string {
    for (const RuleInfo& r : rules) {
      if (r.name == name) return r.tier;
    }
    return "<missing>";
  };
  EXPECT_EQ(tier_of("wall-clock"), "line");
  EXPECT_EQ(tier_of("include-guard"), "file");
  EXPECT_EQ(tier_of("stale-allow"), "file");
  EXPECT_EQ(tier_of("layering"), "project");
  EXPECT_EQ(tier_of("mutable-global"), "project");
  EXPECT_EQ(tier_of("shard-safety"), "project");
}

#ifdef MUXWISE_SOURCE_DIR
TEST(MuxlintTest, ReadmeRuleTableMatchesRuleRegistry) {
  // README.md carries a rule table between muxlint-rules markers,
  // generated from `muxlint --list-rules`; it must list exactly the
  // rules Rules() knows, in order, with matching tiers and summaries.
  std::ifstream in(std::string(MUXWISE_SOURCE_DIR) + "/README.md");
  ASSERT_TRUE(in.good()) << "README.md not found";
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string readme = buffer.str();

  const std::size_t begin = readme.find("<!-- muxlint-rules-begin -->");
  const std::size_t end = readme.find("<!-- muxlint-rules-end -->");
  ASSERT_NE(begin, std::string::npos);
  ASSERT_NE(end, std::string::npos);
  ASSERT_LT(begin, end);
  const std::string table = readme.substr(begin, end - begin);

  std::string expected;
  for (const RuleInfo& rule : Rules()) {
    expected += "| `" + rule.name + "` | " + rule.tier + " | " +
                rule.summary + " |\n";
  }
  // Every generated row appears verbatim, in order.
  std::size_t cursor = 0;
  std::stringstream rows(expected);
  std::string row;
  while (std::getline(rows, row)) {
    const std::size_t pos = table.find(row, cursor);
    ASSERT_NE(pos, std::string::npos) << "missing/out-of-order row: " << row;
    cursor = pos + row.size();
  }
  // And no row for a rule that no longer exists: count table rows
  // (lines whose trimmed form starts a `rule` cell; indentation-proof).
  std::size_t row_count = 0;
  std::stringstream table_lines(table);
  std::string table_line;
  while (std::getline(table_lines, table_line)) {
    const std::size_t first = table_line.find_first_not_of(" \t");
    if (first != std::string::npos &&
        table_line.compare(first, 3, "| `") == 0) {
      ++row_count;
    }
  }
  EXPECT_EQ(row_count, Rules().size());
}
#endif  // MUXWISE_SOURCE_DIR

}  // namespace
}  // namespace muxwise::muxlint
