#include "core/muxwise_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "engine_test_util.h"
#include "frozen_digests.h"
#include "gpu/gpu_spec.h"
#include "harness/runner.h"
#include "harness/scenario.h"
#include "llm/model_config.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "route/fleet_router.h"
#include "serve/deployment.h"
#include "sim/simulator.h"
#include "workload/datasets.h"

namespace muxwise::core {
namespace {

serve::Deployment Llama70bA100() {
  return serve::Deployment::Make(llm::ModelConfig::Llama70B(),
                                 gpu::GpuSpec::A100());
}

class MuxWiseEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    estimator_ = new ContentionEstimator(
        ContentionEstimator::BuildOffline(Llama70bA100()));
  }
  static void TearDownTestSuite() {
    delete estimator_;
    estimator_ = nullptr;
  }

  testutil::RunResult Run(const workload::Trace& trace,
                          MuxWiseEngine::Options options,
                          MuxWiseEngine** engine_out = nullptr) {
    simulator_ = std::make_unique<sim::Simulator>();
    engine_ = std::make_unique<MuxWiseEngine>(simulator_.get(),
                                              Llama70bA100(), *estimator_,
                                              options);
    if (engine_out != nullptr) *engine_out = engine_.get();
    return testutil::RunTrace(*simulator_, *engine_, trace);
  }

  static ContentionEstimator* estimator_;
  std::unique_ptr<sim::Simulator> simulator_;
  std::unique_ptr<MuxWiseEngine> engine_;
};

ContentionEstimator* MuxWiseEngineTest::estimator_ = nullptr;

TEST_F(MuxWiseEngineTest, CompletesShareGptTrace) {
  const workload::Trace trace =
      workload::GenerateTrace(workload::Dataset::kShareGpt, 100, 3.0, 5);
  MuxWiseEngine* engine = nullptr;
  const auto result = Run(trace, MuxWiseEngine::Options(), &engine);
  EXPECT_TRUE(result.all_completed);
  EXPECT_EQ(engine->InFlight(), 0u);
  EXPECT_GT(engine->decode_iterations(), 100u);
  EXPECT_STREQ(engine->name(), "MuxWise");
}

TEST_F(MuxWiseEngineTest, MeetsDecodeSloWhileMultiplexing) {
  const workload::Trace trace = workload::GenerateTrace(
      workload::Dataset::kConversation, 120, 2.0, 7);
  const auto result = Run(trace, MuxWiseEngine::Options());
  ASSERT_TRUE(result.all_completed);
  // The dispatcher reserves best-fit SMs from worst-case estimates:
  // P99 TBT stays within the 100 ms target.
  EXPECT_LE(result.metrics.Tbt().p99_ms, 100.0);
}

TEST_F(MuxWiseEngineTest, ReusesMultiTurnContext) {
  const workload::Trace trace = workload::GenerateTrace(
      workload::Dataset::kConversation, 100, 1.5, 9);
  MuxWiseEngine* engine = nullptr;
  const auto result = Run(trace, MuxWiseEngine::Options(), &engine);
  ASSERT_TRUE(result.all_completed);
  EXPECT_GT(engine->pool().HitRate(), 0.4);
}

TEST_F(MuxWiseEngineTest, PartitionAdaptsToWorkload) {
  // Paper Fig. 18: prefill-heavy workloads shift SMs to prefill;
  // decode-heavy ones shift to decode.
  const workload::Trace loogle =
      workload::GenerateTrace(workload::Dataset::kLoogle, 30, 0.8, 11);
  MuxWiseEngine* engine = nullptr;
  auto result = Run(loogle, MuxWiseEngine::Options(), &engine);
  ASSERT_TRUE(result.all_completed);
  const MuxWiseEngine::PartitionSummary& loogle_partition =
      engine->partition_summary();
  ASSERT_GT(loogle_partition.multiplexing, 0u);
  EXPECT_GT(loogle_partition.prefill_share_sum /
                static_cast<double>(loogle_partition.multiplexing),
            0.5);

  const workload::Trace thoughts = workload::GenerateTrace(
      workload::Dataset::kOpenThoughts, 40, 1.0, 13);
  result = Run(thoughts, MuxWiseEngine::Options(), &engine);
  ASSERT_TRUE(result.all_completed);
  const auto& histogram = engine->partition_summary().decode_sms_histogram;
  const auto configurations =
      std::count_if(histogram.begin(), histogram.end(),
                    [](std::size_t n) { return n > 0; });
  EXPECT_GE(configurations, 2);  // Reconfigures dynamically.
  EXPECT_GT(engine->mux().reconfigurations(), 0u);
}

TEST_F(MuxWiseEngineTest, DisablingLayerwiseIncreasesDecodeLatency) {
  // Paper Fig. 19 variant 1: whole-phase launches block the host ~10 ms
  // (Llama-70B piecewise graph total), inflating decode tail latency.
  const workload::Trace trace = workload::GenerateTrace(
      workload::Dataset::kToolAgent, 80, 2.0, 15);
  MuxWiseEngine::Options with;
  const auto base = Run(trace, with);
  MuxWiseEngine::Options without;
  without.layerwise = false;
  const auto ablated = Run(trace, without);
  ASSERT_TRUE(base.all_completed);
  ASSERT_TRUE(ablated.all_completed);
  EXPECT_GT(ablated.metrics.Tbt().p99_ms, base.metrics.Tbt().p99_ms);
}

TEST_F(MuxWiseEngineTest, DisablingQuerySyncStallsDecode) {
  // Paper Fig. 19 variant 2 (cumulative with variant 1): with
  // whole-phase prefill launches and blocking merges, the decode loop
  // stalls for the remaining prefill execution — a large TBT
  // degradation (314/672 ms in the paper).
  const workload::Trace trace = workload::GenerateTrace(
      workload::Dataset::kToolAgent, 80, 2.0, 15);
  MuxWiseEngine::Options variant1;
  variant1.layerwise = false;
  const auto base = Run(trace, variant1);
  MuxWiseEngine::Options variant2;
  variant2.layerwise = false;
  variant2.query_sync = false;
  const auto ablated = Run(trace, variant2);
  ASSERT_TRUE(base.all_completed);
  ASSERT_TRUE(ablated.all_completed);
  EXPECT_GT(ablated.metrics.Tbt().p99_ms,
            2.0 * base.metrics.Tbt().p99_ms);
}

TEST_F(MuxWiseEngineTest, PreemptionImprovesShortRequestTtft) {
  // Paper Fig. 20: 50/50 ShareGPT + LooGLE; preemption lets short
  // requests jump long prefills.
  workload::Trace mixed = workload::MergeTraces(
      "mixed",
      {workload::GenerateTrace(workload::Dataset::kShareGpt, 40, 0.15, 17),
       workload::GenerateTrace(workload::Dataset::kLoogle, 40, 0.15, 18)});
  MuxWiseEngine::Options with;
  MuxWiseEngine* engine = nullptr;
  const auto on = Run(mixed, with, &engine);
  const std::size_t preemptions = engine->preemptions();
  MuxWiseEngine::Options off;
  off.dispatch.preemption = false;
  const auto no = Run(mixed, off, &engine);
  ASSERT_TRUE(on.all_completed);
  ASSERT_TRUE(no.all_completed);
  EXPECT_GT(preemptions, 0u);
  EXPECT_EQ(engine->preemptions(), 0u);
  EXPECT_LT(on.metrics.TtftPerToken().p99_ms,
            no.metrics.TtftPerToken().p99_ms);
}

TEST_F(MuxWiseEngineTest, OnlineRefinementObservesContention) {
  const workload::Trace trace = workload::GenerateTrace(
      workload::Dataset::kConversation, 80, 2.0, 19);
  MuxWiseEngine* engine = nullptr;
  const auto result = Run(trace, MuxWiseEngine::Options(), &engine);
  ASSERT_TRUE(result.all_completed);
  EXPECT_GT(engine->estimator().observations(), 0u);
}

TEST_F(MuxWiseEngineTest, UnmanagedModeRunsButContendsMore) {
  const workload::Trace trace = workload::GenerateTrace(
      workload::Dataset::kConversation, 120, 3.0, 21);
  MuxWiseEngine::Options unmanaged;
  unmanaged.mux.mode = MultiplexEngine::Mode::kUnmanaged;
  MuxWiseEngine* engine = nullptr;
  const auto wind = Run(trace, unmanaged, &engine);
  EXPECT_STREQ(engine->name(), "WindServe*");
  const auto spatial = Run(trace, MuxWiseEngine::Options());
  ASSERT_TRUE(wind.all_completed);
  ASSERT_TRUE(spatial.all_completed);
  // Oversubscribed streams thrash: prefill loses the dedicated SMs a
  // managed partition would give it, so tail TTFT suffers — the
  // goodput-limiting direction behind the paper's 1.61x gap (§6).
  EXPECT_GT(wind.metrics.Ttft().p99_ms, spatial.metrics.Ttft().p99_ms);
}

TEST_F(MuxWiseEngineTest, TemporalModeCompletesButUnderperforms) {
  const workload::Trace trace = workload::GenerateTrace(
      workload::Dataset::kShareGpt, 60, 2.0, 23);
  MuxWiseEngine::Options temporal;
  temporal.mux.mode = MultiplexEngine::Mode::kTemporal;
  MuxWiseEngine* engine = nullptr;
  const auto t = Run(trace, temporal, &engine);
  EXPECT_STREQ(engine->name(), "Temporal*");
  const auto s = Run(trace, MuxWiseEngine::Options());
  ASSERT_TRUE(t.all_completed);
  ASSERT_TRUE(s.all_completed);
  // Temporal-only multiplexing cannot exploit leftover SMs during
  // decode: prefill waits, TTFT suffers (paper §6: >= 20% worse).
  EXPECT_GT(t.metrics.Ttft().p99_ms, s.metrics.Ttft().p99_ms);
}

TEST_F(MuxWiseEngineTest, BubbleRatioStaysModest) {
  const workload::Trace trace = workload::GenerateTrace(
      workload::Dataset::kToolAgent, 100, 2.0, 25);
  MuxWiseEngine* engine = nullptr;
  const auto result = Run(trace, MuxWiseEngine::Options(), &engine);
  ASSERT_TRUE(result.all_completed);
  // Paper §4.4.2 reports ~7.7% under goodput-level load; at this more
  // moderate load the prefill stream idles between batches, so allow a
  // generous envelope (the Fig. 19 bench measures the loaded case).
  EXPECT_LT(engine->mux().AverageBubbleRatio(), 0.55);
}

TEST(PartitionSummaryTest, CountsEverySample) {
  const int sm_count = Llama70bA100().gpu.sm_count;
  MuxWiseEngine::PartitionSummary summary;
  summary.Add(54, sm_count, false);
  summary.Add(1, sm_count, true);
  summary.Add(sm_count, sm_count, true);  // Decode holds every SM.
  summary.Add(54, sm_count, true);
  summary.Add(255, sm_count, true);       // Past the device: no prefill.
  EXPECT_EQ(summary.decisions, 5u);
  EXPECT_EQ(summary.decode_sms_histogram[54], 2u);
  EXPECT_EQ(summary.decode_sms_histogram[1], 1u);
  EXPECT_EQ(summary.decode_sms_histogram[sm_count], 1u);
  EXPECT_EQ(summary.decode_sms_histogram[255], 1u);
  // Only decisions with an active prefill holding SMs are multiplexing.
  EXPECT_EQ(summary.multiplexing, 2u);
  const double sms = static_cast<double>(sm_count);
  EXPECT_DOUBLE_EQ(summary.prefill_share_sum,
                   (sms - 1) / sms + (sms - 54) / sms);
}

TEST(PartitionSummaryDeathTest, RejectsOutOfRangeDecodeSms) {
  EXPECT_DEATH(
      {
        MuxWiseEngine::PartitionSummary summary;
        summary.Add(256, 108, false);
      },
      "decode_sms < kMaxDecodeSms");
  EXPECT_DEATH(
      {
        MuxWiseEngine::PartitionSummary summary;
        summary.Add(-1, 108, false);
      },
      "decode_sms >= 0");
}

TEST_F(MuxWiseEngineTest, PartitionSummaryCountsEveryDecision) {
  const workload::Trace trace =
      workload::GenerateTrace(workload::Dataset::kShareGpt, 1200, 4.0, 1802);
  MuxWiseEngine* engine = nullptr;
  const auto result = Run(trace, MuxWiseEngine::Options(), &engine);
  ASSERT_TRUE(result.all_completed);
  const MuxWiseEngine::PartitionSummary& summary = engine->partition_summary();
  ASSERT_GE(summary.decisions, 10000u);
  EXPECT_EQ(summary.decisions, engine->decode_iterations());
  std::size_t histogram_total = 0;
  for (std::size_t n : summary.decode_sms_histogram) histogram_total += n;
  EXPECT_EQ(histogram_total, summary.decisions);
  EXPECT_LE(summary.multiplexing, summary.decisions);
}

// One 512-token request on an idle MuxWise engine: events executed
// besides the end events of its priced decode runs, first-token time and
// TBT gaps (ns), the same with 64 or 1,024 outputs.
constexpr std::size_t kLoneRequestEvents = 22;
constexpr sim::Time kLoneRequestFirstToken = 136159650;
constexpr sim::Duration kLoneRequestFirstGap = 10804293;
constexpr sim::Duration kLoneRequestGap64 = 10795575;
constexpr sim::Duration kLoneRequestLastGap = 10815091;

/** One request's run on an idle engine: events executed, token times. */
struct LoneRequestRun {
  std::size_t events = 0;
  std::vector<sim::Time> token_times;
};

/** A 512-token prompt of its own session, answered with `output_tokens`. */
workload::RequestSpec LoneSpec(std::int64_t session,
                               std::int64_t output_tokens) {
  constexpr std::int64_t kInput = 512;
  workload::RequestSpec spec;
  spec.id = session;
  spec.session = session;
  kv::AppendSpan(spec.prompt, kv::TokenSpan{session, 0, kInput});
  spec.full_seq = spec.prompt;
  kv::AppendSpan(spec.full_seq,
                 kv::TokenSpan{session, kInput, kInput + output_tokens});
  spec.input_tokens = kInput;
  spec.output_tokens = output_tokens;
  return spec;
}

LoneRequestRun RunLoneRequest(const ContentionEstimator& estimator,
                              std::int64_t output_tokens) {
  const workload::RequestSpec spec = LoneSpec(1, output_tokens);
  sim::Simulator simulator;
  MuxWiseEngine engine(&simulator, Llama70bA100(), estimator,
                       MuxWiseEngine::Options());
  LoneRequestRun run;
  engine.set_on_complete([&run](std::unique_ptr<serve::Request> request) {
    run.token_times = request->token_times;
  });
  engine.Enqueue(std::make_unique<serve::Request>(&spec));
  simulator.Run();
  run.events = simulator.ExecutedEvents();
  return run;
}

TEST_F(MuxWiseEngineTest, LoneRequestCostsOneEventPerPricedRun) {
  // With no prefill pending, decode iterations run in priced runs of up
  // to 256 that end in one event each: after the prefill, the first
  // iteration (launched from the prefill's completion) costs events, and
  // then each run one. 63 iterations fit one run, 1,023 four.
  const LoneRequestRun short_run = RunLoneRequest(*estimator_, 64);
  const LoneRequestRun long_run = RunLoneRequest(*estimator_, 1024);
  EXPECT_EQ(short_run.events, kLoneRequestEvents + 1);
  EXPECT_EQ(long_run.events, kLoneRequestEvents + 4);

  ASSERT_EQ(short_run.token_times.size(), 64u);
  ASSERT_EQ(long_run.token_times.size(), 1024u);
  // Iteration k prices the same one-request batch in both runs, so the
  // shorter run's token times are a prefix of the longer run's.
  EXPECT_TRUE(std::equal(short_run.token_times.begin(),
                         short_run.token_times.end(),
                         long_run.token_times.begin()));
  const std::vector<sim::Time>& t = long_run.token_times;
  EXPECT_EQ(t[0], kLoneRequestFirstToken);
  EXPECT_EQ(t[1] - t[0], kLoneRequestFirstGap);
  EXPECT_EQ(t[64] - t[63], kLoneRequestGap64);
  EXPECT_EQ(t[1023] - t[1022], kLoneRequestLastGap);
}

// --- Decode stretches -------------------------------------------------
//
// With no prefill pending, MuxWise runs its decode batch with no event
// per iteration, one stretch of priced runs at a time. A stretch may never pass anything
// the event loop would have run first, so a run that is stepped through
// events throughout simulates exactly what a stretched run simulates.

/** Schedules a no-op every `period`, from `period` on, until `done()`. */
class Ticker {
 public:
  Ticker(sim::Simulator& simulator, sim::Duration period,
         std::function<bool()> done)
      : simulator_(simulator), period_(period), done_(std::move(done)) {
    Schedule();
  }

  Ticker(const Ticker&) = delete;
  Ticker& operator=(const Ticker&) = delete;

 private:
  void Schedule() {
    simulator_.ScheduleAfter(period_, [this] {
      if (!done_()) Schedule();
    });
  }

  sim::Simulator& simulator_;
  sim::Duration period_;
  std::function<bool()> done_;
};

/**
 * Every decode iteration lasts at least its 500 us graph launch, so a
 * tick every 250 us is always pending before it ends: none is priced
 * into a run.
 */
constexpr sim::Duration kTickPeriod = sim::Microseconds(250);

/** Requests of LoneSpec, all enqueued at t=0, run to their end. */
struct BatchRun {
  std::size_t events = 0;
  std::size_t decode_iterations = 0;
  std::vector<std::vector<sim::Time>> token_times;  // By request id - 1.
  // Per completion: Now() minus the last token's time, and the decode
  // iterations begun by then.
  std::vector<std::pair<sim::Duration, std::size_t>> completions;
};

BatchRun RunBatch(const ContentionEstimator& estimator,
                  const std::vector<std::int64_t>& outputs, bool ticked) {
  std::vector<workload::RequestSpec> specs;
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    specs.push_back(LoneSpec(static_cast<std::int64_t>(i) + 1, outputs[i]));
  }
  sim::Simulator simulator;
  MuxWiseEngine engine(&simulator, Llama70bA100(), estimator,
                       MuxWiseEngine::Options());
  BatchRun run;
  run.token_times.resize(specs.size());
  engine.set_on_complete([&](std::unique_ptr<serve::Request> request) {
    run.completions.emplace_back(
        simulator.Now() - request->token_times.back(),
        engine.decode_iterations());
    run.token_times[static_cast<std::size_t>(request->spec->id) - 1] =
        request->token_times;
  });
  std::optional<Ticker> ticker;
  if (ticked) {
    ticker.emplace(simulator, kTickPeriod, [&run, &specs] {
      return run.completions.size() == specs.size();
    });
  }
  for (const workload::RequestSpec& spec : specs) {
    engine.Enqueue(std::make_unique<serve::Request>(&spec));
  }
  simulator.Run();
  run.events = simulator.ExecutedEvents();
  run.decode_iterations = engine.decode_iterations();
  return run;
}

TEST_F(MuxWiseEngineTest, DecodeStretchEndsOnTheIterationThatFinishesARequest) {
  // A decode batch that shrinks as requests finish, two of them in the
  // same iteration. (The first request is prefilled alone; the other
  // three merge into its batch once their prefill completes.)
  const std::vector<std::int64_t> outputs = {5, 9, 9, 30};
  const BatchRun stretched = RunBatch(*estimator_, outputs, false);
  const BatchRun stepped = RunBatch(*estimator_, outputs, true);
  ASSERT_EQ(stretched.completions.size(), outputs.size());
  // Each request was handed back at its last token's time, with as many
  // iterations begun as when every iteration is stepped: none after the
  // one that finished it.
  for (const auto& completion : stretched.completions) {
    EXPECT_EQ(completion.first, 0);
  }
  EXPECT_EQ(stretched.completions, stepped.completions);
  EXPECT_EQ(stretched.token_times, stepped.token_times);
  EXPECT_EQ(stretched.decode_iterations, stepped.decode_iterations);
  // The next stretch starts at once: a longer tail costs one event per
  // priced run of up to 256 iterations, here one more.
  EXPECT_EQ(RunBatch(*estimator_, {5, 9, 9, 300}, false).events,
            stretched.events + 1);
}

/**
 * RunLoneRequest with a no-op event at `event_at`, run to `horizon`
 * first when it is set. Returns the decode iterations begun when the
 * event ran (or when the horizon was reached).
 */
std::size_t RunLoneRequestAround(const ContentionEstimator& estimator,
                                 std::optional<sim::Time> event_at,
                                 std::optional<sim::Time> horizon,
                                 LoneRequestRun* run) {
  const workload::RequestSpec spec = LoneSpec(1, 64);
  sim::Simulator simulator;
  MuxWiseEngine engine(&simulator, Llama70bA100(), estimator,
                       MuxWiseEngine::Options());
  engine.set_on_complete([run](std::unique_ptr<serve::Request> request) {
    run->token_times = request->token_times;
  });
  std::size_t begun = 0;
  if (event_at.has_value()) {
    simulator.ScheduleAt(*event_at,
                         [&] { begun = engine.decode_iterations(); });
  }
  engine.Enqueue(std::make_unique<serve::Request>(&spec));
  if (horizon.has_value()) {
    simulator.RunUntil(*horizon);
    EXPECT_EQ(simulator.Now(), *horizon);
    begun = engine.decode_iterations();
  }
  simulator.Run();
  run->events = simulator.ExecutedEvents();
  return begun;
}

TEST_F(MuxWiseEngineTest, DecodeStretchStopsStrictlyBeforeAPendingEvent) {
  const LoneRequestRun plain = RunLoneRequest(*estimator_, 64);
  ASSERT_EQ(plain.token_times.size(), 64u);
  // Decode iteration k emits token k; put an event exactly at its end.
  constexpr std::size_t k = 20;
  LoneRequestRun run;
  const std::size_t begun =
      RunLoneRequestAround(*estimator_, plain.token_times[k], {}, &run);
  // Iteration k would end at the event, which runs first; so k was
  // launched through events (two of them), and only k: the stretch ran
  // up to iteration k - 1 and resumed once k completed, one priced run
  // on either side.
  EXPECT_EQ(begun, k);
  EXPECT_EQ(run.events, kLoneRequestEvents + 1 + 2 + 2);
  EXPECT_EQ(run.token_times, plain.token_times);
}

TEST_F(MuxWiseEngineTest, DecodeStretchStopsAtTheRunUntilHorizon) {
  const LoneRequestRun plain = RunLoneRequest(*estimator_, 64);
  ASSERT_EQ(plain.token_times.size(), 64u);
  constexpr std::size_t k = 20;
  LoneRequestRun run;
  const std::size_t begun =
      RunLoneRequestAround(*estimator_, {}, plain.token_times[k], &run);
  // The horizon is inclusive: the priced run ended with iteration k at
  // it, and k + 1, which ends past it, was launched through events; one
  // priced run on either side.
  EXPECT_EQ(begun, k + 1);
  EXPECT_EQ(run.events, kLoneRequestEvents + 2 + 2);
  EXPECT_EQ(run.token_times, plain.token_times);
}

/** RunWorkload with a no-op tick every kTickPeriod until all complete. */
harness::RunOutcome RunStepped(harness::EngineKind kind,
                               const serve::Deployment& deployment,
                               const workload::Trace& trace,
                               const ContentionEstimator& estimator,
                               const harness::RunConfig& config) {
  return harness::RunArrivals(
      kind, deployment, &estimator, config, trace.requests.size(),
      [&](harness::RunContext& run) {
        serve::Frontend frontend(&run.simulator, run.instance.engine.get(),
                                 &trace, &run.metrics);
        frontend.Start();
        const Ticker ticker(run.simulator, kTickPeriod,
                            [&frontend] { return frontend.AllCompleted(); });
        return harness::DriveScenario(run.simulator, frontend, trace, config);
      });
}

TEST(DecodeStretchTest, SteppedRunsSimulateAndTraceWhatStretchedRunsDo) {
  const serve::Deployment deployment = tests::FrozenDeployment();
  const ContentionEstimator estimator =
      ContentionEstimator::BuildOffline(deployment);
  const workload::Trace trace = tests::FrozenTrace();
  // The MuxWise family, plain (pinned) and under overload control.
  for (const tests::FrozenDigest& row : tests::kFrozenEngineDigests) {
    if (row.kind != harness::EngineKind::kMuxWise &&
        row.kind != harness::EngineKind::kWindServe &&
        row.kind != harness::EngineKind::kTemporal) {
      continue;
    }
    for (const bool overload : {false, true}) {
      SCOPED_TRACE(std::string(harness::EngineKindName(row.kind)) +
                   (overload ? " with overload control" : ""));
      harness::RunConfig config;
      config.overload.enabled = overload;
      obs::TraceRecorder stretched_trace;
      config.trace = &stretched_trace;
      const harness::RunOutcome stretched =
          harness::RunWorkload(row.kind, deployment, trace, &estimator, config);
      obs::TraceRecorder stepped_trace;
      config.trace = &stepped_trace;
      const harness::RunOutcome stepped =
          RunStepped(row.kind, deployment, trace, estimator, config);
      EXPECT_EQ(harness::SimulatedDigest(stepped),
                harness::SimulatedDigest(stretched));
      // A priced iteration emits the trace events a stepped one does.
      EXPECT_EQ(obs::TraceDigest(stepped_trace),
                obs::TraceDigest(stretched_trace));
      if (!overload) {
        EXPECT_EQ(stretched.event_digest, row.event_digest);
        EXPECT_EQ(harness::SimulatedDigest(stretched), row.simulated_digest);
      }
      if (!overload && row.kind == harness::EngineKind::kMuxWise) {
        EXPECT_EQ(obs::TraceDigest(stretched_trace),
                  tests::kUnsampledTraceDigest);
      }
      // The ticks alone outnumber the stretched run's events.
      EXPECT_GT(stepped.executed_events, 10 * stretched.executed_events);
    }
  }
}

TEST(DecodeStretchTest, TracedRunsSimulateWhatUntracedRunsDo) {
  // A traced stretch runs its iterations one at a time, so that each
  // trace event keeps its time; an untraced one prices up to a buffer of
  // them and accounts for them in bulk. Both must simulate the same
  // thing: on the frozen trace, and on a multi-turn one whose decode
  // batches outlive a buffer.
  const serve::Deployment deployment = tests::FrozenDeployment();
  const ContentionEstimator estimator =
      ContentionEstimator::BuildOffline(deployment);
  const workload::Trace traces[] = {
      tests::FrozenTrace(),
      workload::GenerateTrace(workload::Dataset::kConversation, 40, 2.0, 7)};
  for (const workload::Trace& trace : traces) {
    for (const harness::EngineKind kind :
         {harness::EngineKind::kMuxWise, harness::EngineKind::kWindServe,
          harness::EngineKind::kTemporal}) {
      for (const bool overload : {false, true}) {
        SCOPED_TRACE(std::string(harness::EngineKindName(kind)) + " on " +
                     std::to_string(trace.requests.size()) + " requests" +
                     (overload ? " with overload control" : ""));
        harness::RunConfig config;
        config.overload.enabled = overload;
        const harness::RunOutcome untraced =
            harness::RunWorkload(kind, deployment, trace, &estimator, config);
        obs::TraceRecorder recorder;
        config.trace = &recorder;
        const harness::RunOutcome traced =
            harness::RunWorkload(kind, deployment, trace, &estimator, config);
        EXPECT_EQ(traced.event_digest, untraced.event_digest);
        EXPECT_EQ(harness::SimulatedDigest(traced),
                  harness::SimulatedDigest(untraced));
        EXPECT_EQ(traced.executed_events, untraced.executed_events);
      }
    }
  }
}


/** A stretched and a stepped run of one engine or fleet, with their digests. */
void ExpectSteppedRunMatches(const std::string& label,
                             harness::EngineKind kind,
                             const serve::Deployment& deployment,
                             const workload::Trace& trace,
                             const harness::RunConfig& config) {
  SCOPED_TRACE(label + ", " + std::to_string(trace.requests.size()) +
               " requests");
  const ContentionEstimator estimator =
      ContentionEstimator::BuildOffline(deployment);
  const harness::RunOutcome stretched =
      harness::RunWorkload(kind, deployment, trace, &estimator, config);
  const harness::RunOutcome stepped =
      RunStepped(kind, deployment, trace, estimator, config);
  ASSERT_TRUE(stretched.stable);
  EXPECT_EQ(stretched.completed, trace.requests.size());
  EXPECT_EQ(harness::SimulatedDigest(stepped),
            harness::SimulatedDigest(stretched));
  EXPECT_GT(stepped.executed_events, stretched.executed_events);
}

/**
 * A relay through a fleet of three: each completion hands the next
 * request, at once and from inside the completing replica's event, to
 * the next replica's session, so work reaches replicas whose stretches
 * run ahead of the event loop. Every request has one shape, so replicas
 * that start together stay in lockstep and end runs on the same tick.
 * The tenth completion crashes the replica the relay goes to next,
 * which recovers two seconds later.
 */
harness::RunOutcome RunRelay(const serve::Deployment& deployment,
                             const ContentionEstimator& estimator,
                             bool stepped) {
  constexpr std::size_t kReplicas = 3;
  constexpr std::size_t kRequests = 36;
  std::vector<workload::RequestSpec> specs;
  for (std::size_t i = 0; i < kRequests; ++i) {
    specs.push_back(LoneSpec(static_cast<std::int64_t>(i) + 1, 64));
  }
  harness::RunConfig config;
  config.recovery.enabled = true;
  config.fleet.enabled = true;
  config.fleet.replicas = kReplicas;
  return harness::RunArrivals(
      harness::EngineKind::kMuxWise, deployment, &estimator, config,
      kRequests, [&](harness::RunContext& run) {
        route::FleetRouter& fleet = *run.instance.fleet;
        harness::DriveResult result;
        std::size_t sent = 0;
        const auto send = [&](std::int64_t session) {
          workload::RequestSpec& spec = specs[sent++];
          spec.session = session;
          auto request = std::make_unique<serve::Request>(&spec);
          request->arrival = run.simulator.Now();
          fleet.Enqueue(std::move(request));
        };
        fleet.set_on_complete([&](std::unique_ptr<serve::Request> request) {
          run.metrics.OnRequestComplete(*request);
          ++result.terminal;
          result.last_completion = run.simulator.Now();
          const std::int64_t next =
              request->spec->session % static_cast<std::int64_t>(kReplicas) + 1;
          if (result.terminal == 10) {
            const auto down = static_cast<std::size_t>(next - 1);
            fleet.InjectCrash(down);
            run.simulator.ScheduleAfter(sim::Seconds(2), [&fleet, down] {
              fleet.InjectRecovery(down);
            });
          }
          if (sent < kRequests) send(next);
        });
        for (std::int64_t session = 1;
             session <= static_cast<std::int64_t>(kReplicas); ++session) {
          send(session);
        }
        std::optional<Ticker> ticker;
        if (stepped) {
          ticker.emplace(run.simulator, kTickPeriod,
                         [&] { return result.terminal == kRequests; });
        }
        run.simulator.Run();
        result.stable = result.terminal == kRequests;
        return result;
      });
}

TEST(DecodeStretchTest, SteppedScenariosSimulateWhatStretchedScenariosDo) {
  // A fleet's replicas share one simulator. A tick every 250 us is a
  // global event that cuts every engine's and replica's stretch, so the
  // stepped run launches every decode iteration through events; the
  // stretched run must simulate exactly the same thing.
  {
    // fleet_burst's shape: MMPP ToolAgent bursts into four replicas
    // under overload control.
    workload::MmppOptions mmpp;
    mmpp.dataset = workload::Dataset::kToolAgent;
    mmpp.calm_rate_per_second = 0.4;
    mmpp.burst_multiplier = 4.0;
    mmpp.mean_calm_seconds = 30.0;
    mmpp.mean_burst_seconds = 8.0;
    mmpp.duration_seconds = 480.0;
    mmpp.class_mix = {0.3, 0.5, 0.2};
    harness::RunConfig config;
    config.overload.enabled = true;
    config.fleet.enabled = true;
    config.fleet.replicas = 4;
    ExpectSteppedRunMatches("MMPP ToolAgent burst",
                            harness::EngineKind::kMuxWise, Llama70bA100(),
                            workload::GenerateMmppTrace(mmpp, 1), config);
  }
  // The checked-in single-engine and fleet scenarios, with their fault
  // plans.
  for (const char* file :
       {"scenarios/acceptance_sharegpt.json",
        "scenarios/loogle_longcontext.json",
        "scenarios/mixed_sharegpt_loogle.json",
        "scenarios/overload_mmpp_burst.json", "scenarios/fleet_failover.json",
        "scenarios/chaos_grey_failover.json",
        "tests/chaos_corpus/asym_partition.json",
        "tests/chaos_corpus/degrade_spill.json",
        "tests/chaos_corpus/flap_hysteresis.json",
        "tests/chaos_corpus/mixed_grey_storm.json",
        "tests/chaos_corpus/zombie_hold.json"}) {
    const harness::ScenarioParseResult parsed = harness::LoadScenarioFile(
        std::string(MUXWISE_SOURCE_DIR) + "/" + file);
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    const harness::ScenarioSpec& spec = *parsed.spec;
    serve::Deployment deployment = serve::Deployment::Make(
        llm::ModelConfig::ByName(spec.model), gpu::GpuSpec::ByName(spec.gpu),
        spec.num_gpus);
    if (spec.slo.has_value()) deployment.slo = *spec.slo;
    ExpectSteppedRunMatches(file, spec.engine, deployment,
                            harness::BuildScenarioTrace(spec), spec.config);
  }
  // Work and a crash handed to replicas whose stretches run ahead, on
  // ticks where lockstep replicas end their runs together.
  const ContentionEstimator estimator =
      ContentionEstimator::BuildOffline(Llama70bA100());
  const harness::RunOutcome relayed =
      RunRelay(Llama70bA100(), estimator, /*stepped=*/false);
  const harness::RunOutcome relayed_stepped =
      RunRelay(Llama70bA100(), estimator, /*stepped=*/true);
  EXPECT_TRUE(relayed.stable);
  EXPECT_EQ(relayed.completed, 36u);
  EXPECT_GT(relayed.fleet.rehomed, 0u);
  EXPECT_EQ(harness::SimulatedDigest(relayed_stepped),
            harness::SimulatedDigest(relayed));
}

}  // namespace
}  // namespace muxwise::core
