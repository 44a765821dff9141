#include "harness/runner.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <memory>
#include <utility>

#include "baselines/chunked_prefill.h"
#include "check/invariant_registry.h"
#include "baselines/loongserve.h"
#include "baselines/static_disagg.h"
#include "fault/injector.h"
#include "serve/frontend.h"
#include "sim/hash.h"
#include "sim/logging.h"
#include "sim/simulator.h"
#include "workload/datasets.h"

namespace muxwise::harness {

namespace {

bool IsMuxWiseFamily(EngineKind kind) {
  return kind == EngineKind::kMuxWise || kind == EngineKind::kWindServe ||
         kind == EngineKind::kTemporal;
}

/** The run's recovery policy: a fault plan implies recovery is on. */
fault::RecoveryPolicy EffectiveRecovery(const RunConfig& config) {
  fault::RecoveryPolicy policy = config.recovery;
  if (config.fault_plan.has_value()) policy.enabled = true;
  return policy;
}

double UtilPercent(const gpu::Gpu& device, sim::Time end) {
  if (end <= 0) return 0.0;
  return 100.0 * device.SmUtilizationIntegral() / static_cast<double>(end);
}

using sim::MixDigest;

std::uint64_t MixDigest(std::uint64_t h, double v) {
  return MixDigest(h, std::bit_cast<std::uint64_t>(v));
}

std::uint64_t MixSummary(std::uint64_t h, const serve::LatencySummary& s) {
  h = MixDigest(h, s.mean_ms);
  h = MixDigest(h, s.p50_ms);
  h = MixDigest(h, s.p99_ms);
  return MixDigest(h, static_cast<std::uint64_t>(s.count));
}

/**
 * Runs every audit the scenario's components registered; aborts on any
 * violation. Called at scenario end, once the event queue has quiesced.
 */
void RunScenarioAudits(const sim::Simulator& simulator,
                       const serve::Engine& engine,
                       const serve::MetricsCollector& metrics,
                       const fault::FaultInjector* injector) {
  check::InvariantRegistry registry;
  simulator.RegisterAudits(registry);
  engine.RegisterAudits(registry);
  metrics.RegisterAudits(registry);
  if (injector != nullptr) injector->RegisterAudits(registry);
  const std::vector<check::Violation> violations = registry.RunAll();
  if (!violations.empty()) {
    sim::Panic("invariant audit failed at scenario end:\n" +
               check::FormatViolations(violations));
  }
}

}  // namespace

DriveResult DriveScenario(sim::Simulator& simulator,
                          const serve::Frontend& frontend,
                          const workload::Trace& trace,
                          const RunConfig& config) {
  DriveResult result;
  auto finish = [&result, &frontend] {
    result.terminal = frontend.completed();
    result.last_completion = frontend.last_completion();
    return result;
  };
  const double last_arrival =
      trace.requests.empty() ? 0.0
                             : trace.requests.back().arrival_seconds;
  double drain = config.drain_timeout_seconds;
  if (config.steady_state) {
    drain = std::min(drain, std::max(30.0, 0.35 * trace.SpanSeconds()));
  }
  const sim::Time horizon = sim::Seconds(last_arrival + drain);
  const std::size_t executed =
      simulator.RunUntil(horizon, config.event_budget);
  if (executed >= config.event_budget && !simulator.Empty()) {
    result.diagnostic =
        "event budget of " + std::to_string(config.event_budget) +
        " exhausted at " + sim::FormatDuration(simulator.Now()) + " with " +
        std::to_string(simulator.PendingEvents()) +
        " events still pending before the drain horizon; livelocked "
        "scheduler?";
    return finish();
  }
  result.stable = frontend.AllCompleted();
  if (result.stable) return finish();

  // Drain overran the timeout: let the backlog finish for partial
  // statistics (the run is already unstable), but keep the event budget
  // as the livelock guard for this phase too.
  simulator.Run(config.event_budget);
  if (!frontend.AllCompleted()) {
    const std::size_t total = trace.requests.size();
    const std::size_t stuck = total - frontend.completed();
    result.diagnostic =
        (simulator.Empty()
             ? std::string("scenario stalled: ")
             : std::string("event budget exhausted while draining: ")) +
        std::to_string(stuck) + " of " + std::to_string(total) +
        " requests never reached a terminal state (drain timeout " +
        std::to_string(static_cast<long long>(drain)) +
        " s past the last arrival)";
  }
  return finish();
}

const char* EngineKindName(EngineKind kind) {
  switch (kind) {
    case EngineKind::kMuxWise:
      return "MuxWise";
    case EngineKind::kChunked:
      return "Chunked";
    case EngineKind::kNanoFlow:
      return "NanoFlow";
    case EngineKind::kSglangPd:
      return "SGLang-PD";
    case EngineKind::kLoongServe:
      return "LoongServe";
    case EngineKind::kWindServe:
      return "WindServe*";
    case EngineKind::kTemporal:
      return "Temporal*";
  }
  return "?";
}

EngineInstance MakeEngine(EngineKind kind, sim::Simulator* simulator,
                          const serve::Deployment& deployment,
                          const core::ContentionEstimator* shared_estimator,
                          const RunConfig& config) {
  const fault::RecoveryPolicy policy = EffectiveRecovery(config);
  // Fleet routing replicates MuxWiseEngine; baselines have no replica
  // construction path, so a fleet config on one is a harness misuse.
  MUX_CHECK(!config.fleet.enabled || IsMuxWiseFamily(kind));

  EngineInstance instance;
  if (IsMuxWiseFamily(kind)) {
    MUX_CHECK(shared_estimator != nullptr);
    core::MuxWiseEngine::Options options =
        config.muxwise_options.value_or(core::MuxWiseEngine::Options());
    if (kind == EngineKind::kWindServe) {
      options.mux.mode = core::MultiplexEngine::Mode::kUnmanaged;
    } else if (kind == EngineKind::kTemporal) {
      options.mux.mode = core::MultiplexEngine::Mode::kTemporal;
    }
    options.recovery = policy;
    if (config.overload.enabled) options.overload = config.overload;
    if (config.fleet.enabled) {
      auto owned = std::make_unique<route::FleetRouter>(
          simulator, deployment, *shared_estimator, options, config.fleet);
      instance.fleet = owned.get();
      instance.engine = std::move(owned);
    } else {
      auto owned = std::make_unique<core::MuxWiseEngine>(
          simulator, deployment, *shared_estimator, options);
      instance.muxwise = owned.get();
      instance.engine = std::move(owned);
    }
  } else if (kind == EngineKind::kChunked || kind == EngineKind::kNanoFlow) {
    baselines::ChunkedPrefillEngine::Options options;
    options.token_budget =
        config.token_budget > 0
            ? config.token_budget
            : baselines::ChunkedPrefillEngine::TuneTokenBudget(
                  deployment, deployment.slo.tbt);
    options.nano_overlap = (kind == EngineKind::kNanoFlow);
    options.recovery = policy;
    auto owned = std::make_unique<baselines::ChunkedPrefillEngine>(
        simulator, deployment, options);
    instance.chunked = owned.get();
    instance.engine = std::move(owned);
  } else if (kind == EngineKind::kSglangPd) {
    auto owned = std::make_unique<baselines::StaticDisaggEngine>(
        simulator, deployment, policy);
    instance.disagg = owned.get();
    instance.engine = std::move(owned);
  } else {
    auto owned = std::make_unique<baselines::LoongServeEngine>(
        simulator, deployment, policy);
    instance.loong = owned.get();
    instance.engine = std::move(owned);
  }
  return instance;
}

RunOutcome RunArrivals(EngineKind kind, const serve::Deployment& deployment,
                       const core::ContentionEstimator* shared_estimator,
                       const RunConfig& config, std::size_t total,
                       const std::function<DriveResult(RunContext&)>& drive) {
  MUX_CHECK(config.threads == 1);
  sim::Simulator simulator;
  RunOutcome outcome;
  outcome.engine = EngineKindName(kind);
  outcome.total = total;

  EngineInstance instance =
      MakeEngine(kind, &simulator, deployment, shared_estimator, config);
  serve::Engine* const engine = instance.engine.get();
  core::MuxWiseEngine* const muxwise = instance.muxwise;
  route::FleetRouter* const fleet = instance.fleet;
  baselines::ChunkedPrefillEngine* const chunked = instance.chunked;
  baselines::StaticDisaggEngine* const disagg = instance.disagg;
  baselines::LoongServeEngine* const loong = instance.loong;

  const obs::Tracer tracer(config.trace, &simulator);
  if (tracer.enabled()) engine->AttachTracer(tracer);

  std::optional<fault::FaultInjector> injector;
  if (config.fault_plan.has_value()) {
    injector.emplace(&simulator, *config.fault_plan);
    if (tracer.enabled()) injector->SetTracer(tracer);
    injector->Arm(*engine);
  }

  serve::MetricsCollector metrics(deployment.slo);
  RunContext context{simulator, instance, metrics, outcome};
  const DriveResult result = drive(context);
  outcome.stable = result.stable;
  outcome.diagnostic = result.diagnostic;
  outcome.completed = result.terminal;

  outcome.split = metrics.Split();
  for (int rank = 0; rank < workload::kNumSloClasses; ++rank) {
    outcome.per_class[rank] =
        metrics.ClassSlice(static_cast<workload::SloClass>(rank));
  }
  outcome.ttft = metrics.Ttft();
  outcome.tbt = metrics.Tbt();
  outcome.tpot = metrics.Tpot();
  outcome.e2e = metrics.E2e();
  outcome.ttft_per_token = metrics.TtftPerToken();
  outcome.ttft_per_token_sketch = metrics.ttft_per_token_sketch();
  outcome.ttft_sketch = metrics.ttft_sketch();
  outcome.tbt_attainment = metrics.TbtAttainment(deployment.slo.tbt);

  // Canonical sketch-state witness over every population the collector
  // keeps (aggregate and per-class): a pure function of each sampled
  // multiset, whatever order the samples arrived in.
  {
    std::uint64_t sketch_digest = 0x243f6a8885a308d3ULL;
    std::size_t bytes = 0;
    auto fold = [&](const serve::QuantileSketch& sketch) {
      sketch_digest = MixDigest(sketch_digest, sketch.StateDigest());
      bytes += sketch.MemoryBytes();
    };
    fold(metrics.ttft_sketch());
    fold(metrics.ttft_per_token_sketch());
    fold(metrics.tbt_sketch());
    fold(metrics.tpot_sketch());
    fold(metrics.e2e_sketch());
    for (int rank = 0; rank < workload::kNumSloClasses; ++rank) {
      const serve::ClassMetrics& slice =
          metrics.ClassSlice(static_cast<workload::SloClass>(rank));
      fold(slice.queue_delay);
      fold(slice.ttft);
    }
    outcome.metrics_state_digest = sketch_digest;
    outcome.metric_bytes = bytes;
  }
  outcome.meets_slo = outcome.stable && metrics.MeetsSlo(deployment.slo);

  const sim::Time end = std::max<sim::Time>(result.last_completion, 1);
  outcome.token_throughput = metrics.TokenThroughput(0, end);
  outcome.request_throughput = metrics.RequestThroughput(0, end);

  if (fleet != nullptr) {
    outcome.fleet = fleet->Stats();
    double hit_rate = 0.0;
    for (std::size_t r = 0; r < fleet->num_replicas(); ++r) {
      core::MuxWiseEngine& replica = fleet->replica(r);
      outcome.gpu_utilization.push_back(
          UtilPercent(replica.mux().device(), end));
      outcome.preemptions += replica.preemptions();
      outcome.kv_spills += replica.kv_spills();
      outcome.kv_recomputes += replica.kv_recomputes();
      outcome.kv_restores += replica.kv_restores();
      outcome.partition += replica.partition_summary();
      hit_rate += replica.pool().HitRate();
    }
    outcome.cache_hit_rate =
        hit_rate / static_cast<double>(fleet->num_replicas());
  } else if (muxwise != nullptr) {
    outcome.gpu_utilization = {UtilPercent(muxwise->mux().device(), end)};
    outcome.bubble_ratio = muxwise->mux().AverageBubbleRatio();
    outcome.cache_hit_rate = muxwise->pool().HitRate();
    outcome.preemptions = muxwise->preemptions();
    outcome.partition = muxwise->partition_summary();
    outcome.overload_mode_transitions =
        muxwise->overload_controller().mode_transitions();
    outcome.kv_spills = muxwise->kv_spills();
    outcome.kv_recomputes = muxwise->kv_recomputes();
    outcome.kv_restores = muxwise->kv_restores();
  } else if (chunked != nullptr) {
    outcome.gpu_utilization = {UtilPercent(chunked->device(), end)};
    outcome.bubble_ratio =
        chunked->device().stream_stats(0).BubbleRatio();
    outcome.cache_hit_rate = chunked->pool().HitRate();
  } else if (disagg != nullptr) {
    outcome.gpu_utilization = {UtilPercent(disagg->prefill_device(), end),
                               UtilPercent(disagg->decode_device(), end)};
    outcome.cache_hit_rate = disagg->prefill_pool().HitRate();
  } else if (loong != nullptr) {
    outcome.gpu_utilization = {UtilPercent(loong->device(), end)};
  }
  outcome.event_digest = simulator.EventDigest();
  outcome.executed_events = simulator.ExecutedEvents();
  if (outcome.diagnostic.empty()) {
    RunScenarioAudits(simulator, *engine, metrics,
                      injector ? &*injector : nullptr);
  }
  return outcome;
}

RunOutcome RunWorkload(EngineKind kind, const serve::Deployment& deployment,
                       const workload::Trace& trace,
                       const core::ContentionEstimator* shared_estimator,
                       const RunConfig& config) {
  return RunArrivals(
      kind, deployment, shared_estimator, config, trace.requests.size(),
      [&](RunContext& run) {
        serve::Frontend frontend(&run.simulator, run.instance.engine.get(),
                                 &trace, &run.metrics);
        frontend.Start();
        return DriveScenario(run.simulator, frontend, trace, config);
      });
}

std::uint64_t SimulatedDigest(const RunOutcome& outcome) {
  const auto count = [](std::size_t n) {
    return static_cast<std::uint64_t>(n);
  };
  std::uint64_t h = 0x243f6a8885a308d3ULL;  // pi, for a fixed seed.
  for (unsigned char c : outcome.engine) h = MixDigest(h, count(c));
  h = MixDigest(h, count(outcome.stable ? 1 : 0));
  h = MixDigest(h, count(outcome.completed));
  h = MixDigest(h, count(outcome.total));
  h = MixSummary(h, outcome.ttft);
  h = MixSummary(h, outcome.tbt);
  h = MixSummary(h, outcome.tpot);
  h = MixSummary(h, outcome.e2e);
  h = MixSummary(h, outcome.ttft_per_token);
  h = MixDigest(h, outcome.ttft_per_token_sketch.StateDigest());
  h = MixDigest(h, outcome.ttft_sketch.StateDigest());
  h = MixDigest(h, count(outcome.ttft_subsample_ms.size()));
  for (double ms : outcome.ttft_subsample_ms) h = MixDigest(h, ms);
  h = MixDigest(h, count(outcome.peak_in_flight));
  h = MixDigest(h, count(outcome.metric_bytes));
  h = MixDigest(h, outcome.metrics_state_digest);
  h = MixDigest(h, outcome.tbt_attainment);
  h = MixDigest(h, count(outcome.meets_slo ? 1 : 0));
  h = MixDigest(h, outcome.token_throughput);
  h = MixDigest(h, outcome.request_throughput);
  h = MixDigest(h, count(outcome.gpu_utilization.size()));
  for (double util : outcome.gpu_utilization) h = MixDigest(h, util);
  h = MixDigest(h, outcome.bubble_ratio);
  h = MixDigest(h, outcome.cache_hit_rate);
  h = MixDigest(h, count(outcome.preemptions));

  const core::MuxWiseEngine::PartitionSummary& partition = outcome.partition;
  h = MixDigest(h, count(partition.decisions));
  for (std::size_t n : partition.decode_sms_histogram) {
    h = MixDigest(h, count(n));
  }
  h = MixDigest(h, count(partition.multiplexing));
  h = MixDigest(h, partition.prefill_share_sum);

  const auto mix_split = [&](const serve::GoodputSplit& split) {
    h = MixDigest(h, count(split.attained));
    h = MixDigest(h, count(split.timed_out));
    h = MixDigest(h, count(split.shed));
    h = MixDigest(h, count(split.failed));
  };
  mix_split(outcome.split);
  for (const serve::ClassMetrics& slice : outcome.per_class) {
    mix_split(slice.split);
    h = MixDigest(h, slice.queue_delay.StateDigest());
    h = MixDigest(h, slice.ttft.StateDigest());
    h = MixDigest(h, count(slice.ttft_attained));
  }
  h = MixDigest(h, count(outcome.overload_mode_transitions));
  h = MixDigest(h, count(outcome.kv_spills));
  h = MixDigest(h, count(outcome.kv_recomputes));
  h = MixDigest(h, count(outcome.kv_restores));

  const route::FleetStats& fleet = outcome.fleet;
  h = MixDigest(h, count(fleet.replicas));
  h = MixDigest(h, count(fleet.routed_per_replica.size()));
  for (std::size_t routed : fleet.routed_per_replica) {
    h = MixDigest(h, count(routed));
  }
  for (std::size_t n :
       {fleet.affinity_hits, fleet.session_hits, fleet.rehomed,
        fleet.rehome_migrations, fleet.rehome_recomputes, fleet.rehome_shed,
        fleet.rehome_failed, fleet.fleet_shed, fleet.failovers,
        fleet.zombie_downs, fleet.health_transitions, fleet.mode_transitions,
        fleet.scale_ups, fleet.scale_downs}) {
    h = MixDigest(h, count(n));
  }
  h = MixSummary(h, fleet.failover_latency);

  for (unsigned char c : outcome.diagnostic) h = MixDigest(h, count(c));
  return h;
}

std::uint64_t OutcomeDigest(const RunOutcome& outcome) {
  const std::uint64_t h = MixDigest(SimulatedDigest(outcome),
                                    outcome.event_digest);
  return MixDigest(h, static_cast<std::uint64_t>(outcome.executed_events));
}

DeterminismReport VerifyDeterminism(
    EngineKind kind, const serve::Deployment& deployment,
    const workload::Trace& trace,
    const core::ContentionEstimator* shared_estimator,
    const RunConfig& config) {
  const RunOutcome first =
      RunWorkload(kind, deployment, trace, shared_estimator, config);
  const RunOutcome second =
      RunWorkload(kind, deployment, trace, shared_estimator, config);
  return CompareRuns(first, second);
}

DeterminismReport CompareRuns(const RunOutcome& first,
                              const RunOutcome& second) {
  DeterminismReport report;
  report.first_digest = OutcomeDigest(first);
  report.second_digest = OutcomeDigest(second);
  report.first_events = first.executed_events;
  report.second_events = second.executed_events;
  auto versus = [](std::uint64_t a, std::uint64_t b) {
    return " (" + sim::HexDigest(a) + " vs " + sim::HexDigest(b) + ")";
  };
  if (first.event_digest != second.event_digest) {
    report.mismatch = "event-stream digests diverged" +
                      versus(first.event_digest, second.event_digest);
  } else if (first.executed_events != second.executed_events) {
    report.mismatch = "executed-event counts diverged (" +
                      std::to_string(first.executed_events) + " vs " +
                      std::to_string(second.executed_events) + ")";
  } else if (report.first_digest != report.second_digest) {
    report.mismatch = "event streams agree but reported outcomes diverged" +
                      versus(report.first_digest, report.second_digest);
  } else if (first.metrics_state_digest != second.metrics_state_digest) {
    report.mismatch =
        "metric sketch states diverged" +
        versus(first.metrics_state_digest, second.metrics_state_digest);
  }
  report.deterministic = report.mismatch.empty();
  return report;
}

RunCheck CheckRun(const RunOutcome& outcome,
                  const std::function<RunOutcome()>& rerun) {
  RunCheck check;
  if (!outcome.stable) {
    check.failures.push_back(
        "unstable: " + (outcome.diagnostic.empty()
                            ? std::string("drained only after the drain "
                                          "horizon")
                            : outcome.diagnostic));
  }
  if (outcome.split.total() != outcome.total) {
    check.failures.push_back(
        "terminal ledger unbalanced: attained " +
        std::to_string(outcome.split.attained) + " + timed_out " +
        std::to_string(outcome.split.timed_out) + " + shed " +
        std::to_string(outcome.split.shed) + " + failed " +
        std::to_string(outcome.split.failed) + " != total " +
        std::to_string(outcome.total));
  }
  if (!outcome.ttft_subsample_ms.empty()) {
    check.ttft_p50_exact_ms =
        serve::Percentile(outcome.ttft_subsample_ms, 0.5);
    check.ttft_p99_exact_ms =
        serve::Percentile(outcome.ttft_subsample_ms, 0.99);
    const auto accuracy = [&check](const char* label, double sketch,
                                   double exact_ms, double tolerance) {
      const double relative =
          std::abs(sketch - exact_ms) / std::max(std::abs(exact_ms), 1e-9);
      if (relative <= tolerance) return;
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "%s accuracy: sketch %.3f ms vs exact %.3f ms "
                    "(%.2f%% > %.2f%% tolerance)",
                    label, sketch, exact_ms, relative * 100.0,
                    tolerance * 100.0);
      check.failures.push_back(buf);
    };
    accuracy("p50", outcome.ttft.p50_ms, check.ttft_p50_exact_ms,
             kSketchP50Tolerance);
    accuracy("p99", outcome.ttft.p99_ms, check.ttft_p99_exact_ms,
             kSketchP99Tolerance);
  }
  if (rerun && check.ok()) {
    const DeterminismReport report = CompareRuns(outcome, rerun());
    if (!report.deterministic) {
      check.failures.push_back("double run diverged: " + report.mismatch);
    }
  }
  return check;
}

GoodputResult SweepGoodput(EngineKind kind,
                           const serve::Deployment& deployment,
                           const workload::Trace& base_trace,
                           const std::vector<double>& rates,
                           const core::ContentionEstimator* shared_estimator,
                           const RunConfig& config,
                           std::uint64_t arrival_seed) {
  GoodputResult result;
  // Hold the tested duration roughly constant across rates: resample
  // arrivals, then truncate to ~90 s of offered load. A prefix never
  // orphans a session turn (turns keep their relative order).
  constexpr double kSweepSpanSeconds = 90.0;
  for (double rate : rates) {
    workload::Trace trace = base_trace;
    workload::ResampleArrivalsPoisson(trace, rate, arrival_seed);
    const std::size_t wanted = std::max<std::size_t>(
        50, static_cast<std::size_t>(rate * kSweepSpanSeconds));
    if (trace.requests.size() > wanted) {
      trace.requests.resize(wanted);
    }
    SweepPoint point;
    point.rate_rps = rate;
    RunConfig sweep_config = config;
    sweep_config.steady_state = true;
    point.outcome =
        RunWorkload(kind, deployment, trace, shared_estimator, sweep_config);
    const bool ok = point.outcome.meets_slo;
    result.points.push_back(point);
    if (ok && rate > result.goodput_rps) {
      result.goodput_rps = rate;
      result.at_goodput = point.outcome;
    }
    if (!ok) break;  // Paper: stop once unstable / SLO-violating.
  }
  return result;
}

}  // namespace muxwise::harness
