#include "muxwise/simcore.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "core/estimator.h"
#include "fault/fault_plan.h"
#include "gpu/gpu.h"
#include "gpu/gpu_spec.h"
#include "gpu/kernel.h"
#include "harness/runner.h"
#include "llm/model_config.h"
#include "serve/deployment.h"
#include "sim/hash.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "workload/datasets.h"

namespace muxwise::cli {

namespace {

using sim::MixDigest;

// Wall time is the measured quantity in a benchmark driver.
namespace chr = std::chrono;  // muxlint: allow(wall-clock)

double NowMs() {
  const auto t = chr::steady_clock::now().time_since_epoch();
  return chr::duration<double, std::milli>(t).count();
}

/**
 * Raw event-queue throughput: `actors` self-rescheduling callbacks with
 * deterministic, distinct delays, plus schedule-then-cancel churn on
 * every 8th firing so the cancellation path stays on the profile. With
 * `preloaded` > 0 the actors churn under that many time-sorted no-op
 * arrivals scheduled up front, 500 ns apart — the queue shape of a
 * replayed trace, whose frontend pre-schedules every arrival.
 */
OneRun DriveEvents(std::size_t target_events, int actors,
                   std::size_t preloaded) {
  sim::Simulator simulator;
  for (std::size_t i = 0; i < preloaded; ++i) {
    simulator.ScheduleAt(
        sim::Nanoseconds(1000 + 500 * static_cast<std::int64_t>(i)), [] {});
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
        const sim::EventId doomed =
            simulator.ScheduleAfter(sim::Microseconds(500), [] {});
        simulator.Cancel(doomed);
      }
      const sim::Duration delay =
          sim::Nanoseconds(1 + (static_cast<sim::Duration>(fired % 97) *
                                (a + 1)));
      simulator.ScheduleAfter(delay, bodies[static_cast<std::size_t>(a)]);
    };
  }
  for (int a = 0; a < actors; ++a) {
    simulator.ScheduleAfter(sim::Nanoseconds(a + 1),
                            bodies[static_cast<std::size_t>(a)]);
  }
  simulator.Run();
  return OneRun{simulator.ExecutedEvents(), simulator.EventDigest(), {}};
}

/**
 * Same-tick storms: every round schedules `width` events at one shared
 * timestamp (insertion order defines execution order), and the last of
 * them opens the next round — the adversarial case for the heap's
 * same-timestamp FIFO tie-break.
 */
OneRun DriveStorm(std::size_t rounds, std::size_t width) {
  sim::Simulator simulator;
  std::size_t round = 0;
  std::function<void()> start_round = [&] {
    if (round >= rounds) return;
    ++round;
    const sim::Time when = simulator.Now() + sim::Microseconds(10);
    for (std::size_t i = 0; i + 1 < width; ++i) {
      simulator.ScheduleAt(when, [] {});
    }
    simulator.ScheduleAt(when, [&] { start_round(); });
  };
  start_round();
  simulator.Run();
  return OneRun{simulator.ExecutedEvents(), simulator.EventDigest(), {}};
}

/**
 * Kernel launch/complete churn: four streams with distinct SM grants
 * chain mixed prefill/decode/fused kernels, forcing an HBM
 * re-arbitration of every co-running kernel on each boundary.
 */
OneRun DriveLaunches(std::size_t target_launches) {
  sim::Simulator simulator;
  gpu::Gpu device(&simulator, gpu::GpuSpec::A100());
  const int total_sms = device.spec().sm_count;
  const gpu::StreamId s0 = device.CreateStream(total_sms / 2);
  const gpu::StreamId s1 = device.CreateStream(total_sms / 4);
  const gpu::StreamId s2 = device.CreateStream(total_sms / 8);
  const gpu::StreamId s3 = device.CreateStream(total_sms / 8);
  const gpu::StreamId streams[] = {s0, s1, s2, s3};

  std::size_t launched = 0;
  std::function<void(int)> chain = [&](int lane) {
    if (launched >= target_launches) return;
    ++launched;
    const std::size_t n = launched;
    gpu::Kernel kernel;
    switch (n % 3) {
      case 0:
        kernel = gpu::Kernel::Prefill(2e12 + 1e9 * static_cast<double>(n % 7),
                                      1e9);
        break;
      case 1:
        kernel = gpu::Kernel::Decode(5e10, 4e9 + 1e6 * static_cast<double>(n % 13));
        break;
      default:
        kernel = gpu::Kernel::Fused(8e11, 2e9);
        break;
    }
    device.Launch(streams[lane % 4], std::move(kernel),
                  [&chain, lane] { chain(lane); });
  };
  for (int lane = 0; lane < 4; ++lane) chain(lane);
  simulator.Run();
  return OneRun{simulator.ExecutedEvents(), simulator.EventDigest(), {}};
}

/**
 * End-to-end acceptance scenario: every serving engine replays the
 * standard ShareGPT trace (scenarios/acceptance_sharegpt.json,
 * scaled). Digest folds each engine's event-stream digest and event
 * count in a fixed order.
 */
OneRun DriveAcceptance(int num_requests) {
  static const serve::Deployment deployment = serve::Deployment::Make(
      llm::ModelConfig::Llama70B(), gpu::GpuSpec::A100());
  static const core::ContentionEstimator estimator =
      core::ContentionEstimator::BuildOffline(deployment);
  const workload::Trace trace = workload::GenerateTrace(
      workload::Dataset::kShareGpt, num_requests, 2.0, 901);

  constexpr harness::EngineKind kEngines[] = {
      harness::EngineKind::kMuxWise,    harness::EngineKind::kChunked,
      harness::EngineKind::kNanoFlow,   harness::EngineKind::kSglangPd,
      harness::EngineKind::kLoongServe, harness::EngineKind::kWindServe,
      harness::EngineKind::kTemporal,
  };
  OneRun run;
  run.digest = 0x243f6a8885a308d3ULL;
  for (harness::EngineKind kind : kEngines) {
    const harness::RunOutcome outcome =
        harness::RunWorkload(kind, deployment, trace, &estimator);
    run.sim_events += outcome.executed_events;
    run.digest = MixDigest(run.digest, outcome.event_digest);
    run.digest = MixDigest(
        run.digest, static_cast<std::uint64_t>(outcome.executed_events));
  }
  return run;
}

/**
 * Overload goodput sweep (ISSUE 5): a Markov-modulated ShareGPT burst
 * at 1x/2x/4x the calm arrival rate, replayed on MuxWise with overload
 * control on and off, on chunked-prefill, and on static disaggregation.
 * The digest folds each run's event digest and its SLO-attained
 * goodput, so a control regression (fewer TTFT-attained completions)
 * shows up as a digest change even when raw event counts hold steady.
 */
OneRun DriveOverloadGoodput(double duration_seconds) {
  static const serve::Deployment deployment = serve::Deployment::Make(
      llm::ModelConfig::Llama70B(), gpu::GpuSpec::A100());
  static const core::ContentionEstimator estimator =
      core::ContentionEstimator::BuildOffline(deployment);

  OneRun run;
  run.digest = 0x452821e638d01377ULL;
  for (const double multiplier : {1.0, 2.0, 4.0}) {
    workload::MmppOptions options;
    options.dataset = workload::Dataset::kShareGpt;
    options.calm_rate_per_second = 10.0;
    options.burst_multiplier = multiplier;
    options.mean_calm_seconds = 15.0;
    options.mean_burst_seconds = 10.0;
    options.duration_seconds = duration_seconds;
    options.class_mix = {0.2, 0.5, 0.3};
    const workload::Trace trace = GenerateMmppTrace(options, 20250);

    struct Arm {
      harness::EngineKind kind;
      bool control;
    };
    constexpr Arm kArms[] = {
        {harness::EngineKind::kMuxWise, true},
        {harness::EngineKind::kMuxWise, false},
        {harness::EngineKind::kChunked, false},
        {harness::EngineKind::kSglangPd, false},
    };
    for (const Arm& arm : kArms) {
      harness::RunConfig config;
      config.recovery.enabled = true;
      config.overload.enabled = arm.control;
      const harness::RunOutcome outcome = harness::RunWorkload(
          arm.kind, deployment, trace, &estimator, config);
      std::uint64_t goodput = 0;
      for (const serve::ClassMetrics& slice : outcome.per_class) {
        goodput += slice.TtftAttained();
      }
      if (outcome.per_class.empty()) goodput = outcome.split.attained;
      run.sim_events += outcome.executed_events;
      run.digest = MixDigest(run.digest, outcome.event_digest);
      run.digest = MixDigest(run.digest, goodput);
    }
  }
  return run;
}

/**
 * Fleet goodput scaling (ISSUE 7): the MMPP burst replayed through the
 * fleet router at 1/2/4 replicas, each with and without a replica
 * crash at t=30 s (never recovering). The digest folds every run's
 * event digest, SLO-attained goodput, and re-home counters, so a
 * routing or failover regression — fewer attained completions, orphans
 * shed instead of re-homed — shows up as a digest change.
 */
OneRun DriveFleetGoodput(double duration_seconds) {
  static const serve::Deployment deployment = serve::Deployment::Make(
      llm::ModelConfig::Llama70B(), gpu::GpuSpec::A100());
  static const core::ContentionEstimator estimator =
      core::ContentionEstimator::BuildOffline(deployment);

  workload::MmppOptions options;
  options.dataset = workload::Dataset::kShareGpt;
  options.calm_rate_per_second = 2.0;
  options.burst_multiplier = 4.0;
  options.mean_calm_seconds = 15.0;
  options.mean_burst_seconds = 10.0;
  options.duration_seconds = duration_seconds;
  options.class_mix = {0.3, 0.5, 0.2};
  const workload::Trace trace = GenerateMmppTrace(options, 20260);

  OneRun run;
  run.digest = 0x13198a2e03707344ULL;
  for (const std::size_t replicas : {1, 2, 4}) {
    for (const bool crash : {false, true}) {
      harness::RunConfig config;
      config.fleet.enabled = true;
      config.fleet.replicas = replicas;
      if (crash) {
        config.fault_plan = fault::FaultPlan();
        // A fleet of one has no survivor: the crash arm then measures
        // the total-outage shed path instead of failover.
        config.fault_plan->Crash(replicas > 1 ? 1 : 0, sim::Seconds(30));
      }
      const harness::RunOutcome outcome =
          harness::RunWorkload(harness::EngineKind::kMuxWise, deployment,
                               trace, &estimator, config);
      std::uint64_t goodput = 0;
      for (const serve::ClassMetrics& slice : outcome.per_class) {
        goodput += slice.TtftAttained();
      }
      run.sim_events += outcome.executed_events;
      run.digest = MixDigest(run.digest, outcome.event_digest);
      run.digest = MixDigest(run.digest, goodput);
      run.digest = MixDigest(
          run.digest, static_cast<std::uint64_t>(outcome.fleet.rehomed));
      run.digest = MixDigest(
          run.digest, static_cast<std::uint64_t>(outcome.fleet.fleet_shed));
    }
  }
  return run;
}

}  // namespace

BenchResult Measure(const std::string& name, const SimcoreOptions& options,
                    const std::function<OneRun()>& body) {
  BenchResult result;
  result.name = name;
  const int reps = std::max(1, options.repeat);
  for (int rep = 0; rep < reps; ++rep) {
    const double start = NowMs();
    const OneRun run = body();
    result.wall_ms.push_back(NowMs() - start);
    if (!run.failure.empty()) {
      result.ok = false;
      result.note = run.failure;
    }
    if (rep == 0) {
      result.sim_events = run.sim_events;
      result.digest = run.digest;
    } else if (run.sim_events != result.sim_events ||
               run.digest != result.digest) {
      result.ok = false;
      result.note = "nondeterministic: repetition " + std::to_string(rep) +
                    " diverged from repetition 0";
    }
  }
  result.wall_ms_median = Median(result.wall_ms);
  if (result.wall_ms_median > 0.0) {
    result.events_per_sec = static_cast<double>(result.sim_events) /
                            (result.wall_ms_median / 1e3);
  }
  return result;
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::vector<std::string> SimcoreBenchNames() {
  return {
      "simcore.events",
      "simcore.storm",
      "simcore.launches",
      "simcore.acceptance",
      "overload.goodput",
      "fleet.goodput",
      "simcore.preloaded",
  };
}

BenchResult RunSimcoreBench(const std::string& name,
                            const SimcoreOptions& options) {
  if (name == "simcore.events") {
    const std::size_t target = options.smoke ? 200'000 : 2'000'000;
    return Measure(name, options,
                   [target] { return DriveEvents(target, 64, 0); });
  }
  if (name == "simcore.preloaded") {
    const std::size_t target = options.smoke ? 200'000 : 2'000'000;
    return Measure(name, options,
                   [target] { return DriveEvents(target, 64, 20'000); });
  }
  if (name == "simcore.storm") {
    const std::size_t rounds = options.smoke ? 400 : 4'000;
    return Measure(name, options,
                   [rounds] { return DriveStorm(rounds, 256); });
  }
  if (name == "simcore.launches") {
    const std::size_t target = options.smoke ? 20'000 : 200'000;
    return Measure(name, options, [target] { return DriveLaunches(target); });
  }
  if (name == "simcore.acceptance") {
    const int requests = options.smoke ? 20 : 45;
    return Measure(name, options,
                   [requests] { return DriveAcceptance(requests); });
  }
  if (name == "overload.goodput") {
    const double duration = options.smoke ? 30.0 : 120.0;
    return Measure(name, options,
                   [duration] { return DriveOverloadGoodput(duration); });
  }
  if (name == "fleet.goodput") {
    const double duration = options.smoke ? 40.0 : 90.0;
    return Measure(name, options,
                   [duration] { return DriveFleetGoodput(duration); });
  }
  BenchResult unknown;
  unknown.name = name;
  unknown.ok = false;
  unknown.note = "unknown simcore benchmark";
  return unknown;
}

}  // namespace muxwise::cli
