#ifndef MUXWISE_TESTS_FROZEN_DIGESTS_H_
#define MUXWISE_TESTS_FROZEN_DIGESTS_H_

#include <cstdint>
#include <ostream>

#include "fault/fault_plan.h"
#include "gpu/gpu_spec.h"
#include "harness/runner.h"
#include "llm/model_config.h"
#include "serve/deployment.h"
#include "sim/hash.h"
#include "sim/time.h"
#include "workload/datasets.h"

namespace muxwise::tests {

// Every outcome digest below was re-pinned once when OutcomeDigest began
// folding every RunOutcome field; event digests and executed-event
// counts kept their older recordings except where DESIGN.md §10
// ("Pinned digests") names the rows that moved and why.

/**
 * The seven-engine acceptance scenario's frozen digests — recorded from
 * the seed BEFORE the channel refactor and re-enforced by every
 * structural change since (test_channel.cc gates on them).
 */
struct FrozenDigest {
  harness::EngineKind kind;
  std::uint64_t event_digest;
  std::size_t executed_events;
  std::uint64_t outcome_digest;
};

inline constexpr FrozenDigest kFrozenEngineDigests[] = {
    {harness::EngineKind::kMuxWise, 0xb8dab88ef03c0e36ull, 5768,
     0xd26e3f5f04565227ull},
    {harness::EngineKind::kChunked, 0x600f439cd0e9b2a9ull, 5166,
     0x981fc9e9f5ce966eull},
    {harness::EngineKind::kNanoFlow, 0x98d55bf27e747a59ull, 8710,
     0xfcf5304e2a12198dull},
    {harness::EngineKind::kSglangPd, 0x7b797a7451b6eb90ull, 5014,
     0x07fe6833a90abc8aull},
    {harness::EngineKind::kLoongServe, 0x7c3cf241ee03682dull, 3912,
     0xf99ba7fa9202144dull},
    {harness::EngineKind::kWindServe, 0x4af18835f365b17eull, 6196,
     0x928dacbf34d5ac66ull},
    {harness::EngineKind::kTemporal, 0xb8d5d933df7c8ccfull, 6260,
     0xb8ec8c2393ade388ull},
};

/** The deployment the frozen digests were recorded against. */
inline serve::Deployment FrozenDeployment() {
  return serve::Deployment::Make(llm::ModelConfig::Llama70B(),
                                 gpu::GpuSpec::A100());
}

/** The trace the frozen digests were recorded against. */
inline workload::Trace FrozenTrace() {
  return workload::GenerateTrace(workload::Dataset::kShareGpt, 30, 2.0, 901);
}

/**
 * The fault-path table: every engine's shed, deadline-reap and
 * crash-retry paths, recorded before the request ledger moved into
 * fault::FaultAwareEngine and enforced by test_chaos.cc. The frozen
 * table above is fault-free, so without this one no digest covers a
 * baseline's recovery triage. `overload` rows run MuxWise-family
 * engines under overload control, where admission comes from the
 * class controller and gated requests are reaped too.
 */
struct FaultPathDigest {
  harness::EngineKind kind;
  bool overload;
  std::uint64_t event_digest;
  std::size_t executed_events;
  std::uint64_t outcome_digest;
};

inline constexpr FaultPathDigest kFaultPathDigests[] = {
    {harness::EngineKind::kMuxWise, false, 0xefa8918660b699a5ull, 27353,
     0x20e67b927f5aba66ull},
    {harness::EngineKind::kChunked, false, 0x3ea4aa555a54dc0full, 24741,
     0x35c2cf867c67b5b6ull},
    {harness::EngineKind::kNanoFlow, false, 0xf0a5172faa5969c7ull, 49166,
     0x0db68627a4bdf313ull},
    {harness::EngineKind::kSglangPd, false, 0xb1c97140455d1d94ull, 25525,
     0xda5e49849428391eull},
    {harness::EngineKind::kLoongServe, false, 0xed4911bb0b0d243dull, 15641,
     0x25ed334c38a613dbull},
    {harness::EngineKind::kWindServe, false, 0x923dd5adffa69ae6ull, 43121,
     0x3cd17366462cf7f3ull},
    {harness::EngineKind::kTemporal, false, 0x20830db1bd6e2499ull, 33414,
     0xe992bdcd0ce07fd2ull},
    {harness::EngineKind::kMuxWise, true, 0xd096a21c688647caull, 26456,
     0x7360d4e0e217c67dull},
    {harness::EngineKind::kWindServe, true, 0x0f8cc4dc3a50f6bdull, 45212,
     0x1f55a864781b2613ull},
    {harness::EngineKind::kTemporal, true, 0x03e0f27ed2ff1045ull, 36555,
     0x24addccca054334bull},
};

/** The multi-turn trace the fault-path digests were recorded against. */
inline workload::Trace FaultPathTrace() {
  return workload::GenerateTrace(workload::Dataset::kConversation, 400, 4.0,
                                 780);
}

/**
 * The fault-path run: two crashes of domain 0 and one of domain 1, a
 * retry budget of one, deadlines at twice the SLO and a shed threshold
 * low enough that every engine sheds, reaps, retries and fails work.
 */
inline harness::RunConfig FaultPathConfig(bool overload) {
  harness::RunConfig config;
  fault::FaultPlan plan;
  plan.Crash(0, sim::Seconds(20), sim::Seconds(22))
      .Crash(0, sim::Seconds(40), sim::Seconds(42))
      .Crash(1, sim::Seconds(60), sim::Seconds(62));
  config.fault_plan = plan;
  config.recovery.max_crash_retries = 1;
  config.recovery.ttft_deadline_factor = 2.0;
  config.recovery.tpot_deadline_factor = 2.0;
  config.recovery.shed_demand_factor = 0.05;
  config.overload.enabled = overload;
  return config;
}

/**
 * The KV-pressure preemption run of test_overload_scenario.cc
 * (KvPressurePreemptionSpillsAndRestores): the only tier-1 run whose
 * victims leave a paused prefill batch, so the only one that prices a
 * batch after its work list shrank. Recorded before prefill pricing was
 * memoized per job; a memo that misses that invalidation moves all
 * three values.
 */
struct PinnedRun {
  std::uint64_t event_digest;
  std::size_t executed_events;
  std::uint64_t outcome_digest;
};

inline constexpr PinnedRun kKvPressurePreemptionDigest = {
    0xa247033a724e66e4ull, 16895, 0xa98b6051eda0c258ull};

/**
 * Every checked-in scenario file, run once through
 * harness::RunScenario: the matrix under scenarios/, the nightly
 * 10^6-request stream and the chaos corpus. `path` is relative to the
 * repository root. test_scenario_dsl.cc globs those directories and
 * fails on a file without a row or a row without a file, so a new
 * scenario must be pinned here before it lands.
 */
struct ScenarioFileDigest {
  const char* path;
  std::uint64_t event_digest;
  std::size_t executed_events;
  std::uint64_t outcome_digest;
};

inline constexpr ScenarioFileDigest kScenarioFileDigests[] = {
    {"scenarios/acceptance_sharegpt.json", 0xb8dab88ef03c0e36ull, 5768,
     0xd26e3f5f04565227ull},
    {"scenarios/chaos_grey_failover.json", 0xa5ff4edf4ffae157ull, 20729,
     0xa88fbd4413cc2d9bull},
    {"scenarios/chunked_sharegpt.json", 0x600f439cd0e9b2a9ull, 5166,
     0x981fc9e9f5ce966eull},
    {"scenarios/fleet_failover.json", 0x09414ef7aa04d269ull, 10697,
     0x2a9b85262a800181ull},
    {"scenarios/loogle_longcontext.json", 0xf5bad742ade44eefull, 598,
     0x2cbe4f5a8498781aull},
    {"scenarios/mixed_sharegpt_loogle.json", 0xb989ba72b5e2fccfull, 3074,
     0x6fd208ca89845978ull},
    {"scenarios/overload_mmpp_burst.json", 0x849b71bf79c77335ull, 7703,
     0x4aff7c8703c8248cull},
    {"scenarios/nightly/streaming_1e6.json", 0x4648550652293312ull, 2824832,
     0x69f76ee7d24b0c4aull},
    {"tests/chaos_corpus/asym_partition.json", 0x8f19bbb91ca8b890ull, 8459,
     0x65bfd6b77b9c6692ull},
    {"tests/chaos_corpus/degrade_spill.json", 0x60d71e75d00fcf8eull, 9083,
     0xef6ca0897dfa5dcfull},
    {"tests/chaos_corpus/flap_hysteresis.json", 0x07f8001793ea3faeull, 5921,
     0x98e27ac37bf0b838ull},
    {"tests/chaos_corpus/mixed_grey_storm.json", 0xa987b0ef510d47b6ull, 7755,
     0xb5af0a9c7fad1cb2ull},
    {"tests/chaos_corpus/zombie_hold.json", 0x16507f2b24344367ull, 9132,
     0xba6f2ffec633fbecull},
};

/**
 * The synthetic drivers' witnesses: the executed-event count and the
 * event digest (for the goodput sweeps, a fold of every run's event
 * digest with its SLO-attained goodput). Each driver lives in the test
 * of the layer it loads, which runs it twice and asserts both runs.
 */
struct DriverDigest {
  std::size_t events;
  std::uint64_t digest;

  bool operator==(const DriverDigest&) const = default;
};

inline void PrintTo(const DriverDigest& d, std::ostream* os) {
  *os << "{events " << d.events << ", digest " << sim::HexDigest(d.digest)
      << "}";
}

/** test_simulator.cc: self-rescheduling actors with schedule/cancel
 * churn, the same churn under 20k pre-scheduled arrivals, and
 * same-tick storms. */
inline constexpr DriverDigest kEventChurnDigest = {200063,
                                                   0x684f4e7c0c05b620ull};
inline constexpr DriverDigest kPreloadedChurnDigest = {220063,
                                                       0x8d5c0e5253b7d031ull};
inline constexpr DriverDigest kSameTickStormDigest = {102400,
                                                      0xfd46ff45e2234d8dull};

/** test_simulator.cc and test_parallel_sim.cc: the event digest of 16
 * rounds of 36 same-tick events with every fourth cancelled. The
 * schedule is integer-only, so the digest pins the (when, id)
 * execution order on every platform. */
inline constexpr std::uint64_t kSixteenRoundStormDigest =
    0x3a2d5d1435052199ull;

/** test_trace_determinism.cc: obs::TraceDigest of the MuxWise run of
 * the acceptance scenario (FrozenTrace), unsampled and at 1-in-4 span
 * sampling. Either moves when the instrumentation, the binary encoding
 * or the sampling key changes. */
inline constexpr std::uint64_t kUnsampledTraceDigest = 0xdc1476e73027d0b1ull;
inline constexpr std::uint64_t kSampledTraceDigest = 0xe65d9fd07aea6c09ull;

/** test_gpu.cc: kernel launch/complete/re-rate churn on four streams. */
inline constexpr DriverDigest kLaunchChurnDigest = {20000,
                                                    0xd4871fa18a6f1d82ull};

/** test_overload_scenario.cc: 1x/2x/4x MMPP bursts, 30 s each, on
 * MuxWise with control on and off, chunked prefill and SGLang-PD. */
inline constexpr DriverDigest kOverloadGoodputDigest = {
    132404, 0x7009c57e3475c645ull};

/** test_route.cc: a 40 s MMPP burst through 1/2/4-replica fleets, each
 * with and without a replica crash at t=30 s. */
inline constexpr DriverDigest kFleetGoodputDigest = {97228,
                                                     0xa6156382347a6417ull};

}  // namespace muxwise::tests

#endif  // MUXWISE_TESTS_FROZEN_DIGESTS_H_
