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
//
// Each row's simulated digest (harness::SimulatedDigest) folds every
// simulated number and nothing of the event stream. A change to how the
// simulator steps through the same model may move a row's event digest,
// executed events and outcome digest, but never its simulated digest.

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
  std::uint64_t simulated_digest;
};

inline constexpr FrozenDigest kFrozenEngineDigests[] = {
    {harness::EngineKind::kMuxWise, 0x2abc5a0787d93945ull, 554,
     0xfbdd2708b67243c8ull, 0xfeb8512794f8e8d0ull},
    {harness::EngineKind::kChunked, 0x600f439cd0e9b2a9ull, 5166,
     0x981fc9e9f5ce966eull, 0x0880e3bea4513e5eull},
    {harness::EngineKind::kNanoFlow, 0x98d55bf27e747a59ull, 8710,
     0xfcf5304e2a12198dull, 0xc00c924af7dbadc8ull},
    {harness::EngineKind::kSglangPd, 0x7b797a7451b6eb90ull, 5014,
     0x07fe6833a90abc8aull, 0x35dca6a28b826b29ull},
    {harness::EngineKind::kLoongServe, 0x7c3cf241ee03682dull, 3912,
     0xf99ba7fa9202144dull, 0x2ba885b947fff49eull},
    {harness::EngineKind::kWindServe, 0xb9b9c6d174bc70f4ull, 1216,
     0xe1b2f4e7c149bb33ull, 0x27cac7363a6df15aull},
    {harness::EngineKind::kTemporal, 0xaf6dd713744d598full, 1398,
     0x5ba2f6f75f346c26ull, 0x2f11fa7423f897f7ull},
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
  std::uint64_t simulated_digest;
};

inline constexpr FaultPathDigest kFaultPathDigests[] = {
    {harness::EngineKind::kMuxWise, false, 0xae95db5c33b618b6ull, 11725,
     0xb5022f5f8b45521full, 0xda6607a947d35000ull},
    {harness::EngineKind::kChunked, false, 0x3ea4aa555a54dc0full, 24741,
     0x35c2cf867c67b5b6ull, 0xe56f77f53013b038ull},
    {harness::EngineKind::kNanoFlow, false, 0xf0a5172faa5969c7ull, 49166,
     0x0db68627a4bdf313ull, 0xd0f7004dcfa8dd7aull},
    {harness::EngineKind::kSglangPd, false, 0xb1c97140455d1d94ull, 25525,
     0xda5e49849428391eull, 0x17bbf0693d8ad1cbull},
    {harness::EngineKind::kLoongServe, false, 0xed4911bb0b0d243dull, 15641,
     0x25ed334c38a613dbull, 0x7d0ffe10a327193full},
    {harness::EngineKind::kWindServe, false, 0x4d5349ba639190eeull, 32321,
     0x8eb6ef4061ef932dull, 0x8758ce5ef5d6b6ebull},
    {harness::EngineKind::kTemporal, false, 0xdffb770a067e6d82ull, 21635,
     0xc5ae6c3e47afdc4cull, 0x953c66f3798622deull},
    {harness::EngineKind::kMuxWise, true, 0xa5752b3181ee0aa6ull, 13027,
     0xf9687c5cd7ad7c05ull, 0x5c681c0ef3ad32d4ull},
    {harness::EngineKind::kWindServe, true, 0x15e83e39336ab9ecull, 33669,
     0x22e4784e32fed1f8ull, 0xaf35421640e7d7a9ull},
    {harness::EngineKind::kTemporal, true, 0x8b1cbb37669ff348ull, 24782,
     0xaacf1fc1f98b0340ull, 0xa4b176cae27cf5f4ull},
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
  std::uint64_t simulated_digest;
};

inline constexpr PinnedRun kKvPressurePreemptionDigest = {
    0xf6e09a783773bfe6ull, 14397, 0x3adeee88e0b414d4ull,
    0x2a12f4228029198cull};

/**
 * Every checked-in scenario file, run once through
 * harness::RunScenario: the matrix under scenarios/, the nightly
 * 10^6-request stream and the chaos corpus. `path` is relative to the
 * repository root. test_scenario_dsl.cc globs those directories and
 * fails on a file without a row or a row without a file, so a new
 * scenario must be pinned here before it lands. The fleet rows' event
 * digests, event counts and outcome digests moved once, when each
 * replica got its own event domain and stopped stepping its decode
 * through the other replicas' events; the single-engine rows' moved
 * once, when every priced decode run began to end in an event of its
 * own. No simulated digest moved either time.
 */
struct ScenarioFileDigest {
  const char* path;
  std::uint64_t event_digest;
  std::size_t executed_events;
  std::uint64_t outcome_digest;
  std::uint64_t simulated_digest;
};

inline constexpr ScenarioFileDigest kScenarioFileDigests[] = {
    {"scenarios/acceptance_sharegpt.json", 0x2abc5a0787d93945ull, 554,
     0xfbdd2708b67243c8ull, 0xfeb8512794f8e8d0ull},
    {"scenarios/chaos_grey_failover.json", 0x249a09ff40a6854eull, 2943,
     0x9105ff21f90e6448ull, 0x95deb7b3505d1399ull},
    {"scenarios/chunked_sharegpt.json", 0x600f439cd0e9b2a9ull, 5166,
     0x981fc9e9f5ce966eull, 0x0880e3bea4513e5eull},
    {"scenarios/fleet_failover.json", 0xadb2e760a9a9d608ull, 789,
     0xddf37936d0c6e2c5ull, 0x6dc13dd3157d8febull},
    {"scenarios/loogle_longcontext.json", 0xfbfbced7f739f45dull, 349,
     0xdbcb69a79ba2d5c7ull, 0x321f76523589c88aull},
    {"scenarios/mixed_sharegpt_loogle.json", 0x5747f3eb66676c96ull, 1769,
     0x04ce1d76bfd9697eull, 0xcf403401b35c5cc6ull},
    {"scenarios/overload_mmpp_burst.json", 0x67917f54e3e75eb0ull, 1879,
     0xa988ce8d4465cbe5ull, 0x867cbd5dd4f4cdc9ull},
    {"scenarios/nightly/streaming_1e6.json", 0x795fa640b67fea7cull, 2824242,
     0x6a83de52a906ca05ull, 0x9e92fef69084e87full},
    {"tests/chaos_corpus/asym_partition.json", 0xef751b186e01164cull, 1050,
     0xc2a6ba522aea2f70ull, 0xfe8d5a30692e2cc2ull},
    {"tests/chaos_corpus/degrade_spill.json", 0x91735c31e1b93426ull, 649,
     0x5a0a7851875e034bull, 0x8e207112b5a20665ull},
    {"tests/chaos_corpus/flap_hysteresis.json", 0x4a997c2f2b8ee450ull, 1040,
     0xd338ebe3ef58a903ull, 0x7edd2e0f47dc3e95ull},
    {"tests/chaos_corpus/mixed_grey_storm.json", 0x26b308504f703ed7ull, 1434,
     0x8dccc5e7166bb394ull, 0x144e151b45ef4766ull},
    {"tests/chaos_corpus/zombie_hold.json", 0xcc7b458835397d3aull, 1131,
     0x813bf74cc83f4307ull, 0x3088cd3f0f38d67dull},
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
    109811, 0x99c4e0e22060e78dull};

/** test_route.cc: a 40 s MMPP burst through 1/2/4-replica fleets, each
 * with and without a replica crash at t=30 s. Re-pinned with the fleet
 * rows above, and again when a lone replica's priced decode runs began
 * to end in events; the goodput and re-home counts it folds did not
 * move. */
inline constexpr DriverDigest kFleetGoodputDigest = {17427,
                                                     0x72eac6acf037930eull};

}  // namespace muxwise::tests

#endif  // MUXWISE_TESTS_FROZEN_DIGESTS_H_
