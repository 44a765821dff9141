#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <iterator>
#include <thread>
#include <vector>

#include "core/estimator.h"
#include "harness/runner.h"
#include "sim/simulator.h"
#include "sim/time.h"

#include "frozen_digests.h"

namespace muxwise::sim {
namespace {

// ===========================================================================
// Parallel simulations: independent runs on concurrent host threads.
//
// The event loop is single-threaded; what may run in parallel is whole
// runs, each on its own Simulator (the run-level parallelism ROADMAP
// item 2 proposes). That is sound only if runs share no mutable state
// beyond the mutex-guarded process tables (kernel-tag interner, cached
// estimators). These tests spread the repo's strongest witnesses — the
// frozen seven-engine digests (tests/frozen_digests.h) and the frozen
// same-tick storm digest 0x3a2d5d1435052199 (tests/test_simulator.cc) —
// over 1/2/4/8 worker threads and demand the exact sequential constants.
// ===========================================================================

constexpr int kThreadMatrix[] = {1, 2, 4, 8};

/**
 * Runs `job(0) .. job(jobs - 1)` on `threads` workers, job i on worker
 * i % threads. Each job writes only its own result slot.
 */
void RunJobsOnThreads(int threads, int jobs,
                      const std::function<void(int)>& job) {
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&job, t, threads, jobs] {
      for (int i = t; i < jobs; i += threads) job(i);
    });
  }
  for (std::thread& worker : workers) worker.join();
}

TEST(ParallelSimTest, SevenEngineDigestMatrixMatchesFrozenSequentialSeeds) {
  const serve::Deployment deployment = tests::FrozenDeployment();
  const core::ContentionEstimator estimator =
      core::ContentionEstimator::BuildOffline(deployment);
  const workload::Trace trace = tests::FrozenTrace();
  constexpr int kEngines =
      static_cast<int>(std::size(tests::kFrozenEngineDigests));

  for (const int threads : kThreadMatrix) {
    std::vector<harness::RunOutcome> outcomes(kEngines);
    RunJobsOnThreads(threads, kEngines, [&](int i) {
      outcomes[i] = harness::RunWorkload(tests::kFrozenEngineDigests[i].kind,
                                         deployment, trace, &estimator);
    });
    for (int i = 0; i < kEngines; ++i) {
      const tests::FrozenDigest& expect = tests::kFrozenEngineDigests[i];
      EXPECT_EQ(outcomes[i].event_digest, expect.event_digest)
          << harness::EngineKindName(expect.kind) << " at threads="
          << threads;
      EXPECT_EQ(outcomes[i].executed_events, expect.executed_events)
          << harness::EngineKindName(expect.kind) << " at threads="
          << threads;
      EXPECT_EQ(harness::OutcomeDigest(outcomes[i]), expect.outcome_digest)
          << harness::EngineKindName(expect.kind) << " at threads="
          << threads;
    }
  }
}

TEST(ParallelSimTest, DoubleRunIdentityAtEachThreadCount) {
  const serve::Deployment deployment = tests::FrozenDeployment();
  const core::ContentionEstimator estimator =
      core::ContentionEstimator::BuildOffline(deployment);
  const workload::Trace trace = tests::FrozenTrace();
  const tests::FrozenDigest& muxwise = tests::kFrozenEngineDigests[0];
  ASSERT_EQ(muxwise.kind, harness::EngineKind::kMuxWise);

  for (const int threads : kThreadMatrix) {
    // One double run per worker, all at once.
    std::vector<harness::DeterminismReport> reports(threads);
    RunJobsOnThreads(threads, threads, [&](int i) {
      reports[i] = harness::VerifyDeterminism(muxwise.kind, deployment, trace,
                                              &estimator);
    });
    for (int i = 0; i < threads; ++i) {
      EXPECT_TRUE(reports[i].deterministic)
          << "threads=" << threads << " worker " << i << ": "
          << reports[i].mismatch;
      EXPECT_EQ(reports[i].first_digest, muxwise.outcome_digest)
          << "threads=" << threads << " worker " << i;
      EXPECT_EQ(reports[i].first_events, muxwise.executed_events)
          << "threads=" << threads << " worker " << i;
    }
  }
}

/**
 * The exact storm schedule test_simulator.cc froze, on a fresh
 * simulator. Returns its digest, or 0 if events were left pending.
 */
std::uint64_t RunFrozenStorm() {
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
  return simulator.Empty() ? simulator.EventDigest() : 0;
}

TEST(ParallelSimTest, FrozenStormDigestReproducedAtEveryThreadCount) {
  constexpr int kStormsPerWorker = 4;
  for (const int threads : kThreadMatrix) {
    const int storms = threads * kStormsPerWorker;
    std::vector<std::uint64_t> digests(storms, 0);
    RunJobsOnThreads(threads, storms,
                     [&](int i) { digests[i] = RunFrozenStorm(); });
    for (int i = 0; i < storms; ++i) {
      EXPECT_EQ(digests[i], 0x3a2d5d1435052199ULL)
          << "threads=" << threads << " storm " << i;
    }
  }
}

}  // namespace
}  // namespace muxwise::sim
