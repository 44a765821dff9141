// Heap-allocation budget of the MuxWise serving loop. This binary
// replaces the global operator new with a counting one, runs whole
// traces through testutil::RunTrace and bounds the allocations per
// decode iteration: a steady-state iteration (price the batch, launch,
// complete, emit tokens) must not touch the heap, so what remains is
// per-request and per-batch setup spread over many iterations.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>

#include "core/estimator.h"
#include "core/muxwise_engine.h"
#include "engine_test_util.h"
#include "gpu/gpu.h"
#include "gpu/gpu_spec.h"
#include "kv/token_seq.h"
#include "llm/model_config.h"
#include "serve/deployment.h"
#include "sim/simulator.h"
#include "workload/datasets.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// The nothrow forms too (std::stable_sort's temporary buffer uses
// them): left to the runtime, a sanitizer's allocator would serve them
// and the free()-based deletes below would not match.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace muxwise::core {
namespace {

/** Allocations per decode iteration may not exceed this. */
constexpr double kMaxAllocationsPerIteration = 1.5;

/**
 * Allocations of one ContentionEstimator::BuildOffline for Llama-70B on
 * eight A100s, as measured when this bound was set. Offline profiling
 * co-runs 4,320 throw-away simulators and devices, so set-up time pays
 * for whatever each of them allocates.
 */
constexpr std::uint64_t kMaxOfflineProfilingAllocations = 107887;

class AllocBudgetTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    estimator_ = new ContentionEstimator(
        ContentionEstimator::BuildOffline(Deployment()));
  }
  static void TearDownTestSuite() {
    delete estimator_;
    estimator_ = nullptr;
  }

  static serve::Deployment Deployment() {
    return serve::Deployment::Make(llm::ModelConfig::Llama70B(),
                                   gpu::GpuSpec::A100());
  }

  /**
   * Runs `trace` on a fresh MuxWise engine and returns the heap
   * allocations made during the run (engine construction excluded)
   * per completed decode iteration.
   */
  static double AllocationsPerDecodeIteration(const workload::Trace& trace) {
    sim::Simulator simulator;
    MuxWiseEngine engine(&simulator, Deployment(), *estimator_,
                         MuxWiseEngine::Options());
    const std::uint64_t before = g_allocations.load();
    const testutil::RunResult result =
        testutil::RunTrace(simulator, engine, trace);
    const std::uint64_t allocations = g_allocations.load() - before;
    EXPECT_TRUE(result.all_completed);
    EXPECT_GT(engine.decode_iterations(), 0u);
    return static_cast<double>(allocations) /
           static_cast<double>(engine.decode_iterations());
  }

  static ContentionEstimator* estimator_;
};

ContentionEstimator* AllocBudgetTest::estimator_ = nullptr;

TEST_F(AllocBudgetTest, SimulatorAndGpuConstructionAllocateNothing) {
  // Offline profiling builds and drops thousands of these: they keep
  // nothing on the heap until they are used.
  const gpu::GpuSpec spec = gpu::GpuSpec::A100();
  const std::uint64_t before = g_allocations.load();
  {
    sim::Simulator simulator;
    const gpu::Gpu device(&simulator, spec);
  }
  EXPECT_EQ(g_allocations.load() - before, 0u);
}

TEST_F(AllocBudgetTest, OfflineProfilingAllocatesNoMoreThanItDid) {
  const serve::Deployment deployment = Deployment();
  const std::uint64_t before = g_allocations.load();
  const ContentionEstimator estimator =
      ContentionEstimator::BuildOffline(deployment);
  const std::uint64_t allocations = g_allocations.load() - before;
  RecordProperty("offline_profiling_allocations",
                 std::to_string(allocations));
  EXPECT_LE(allocations, kMaxOfflineProfilingAllocations);
}

TEST_F(AllocBudgetTest, ShareGptDecodeIterationsStayOffTheHeap) {
  const workload::Trace trace =
      workload::GenerateTrace(workload::Dataset::kShareGpt, 1200, 4.0, 1802);
  const double per_iteration = AllocationsPerDecodeIteration(trace);
  RecordProperty("allocations_per_decode_iteration",
                 std::to_string(per_iteration));
  EXPECT_LE(per_iteration, kMaxAllocationsPerIteration);
}

TEST_F(AllocBudgetTest, ConversationDecodeIterationsStayOffTheHeap) {
  const workload::Trace trace = workload::GenerateTrace(
      workload::Dataset::kConversation, 400, 2.0, 7);
  const double per_iteration = AllocationsPerDecodeIteration(trace);
  RecordProperty("allocations_per_decode_iteration",
                 std::to_string(per_iteration));
  EXPECT_LE(per_iteration, kMaxAllocationsPerIteration);
}

/**
 * Heap allocations made while one request with `outputs` tokens runs
 * alone on a fresh MuxWise engine, from its creation to the end of the
 * run.
 */
std::uint64_t LoneRequestAllocations(const ContentionEstimator& estimator,
                                     const serve::Deployment& deployment,
                                     std::int64_t outputs) {
  constexpr std::int64_t kInput = 512;
  workload::RequestSpec spec;
  spec.id = 1;
  spec.session = 1;
  kv::AppendSpan(spec.prompt, kv::TokenSpan{1, 0, kInput});
  spec.full_seq = spec.prompt;
  kv::AppendSpan(spec.full_seq, kv::TokenSpan{1, kInput, kInput + outputs});
  spec.input_tokens = kInput;
  spec.output_tokens = outputs;
  sim::Simulator simulator;
  MuxWiseEngine engine(&simulator, deployment, estimator,
                       MuxWiseEngine::Options());
  std::int64_t generated = 0;
  engine.set_on_complete([&generated](std::unique_ptr<serve::Request> r) {
    generated = r->generated;
  });
  const std::uint64_t before = g_allocations.load();
  engine.Enqueue(std::make_unique<serve::Request>(&spec));
  simulator.Run();
  const std::uint64_t allocations = g_allocations.load() - before;
  EXPECT_EQ(generated, outputs);
  EXPECT_GE(engine.decode_iterations(), static_cast<std::size_t>(outputs - 1));
  return allocations;
}

TEST_F(AllocBudgetTest, DecodeStretchesAllocateNothingPerIteration) {
  // A lone request decodes in stretches. Whether they cross their price
  // buffer several times (1,024 outputs) or never (64), the run makes no
  // more allocations: the buffer is fixed and reused.
  const std::uint64_t short_run =
      LoneRequestAllocations(*estimator_, Deployment(), 64);
  const std::uint64_t long_run =
      LoneRequestAllocations(*estimator_, Deployment(), 1024);
  RecordProperty("allocations_64_outputs", std::to_string(short_run));
  RecordProperty("allocations_1024_outputs", std::to_string(long_run));
  EXPECT_LE(long_run, short_run);
}

}  // namespace
}  // namespace muxwise::core
