// Google-benchmark micro-benchmarks for the simulator substrate's hot
// paths: event-queue throughput, radix-tree matching/insertion,
// bandwidth arbitration re-rating, and predictor evaluation. These are
// the operations a long serving simulation executes millions of times.

#include <benchmark/benchmark.h>

#include "gpu/gpu.h"
#include "gpu/gpu_spec.h"
#include "kv/radix_tree.h"
#include "llm/cost_model.h"
#include "llm/model_config.h"
#include "llm/predictor.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace {

using namespace muxwise;

void BM_SimulatorScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator simulator;
    for (int i = 0; i < state.range(0); ++i) {
      simulator.ScheduleAt(sim::Microseconds(i % 997), [] {});
    }
    benchmark::DoNotOptimize(simulator.Run());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulatorScheduleRun)->Arg(1000)->Arg(10000);

void BM_RadixTreeInsertMatch(benchmark::State& state) {
  sim::Rng rng(1);
  for (auto _ : state) {
    kv::RadixTree tree;
    for (int i = 0; i < state.range(0); ++i) {
      const std::int64_t stream = rng.UniformInt(1, 64);
      const std::int64_t len = rng.UniformInt(64, 4096);
      auto [added, lock] =
          tree.InsertAndLock({{stream, 0, len}}, static_cast<sim::Time>(i));
      tree.Unlock(lock);
      benchmark::DoNotOptimize(
          tree.MatchedPrefix({{stream, 0, len / 2}}, i));
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RadixTreeInsertMatch)->Arg(256)->Arg(2048);

void BM_RadixTreeEviction(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    kv::RadixTree tree;
    for (int i = 0; i < state.range(0); ++i) {
      auto [added, lock] =
          tree.InsertAndLock({{i + 1, 0, 512}}, static_cast<sim::Time>(i));
      tree.Unlock(lock);
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(tree.EvictLru(tree.total_tokens()));
  }
}
BENCHMARK(BM_RadixTreeEviction)->Arg(1024);

// The shape of a stream of short single-turn requests with no prefix
// reuse: tens of thousands of single-span leaves under the root, and per
// request a lookup miss, an insert, an unpin and one LRU eviction.
void BM_RadixTreeStreamChurn(benchmark::State& state) {
  sim::Rng rng(1);
  kv::RadixTree tree;
  kv::TokenSeq prompt(1);
  std::int64_t stream = 0;
  sim::Time now = 0;
  const auto next_prompt = [&] {
    prompt[0] = {++stream, 0, rng.UniformInt(8, 128)};
    ++now;
  };
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    next_prompt();
    auto [added, lock] = tree.InsertAndLock(prompt, now);
    tree.Unlock(lock);
  }
  for (auto _ : state) {
    next_prompt();
    benchmark::DoNotOptimize(tree.MatchAndLock(prompt, now).matched_tokens);
    auto [added, lock] = tree.InsertAndLock(prompt, now);
    tree.Unlock(lock);
    benchmark::DoNotOptimize(tree.EvictLru(1));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RadixTreeStreamChurn)->Arg(34000);

void BM_GpuConcurrentKernels(benchmark::State& state) {
  const gpu::GpuSpec spec = gpu::GpuSpec::A100();
  for (auto _ : state) {
    sim::Simulator simulator;
    gpu::Gpu device(&simulator, spec);
    const gpu::StreamId a = device.CreateStream(64);
    const gpu::StreamId b = device.CreateStream(44);
    for (int i = 0; i < state.range(0); ++i) {
      device.Launch(a, gpu::Kernel::Prefill(1e12, 2e9), {});
      device.Launch(b, gpu::Kernel::Decode(1e11, 18e9), {});
    }
    simulator.Run();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 2);
}
BENCHMARK(BM_GpuConcurrentKernels)->Arg(100);

void BM_PredictorEvaluate(benchmark::State& state) {
  sim::Simulator simulator;
  gpu::Gpu device(&simulator, gpu::GpuSpec::A100());
  llm::CostModel cost(llm::ModelConfig::Llama70B(), 8, gpu::GpuSpec::A100());
  const llm::SoloRunPredictor predictor =
      llm::SoloRunPredictor::Train(device, cost, {16, 48, 96});
  const std::vector<std::int64_t> ctx(64, 4096);
  for (auto _ : state) {
    benchmark::DoNotOptimize(predictor.PredictDecode(ctx, 48));
  }
}
BENCHMARK(BM_PredictorEvaluate);

void BM_CostModelDecodeKernel(benchmark::State& state) {
  llm::CostModel cost(llm::ModelConfig::Llama70B(), 8, gpu::GpuSpec::A100());
  const std::vector<std::int64_t> ctx(128, 4096);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cost.DecodeIteration(ctx));
  }
}
BENCHMARK(BM_CostModelDecodeKernel);

}  // namespace
