#include "gpu/gpu.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "gpu/gpu_spec.h"
#include "gpu/host.h"
#include "gpu/kernel.h"
#include "sim/simulator.h"

namespace muxwise::gpu {
namespace {

using sim::Milliseconds;
using sim::Seconds;
using sim::Time;

class GpuTest : public ::testing::Test {
 protected:
  sim::Simulator simulator_;
  GpuSpec spec_ = GpuSpec::A100();
};

TEST_F(GpuTest, SpecNumbersMatchDatasheets) {
  EXPECT_EQ(GpuSpec::A100().sm_count, 108);
  EXPECT_EQ(GpuSpec::H100().sm_count, 132);
  EXPECT_EQ(GpuSpec::H200().sm_count, 132);
  EXPECT_NEAR(GpuSpec::A100().PeakFlops(), 312e12, 1e9);
  EXPECT_NEAR(GpuSpec::H100().PeakFlops(), 989e12, 1e9);
  EXPECT_GT(GpuSpec::H200().hbm_bandwidth, GpuSpec::H100().hbm_bandwidth);
  EXPECT_NEAR(GpuSpec::H200().hbm_capacity, 141e9, 1e6);
}

TEST_F(GpuTest, ByNameRoundTrips) {
  EXPECT_EQ(GpuSpec::ByName("A100").name, "A100");
  EXPECT_EQ(GpuSpec::ByName("H100").name, "H100");
  EXPECT_EQ(GpuSpec::ByName("H200").name, "H200");
}

TEST(KernelTagTest, ConcurrentInterningAgreesAndNamesStayValid) {
  // The tag table is process-wide: runs on different threads intern
  // into it concurrently, and a name view taken early must survive
  // every later intern.
  const KernelTagId first = InternKernelTag("tag-test-first");
  const std::string_view first_name = KernelTagName(first);
  constexpr int kThreads = 4;
  constexpr int kTags = 200;
  std::vector<std::vector<KernelTagId>> ids(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&ids, t] {
      for (int i = 0; i < kTags; ++i) {
        ids[t].push_back(InternKernelTag("tag-test-" + std::to_string(i)));
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(ids[t], ids[0]);
  for (int i = 0; i < kTags; ++i) {
    EXPECT_EQ(KernelTagName(ids[0][i]), "tag-test-" + std::to_string(i));
  }
  EXPECT_EQ(first_name, "tag-test-first");
}

TEST_F(GpuTest, BandwidthCapSaturatesAtFraction) {
  const GpuSpec spec = GpuSpec::A100();
  // 60% of 108 SMs saturate; beyond that, full bandwidth.
  EXPECT_DOUBLE_EQ(spec.BandwidthCap(spec.sm_count), spec.hbm_bandwidth);
  EXPECT_DOUBLE_EQ(spec.BandwidthCap(108), spec.hbm_bandwidth);
  const double cap16 = spec.BandwidthCap(16);
  EXPECT_NEAR(cap16 / spec.hbm_bandwidth, 16.0 / (0.6 * 108), 1e-9);
  EXPECT_LT(cap16, spec.hbm_bandwidth);
}

TEST_F(GpuTest, AggregateSpecScalesLinearly) {
  const GpuSpec agg = GpuSpec::A100().Aggregate(8);
  EXPECT_EQ(agg.sm_count, 108 * 8);
  EXPECT_DOUBLE_EQ(agg.hbm_bandwidth, GpuSpec::A100().hbm_bandwidth * 8);
  EXPECT_DOUBLE_EQ(agg.max_interference, 0.0);
  // Exactly proportional bandwidth for whole-GPU groups.
  EXPECT_NEAR(agg.BandwidthCap(4 * 108) / agg.hbm_bandwidth, 0.5, 1e-12);
}

TEST_F(GpuTest, ComputeTimeScalesInverselyWithSms) {
  Gpu device(&simulator_, spec_);
  Kernel kernel = Kernel::Prefill(1e14, 0.0);
  const double t_full = device.ComputeTimeSeconds(kernel, 108);
  const double t_half = device.ComputeTimeSeconds(kernel, 54);
  EXPECT_GT(t_half, t_full * 1.5);  // Fewer SMs -> slower (superlinear
                                    // near saturation is fine).
  EXPECT_LT(t_half, t_full * 2.5);
}

TEST_F(GpuTest, SmallKernelsHaveLowEfficiency) {
  Gpu device(&simulator_, spec_);
  // Same total work, 100x smaller kernel achieves much less than 100x
  // shorter compute time per unit work at low work-per-SM.
  Kernel big = Kernel::Prefill(1e14, 0.0);
  Kernel small = Kernel::Prefill(1e11, 0.0);
  const double rate_big = big.flops / device.ComputeTimeSeconds(big, 108);
  const double rate_small =
      small.flops / device.ComputeTimeSeconds(small, 108);
  EXPECT_GT(rate_big, rate_small * 5.0);
}

TEST_F(GpuTest, MemoryBoundKernelTimeIsBytesOverBandwidth) {
  Gpu device(&simulator_, spec_);
  Kernel kernel = Kernel::Memcpy(20e9);
  const double t = device.SoloDurationSeconds(kernel, 108);
  EXPECT_NEAR(t, 20e9 / spec_.hbm_bandwidth, 1e-4);
}

TEST_F(GpuTest, SoloDurationIsRooflineMax) {
  Gpu device(&simulator_, spec_);
  Kernel kernel = Kernel::Decode(1e9, 20e9);  // Strongly memory-bound.
  kernel.overlap_alpha = 0.0;
  const double t = device.SoloDurationSeconds(kernel, 108);
  EXPECT_NEAR(t, 20e9 / spec_.hbm_bandwidth, 1e-3);
}

TEST_F(GpuTest, FixedTimeAddsToDuration) {
  Gpu device(&simulator_, spec_);
  Kernel kernel = Kernel::Memcpy(20e9);
  kernel.fixed_time = Milliseconds(3);
  const double with = device.SoloDurationSeconds(kernel, 108);
  kernel.fixed_time = 0;
  const double without = device.SoloDurationSeconds(kernel, 108);
  EXPECT_NEAR(with - without, 0.003, 1e-9);
}

TEST_F(GpuTest, Llama70bPrefillCalibration) {
  // Anchor from the paper (Fig. 6-a): a ~4K-token chunk of Llama-70B on
  // 8xA100 takes ~505 ms. Per-GPU share: 2*70e9*4096/8 FLOPs.
  Gpu device(&simulator_, spec_);
  Kernel kernel = Kernel::Prefill(2.0 * 70e9 * 4096 / 8, 17.5e9);
  const double t = device.SoloDurationSeconds(kernel, 108);
  EXPECT_GT(t, 0.35);
  EXPECT_LT(t, 0.65);
}

TEST_F(GpuTest, SingleKernelRunsForSoloDuration) {
  Gpu device(&simulator_, spec_);
  const StreamId stream = device.CreateStream(108);
  Kernel kernel = Kernel::Memcpy(2.039e9);  // 1 ms at full bandwidth.
  Time done = -1;
  device.Launch(stream, kernel, [&] { done = simulator_.Now(); });
  simulator_.Run();
  EXPECT_NEAR(sim::ToMilliseconds(done), 1.0, 0.05);
}

TEST_F(GpuTest, StreamExecutesInOrder) {
  Gpu device(&simulator_, spec_);
  const StreamId stream = device.CreateStream(108);
  std::vector<int> order;
  device.Launch(stream, Kernel::Memcpy(1e9), [&] { order.push_back(1); });
  device.Launch(stream, Kernel::Memcpy(1e9), [&] { order.push_back(2); });
  device.Launch(stream, Kernel::Memcpy(1e9), [&] { order.push_back(3); });
  EXPECT_EQ(device.StreamQueueDepth(stream), 2u);  // One running.
  simulator_.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(device.StreamIdle(stream));
  EXPECT_EQ(device.kernels_completed(), 3u);
}

TEST_F(GpuTest, OnStreamDrainedFiresAfterQueuedWork) {
  Gpu device(&simulator_, spec_);
  const StreamId stream = device.CreateStream(108);
  Time kernel_done = -1, drained = -1;
  device.Launch(stream, Kernel::Memcpy(2e9),
                [&] { kernel_done = simulator_.Now(); });
  device.OnStreamDrained(stream, [&] { drained = simulator_.Now(); });
  simulator_.Run();
  EXPECT_EQ(drained, kernel_done);
}

TEST_F(GpuTest, OnStreamDrainedOnIdleStreamFiresImmediately) {
  Gpu device(&simulator_, spec_);
  const StreamId stream = device.CreateStream(108);
  bool fired = false;
  device.OnStreamDrained(stream, [&] { fired = true; });
  simulator_.Run();
  EXPECT_TRUE(fired);
}

TEST_F(GpuTest, ConcurrentStreamsShareBandwidth) {
  Gpu device(&simulator_, spec_);
  const StreamId a = device.CreateStream(54);
  const StreamId b = device.CreateStream(54);
  // Two memory-bound kernels, each would take 1 ms alone at its cap.
  Kernel kernel = Kernel::Memcpy(2.039e9);
  Time done_a = -1, done_b = -1;
  device.Launch(a, kernel, [&] { done_a = simulator_.Now(); });
  device.Launch(b, kernel, [&] { done_b = simulator_.Now(); });
  simulator_.Run();
  // Together they contend: each takes roughly 2x (plus interference).
  EXPECT_GT(sim::ToMilliseconds(done_a), 1.5);
  EXPECT_GT(sim::ToMilliseconds(done_b), 1.5);
  EXPECT_LT(sim::ToMilliseconds(done_a), 3.2);
}

TEST_F(GpuTest, CompletionFreesBandwidthForRemainingKernel) {
  Gpu device(&simulator_, spec_);
  const StreamId a = device.CreateStream(54);
  const StreamId b = device.CreateStream(54);
  Time done_small = -1, done_big = -1;
  device.Launch(a, Kernel::Memcpy(1e9), [&] { done_small = simulator_.Now(); });
  device.Launch(b, Kernel::Memcpy(20e9), [&] { done_big = simulator_.Now(); });
  simulator_.Run();
  // The big kernel finishes faster than if it were contended throughout.
  const double big_ms = sim::ToMilliseconds(done_big);
  EXPECT_LT(big_ms, 2.0 * 20e9 / spec_.hbm_bandwidth * 1e3);
  EXPECT_GT(big_ms, 20e9 / spec_.hbm_bandwidth * 1e3 * 0.9);
  EXPECT_LT(done_small, done_big);
}

TEST_F(GpuTest, InterferenceIsDeterministic) {
  auto run_once = [&]() {
    sim::Simulator simulator;
    Gpu device(&simulator, GpuSpec::A100());
    const StreamId a = device.CreateStream(64);
    const StreamId b = device.CreateStream(44);
    Time done = -1;
    device.Launch(a, Kernel::Prefill(5e12, 5e9), {});
    device.Launch(b, Kernel::Decode(5e11, 18e9),
                  [&] { done = simulator.Now(); });
    simulator.Run();
    return done;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST_F(GpuTest, DecodeSlowdownUnderPrefillCotenantIsBounded) {
  // Paper Fig. 11: slowdown ranges from ~0 to ~30% across configs.
  for (int decode_sms = 16; decode_sms <= 96; decode_sms += 16) {
    sim::Simulator simulator;
    Gpu device(&simulator, GpuSpec::A100());
    const StreamId prefill = device.CreateStream(108 - decode_sms);
    const StreamId decode = device.CreateStream(decode_sms);
    Kernel decode_kernel = Kernel::Decode(7e11, 18e9);
    Kernel prefill_kernel = Kernel::Prefill(7e13, 18e9);
    const double solo = device.SoloDurationSeconds(decode_kernel, decode_sms);
    Time done = -1;
    device.Launch(prefill, prefill_kernel, {});
    device.Launch(decode, decode_kernel, [&] { done = simulator.Now(); });
    simulator.Run();
    const double slowdown = sim::ToSeconds(done) / solo;
    EXPECT_GE(slowdown, 0.99) << "decode_sms=" << decode_sms;
    EXPECT_LE(slowdown, 1.45) << "decode_sms=" << decode_sms;
  }
}

TEST_F(GpuTest, OversubscriptionScalesEffectiveSms) {
  // Two compute-bound kernels each granted the full device finish in
  // about twice their solo time (WindServe-style unmanaged streams).
  Gpu device(&simulator_, spec_);
  const StreamId a = device.CreateStream(108);
  const StreamId b = device.CreateStream(108);
  Kernel kernel = Kernel::Prefill(5e13, 0.0);
  const double solo = device.SoloDurationSeconds(kernel, 108);
  Time done_a = -1, done_b = -1;
  device.Launch(a, kernel, [&] { done_a = simulator_.Now(); });
  device.Launch(b, kernel, [&] { done_b = simulator_.Now(); });
  simulator_.Run();
  EXPECT_GT(sim::ToSeconds(done_a), 1.7 * solo);
  EXPECT_LT(sim::ToSeconds(done_b), 2.6 * solo);
}

TEST_F(GpuTest, ReconfigurationAppliesToNextKernel) {
  Gpu device(&simulator_, spec_);
  const StreamId stream = device.CreateStream(16);
  Kernel kernel = Kernel::Prefill(1e13, 0.0);
  const double t16 = device.SoloDurationSeconds(kernel, 16);
  const double t96 = device.SoloDurationSeconds(kernel, 96);
  Time first = -1, second = -1;
  device.Launch(stream, kernel, [&] { first = simulator_.Now(); });
  device.SetStreamSms(stream, 96);  // Running kernel keeps 16 SMs.
  device.Launch(stream, kernel, [&] { second = simulator_.Now(); });
  simulator_.Run();
  EXPECT_NEAR(sim::ToSeconds(first), t16, t16 * 0.01);
  EXPECT_NEAR(sim::ToSeconds(second) - sim::ToSeconds(first), t96,
              t96 * 0.01);
}

TEST_F(GpuTest, UtilizationIntegralTracksBusySms) {
  Gpu device(&simulator_, spec_);
  const StreamId stream = device.CreateStream(54);  // Half the device.
  Kernel kernel = Kernel::Prefill(1e13, 0.0);
  const double solo = device.SoloDurationSeconds(kernel, 54);
  device.Launch(stream, kernel, {});
  simulator_.Run();
  const double integral = device.SmUtilizationIntegral();
  EXPECT_NEAR(integral, solo * 1e9 * 0.5, solo * 1e9 * 0.02);
  EXPECT_NEAR(device.BusyTimeIntegral(), solo * 1e9, solo * 1e9 * 0.02);
}

TEST_F(GpuTest, BubbleRatioMeasuresStreamGaps) {
  Gpu device(&simulator_, spec_);
  const StreamId stream = device.CreateStream(108);
  Kernel kernel = Kernel::Memcpy(2.039e9);  // ~1 ms.
  device.Launch(stream, kernel, [&] {
    // Leave a ~1 ms gap, then run another 1 ms kernel.
    simulator_.ScheduleAfter(Milliseconds(1), [&] {
      device.Launch(stream, Kernel::Memcpy(2.039e9), {});
    });
  });
  simulator_.Run();
  const double ratio = device.stream_stats(stream).BubbleRatio();
  EXPECT_NEAR(ratio, 1.0 / 3.0, 0.05);
}

TEST(HostThreadTest, SerializesSubmissions) {
  sim::Simulator simulator;
  HostThread host(&simulator);
  Time first = -1, second = -1;
  host.Submit(Milliseconds(10), [&] { first = simulator.Now(); });
  host.Submit(Milliseconds(5), [&] { second = simulator.Now(); });
  EXPECT_EQ(host.busy_until(), Milliseconds(15));
  simulator.Run();
  EXPECT_EQ(first, Milliseconds(10));
  EXPECT_EQ(second, Milliseconds(15));
  EXPECT_EQ(host.total_busy(), Milliseconds(15));
}

TEST(HostThreadTest, IdleAfterWorkDrains) {
  sim::Simulator simulator;
  HostThread host(&simulator);
  host.Submit(Milliseconds(1), nullptr);
  EXPECT_FALSE(host.Idle());
  simulator.RunUntil(Milliseconds(2));
  EXPECT_TRUE(host.Idle());
}

}  // namespace
}  // namespace muxwise::gpu
