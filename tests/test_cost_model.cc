#include "llm/cost_model.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "gpu/gpu_spec.h"
#include "llm/model_config.h"
#include "sim/rng.h"

namespace muxwise::llm {
namespace {

class CostModelTest : public ::testing::Test {
 protected:
  CostModel cm_{ModelConfig::Llama70B(), 8, gpu::GpuSpec::A100()};
};

TEST_F(CostModelTest, PrefillFlopsLinearInNewTokensWithoutReuse) {
  const double f1 = cm_.PrefillFlopsTotal({SeqWork{1000, 0}});
  const double f2 = cm_.PrefillFlopsTotal({SeqWork{2000, 0}});
  // GEMM term dominates at small n: close to 2x plus the quadratic
  // attention term.
  EXPECT_GT(f2, 1.99 * f1);
  EXPECT_LT(f2, 2.2 * f1);
}

TEST_F(CostModelTest, PrefillFlopsIncludeReusedContextAttention) {
  const double no_reuse = cm_.PrefillFlopsTotal({SeqWork{512, 0}});
  const double with_reuse = cm_.PrefillFlopsTotal({SeqWork{512, 65536}});
  // Table 2 "Prefill w/ cache": O(L n d) attention over the cache.
  const double expected_extra = 4.0 * 80 * 8192 * 512.0 * 65536.0;
  EXPECT_NEAR(with_reuse - no_reuse, expected_extra, expected_extra * 1e-9);
}

TEST_F(CostModelTest, PrefillFlopsBatchIsSumOfRequests) {
  const double a = cm_.PrefillFlopsTotal({SeqWork{700, 100}});
  const double b = cm_.PrefillFlopsTotal({SeqWork{1300, 4000}});
  const double both =
      cm_.PrefillFlopsTotal({SeqWork{700, 100}, SeqWork{1300, 4000}});
  EXPECT_DOUBLE_EQ(both, a + b);
}

TEST_F(CostModelTest, LayerSplittingIsExact) {
  const std::vector<SeqWork> batch = {SeqWork{4096, 8192}};
  const gpu::Kernel whole = cm_.PrefillPhase(batch);
  double flops = 0.0, bytes = 0.0;
  for (int i = 0; i < 80; ++i) {
    const gpu::Kernel layer = cm_.PrefillLayers(batch, 1);
    flops += layer.flops;
    bytes += layer.bytes;
  }
  EXPECT_NEAR(flops, whole.flops, whole.flops * 1e-9);
  EXPECT_NEAR(bytes, whole.bytes, whole.bytes * 1e-9);
}

TEST_F(CostModelTest, PrefillKernelIsPerGpuWork) {
  CostModel tp1(ModelConfig::Llama70B(), 1, gpu::GpuSpec::A100());
  const std::vector<SeqWork> batch = {SeqWork{2048, 0}};
  const gpu::Kernel k8 = cm_.PrefillPhase(batch);
  const gpu::Kernel k1 = tp1.PrefillPhase(batch);
  EXPECT_NEAR(k1.flops / k8.flops, 8.0, 1e-6);
}

TEST_F(CostModelTest, TensorParallelAddsAllReduceTime) {
  CostModel tp1(ModelConfig::Llama70B(), 1, gpu::GpuSpec::A100());
  const std::vector<SeqWork> batch = {SeqWork{2048, 0}};
  EXPECT_EQ(tp1.PrefillPhase(batch).fixed_time, 0);
  EXPECT_GT(cm_.PrefillPhase(batch).fixed_time, 0);
  // 80 layers x 2 all-reduces x >=10us latency each.
  EXPECT_GE(cm_.PrefillPhase(batch).fixed_time, sim::Microseconds(1600));
}

TEST_F(CostModelTest, DecodeIterationStreamsWeightShardAndKv) {
  const std::vector<std::int64_t> ctx(32, 1024);
  const gpu::Kernel k = cm_.DecodeIteration(ctx);
  const double weights_per_gpu = 140e9 / 8;
  EXPECT_GT(k.bytes, weights_per_gpu);
  // KV read: 32 seqs * 1024 tokens * (327680 / 8) bytes per GPU.
  const double kv_read = 32.0 * 1024 * 327680 / 8;
  EXPECT_NEAR(k.bytes, weights_per_gpu + kv_read + 32.0 * 327680 / 8, 1e7);
  EXPECT_EQ(k.kind, gpu::KernelKind::kDecode);
}

TEST_F(CostModelTest, DecodeFlopsScaleWithBatchAndContext) {
  const std::vector<std::int64_t> small(8, 512);
  const std::vector<std::int64_t> large(64, 512);
  EXPECT_NEAR(cm_.DecodeFlopsTotal(large) / cm_.DecodeFlopsTotal(small), 8.0,
              0.01);
  const std::vector<std::int64_t> long_ctx(8, 65536);
  EXPECT_GT(cm_.DecodeFlopsTotal(long_ctx), cm_.DecodeFlopsTotal(small));
}

TEST_F(CostModelTest, FusedChunkStreamsWeightsOnce) {
  const std::vector<std::int64_t> ctx(32, 1024);
  const std::vector<SeqWork> chunk = {SeqWork{512, 1024}};
  const gpu::Kernel fused = cm_.FusedChunk(chunk, ctx);
  const gpu::Kernel prefill_only = cm_.PrefillPhase(chunk);
  const gpu::Kernel decode_only = cm_.DecodeIteration(ctx);
  EXPECT_NEAR(fused.bytes,
              prefill_only.bytes + decode_only.bytes - 140e9 / 8, 1.0);
  EXPECT_DOUBLE_EQ(fused.flops, prefill_only.flops + decode_only.flops);
  EXPECT_EQ(fused.kind, gpu::KernelKind::kFused);
}

TEST_F(CostModelTest, FusedChunkDegeneratesGracefully) {
  const gpu::Kernel decode_only = cm_.FusedChunk({}, {1024, 1024});
  EXPECT_GT(decode_only.flops, 0.0);
  const gpu::Kernel prefill_only = cm_.FusedChunk({SeqWork{256, 0}}, {});
  EXPECT_GT(prefill_only.flops, 0.0);
}

TEST_F(CostModelTest, MoeDecodeBytesUseExpectedExperts) {
  CostModel moe(ModelConfig::Qwen235B(), 8, gpu::GpuSpec::H200());
  const gpu::Kernel small = moe.DecodeIteration({1024});
  const std::vector<std::int64_t> big_ctx(128, 1024);
  const gpu::Kernel big = moe.DecodeIteration(big_ctx);
  // Weight traffic grows strongly with batch for MoE.
  EXPECT_GT(big.bytes, 2.0 * small.bytes);
}

TEST_F(CostModelTest, KvShardingDividesByKvHeadsAtMost) {
  // 8 KV heads: TP8 shards each head to one GPU.
  EXPECT_DOUBLE_EQ(cm_.KvBytesPerTokenPerGpu(), 327680.0 / 8);
  // TP8 with only 4 KV heads (Qwen): sharding limited to 4.
  CostModel moe(ModelConfig::Qwen235B(), 8, gpu::GpuSpec::H200());
  EXPECT_DOUBLE_EQ(moe.KvBytesPerTokenPerGpu(),
                   ModelConfig::Qwen235B().KvBytesPerToken() / 4);
}

TEST_F(CostModelTest, LaunchModelMatchesPaperScales) {
  // Decode graph launch ~0.5 ms (paper §3.2.2).
  EXPECT_EQ(cm_.DecodeGraphLaunch(), sim::Microseconds(500));
  // Piecewise layer graphs: ~10 ms total for Llama-70B's 80 layers.
  EXPECT_EQ(cm_.PrefillLayerLaunch() * 80, sim::Milliseconds(10));
  // Launching the whole phase raw: tens of milliseconds.
  EXPECT_GE(cm_.PrefillFullLaunch(), sim::Milliseconds(15));
}

/**
 * A decode kernel is priced from its batch summary. For seeded random
 * batches (1-256 sequences, contexts up to max_context), the summary
 * built the way MuxWiseEngine builds it and the per-sequence vector
 * must yield the same kernel in every field, and the summary's integer
 * total must equal the per-sequence double sum it replaced.
 */
TEST_F(CostModelTest, DecodeSummaryMatchesContextVectorExactly) {
  sim::Rng rng(2111);
  const std::int64_t max_context = cm_.model().max_context;
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::int64_t> ctx(
        static_cast<std::size_t>(rng.UniformInt(1, 256)));
    std::int64_t total = 0;
    double per_seq_sum = 0.0;
    for (std::int64_t& c : ctx) {
      c = rng.UniformInt(1, max_context);
      total += c;
      per_seq_sum += static_cast<double>(c);
    }
    const DecodeBatch batch(ctx.size(), total);
    EXPECT_EQ(static_cast<double>(batch.total_context), per_seq_sum);

    const gpu::Kernel a = cm_.DecodeIteration(batch);
    const gpu::Kernel b = cm_.DecodeIteration(ctx);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.flops, b.flops);
    EXPECT_EQ(a.bytes, b.bytes);
    EXPECT_EQ(a.fixed_time, b.fixed_time);
    EXPECT_EQ(a.saturation_half_flops_per_sm, b.saturation_half_flops_per_sm);
    EXPECT_EQ(a.work_items, b.work_items);
    EXPECT_EQ(a.saturation_half_items, b.saturation_half_items);
    EXPECT_EQ(a.stream_flops, b.stream_flops);
    EXPECT_EQ(a.stream_efficiency, b.stream_efficiency);
    EXPECT_EQ(a.peak_efficiency, b.peak_efficiency);
    EXPECT_EQ(a.overlap_alpha, b.overlap_alpha);
  }
}

}  // namespace
}  // namespace muxwise::llm
