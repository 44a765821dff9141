#include "llm/cost_model.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "sim/logging.h"

namespace muxwise::llm {

namespace {

/** Per-kernel launch cost when issuing a phase without CUDA graphs. */
constexpr sim::Duration kRawLaunchPerLayer = sim::Microseconds(250);

/** Launch cost of one piecewise layer CUDA graph. */
constexpr sim::Duration kLayerGraphLaunch = sim::Microseconds(125);

/** Launch cost of one full-iteration decode CUDA graph. */
constexpr sim::Duration kDecodeGraphLaunch = sim::Microseconds(500);

/** Collective handshake latency per all-reduce. */
constexpr double kAllReduceLatencySeconds = 10e-6;

}  // namespace

CostModel::CostModel(ModelConfig model, int tp_degree, gpu::GpuSpec spec)
    : model_(std::move(model)),
      tp_(tp_degree),
      spec_(std::move(spec)) {
  MUX_CHECK(tp_ >= 1);
  MUX_CHECK(model_.num_layers > 0);
}

double CostModel::KvBytesPerTokenPerGpu() const {
  // KV heads shard across the TP group (min one head per GPU).
  return model_.KvBytesPerToken() / std::min(tp_, model_.num_kv_heads);
}

double CostModel::WeightBytesPerGpu() const {
  return model_.WeightBytes() / tp_;
}

sim::Duration CostModel::AllReduceTime(double tokens, int num_layers) const {
  if (tp_ <= 1) return 0;
  // Two ring all-reduces per layer (attention out-proj, FFN out-proj).
  const double message_bytes = tokens * model_.hidden_dim * model_.dtype_bytes;
  const double wire_seconds =
      2.0 * (tp_ - 1) / tp_ * message_bytes / spec_.nvlink_bandwidth;
  const double per_layer = 2.0 * (kAllReduceLatencySeconds + wire_seconds);
  return static_cast<sim::Duration>(per_layer * num_layers * 1e9);
}

double CostModel::PrefillGemmFlops(const std::vector<SeqWork>& batch) const {
  double flops = 0.0;
  for (const SeqWork& seq : batch) {
    // GEMMs: O(n d^2) across all layers == 2 * active params per token.
    flops += 2.0 * model_.active_params * static_cast<double>(seq.new_tokens);
  }
  return flops;
}

double CostModel::PrefillAttentionFlops(
    const std::vector<SeqWork>& batch) const {
  double flops = 0.0;
  for (const SeqWork& seq : batch) {
    const double n = static_cast<double>(seq.new_tokens);
    const double r = static_cast<double>(seq.reused_tokens);
    // Attention: O(L n d) with cache — each new token attends the reused
    // context plus the causal half of the new tokens.
    flops += 4.0 * model_.num_layers * model_.hidden_dim * n * (r + n / 2.0);
  }
  return flops;
}

double CostModel::PrefillFlopsTotal(const std::vector<SeqWork>& batch) const {
  return PrefillGemmFlops(batch) + PrefillAttentionFlops(batch);
}

gpu::Kernel CostModel::PrefillLayers(const std::vector<SeqWork>& batch,
                                     int num_layers) const {
  MUX_CHECK(num_layers >= 1 && num_layers <= model_.num_layers);
  const double layer_frac =
      static_cast<double>(num_layers) / model_.num_layers;

  double new_tokens = 0.0;
  double attended_kv_tokens = 0.0;
  for (const SeqWork& seq : batch) {
    new_tokens += static_cast<double>(seq.new_tokens);
    attended_kv_tokens += static_cast<double>(seq.reused_tokens);
  }

  const double gemm_flops = PrefillGemmFlops(batch) * layer_frac / tp_;
  const double attn_flops = PrefillAttentionFlops(batch) * layer_frac / tp_;
  double bytes = WeightBytesPerGpu() * layer_frac;  // Stream the shard once.
  // Read the reused context KV, write KV for the new tokens.
  bytes += (attended_kv_tokens + new_tokens) * KvBytesPerTokenPerGpu() *
           layer_frac;
  // Activation traffic (residual stream in/out per layer).
  bytes += 4.0 * new_tokens * model_.hidden_dim * model_.dtype_bytes *
           num_layers / tp_;

  gpu::Kernel kernel = gpu::Kernel::Prefill(gemm_flops, bytes);
  kernel.work_items = new_tokens;  // GEMM rows (per-layer token count).
  // Tensor parallelism slices each GEMM tp ways, so saturating the SMs
  // needs proportionally more rows (the 70B/TP8 sweet spot near 4K of
  // paper Fig. 6-a; an unsharded 8B saturates around 512).
  kernel.saturation_half_items = 70.0 * tp_;
  kernel.stream_flops = attn_flops;  // Cache attention, fixed efficiency.
  kernel.fixed_time = AllReduceTime(new_tokens, num_layers);
  return kernel;
}

gpu::Kernel CostModel::PrefillPhase(const std::vector<SeqWork>& batch) const {
  return PrefillLayers(batch, model_.num_layers);
}

DecodeBatch DecodeBatch::Of(const std::vector<std::int64_t>& context_lens) {
  return DecodeBatch(context_lens.size(),
                     std::accumulate(context_lens.begin(), context_lens.end(),
                                     std::int64_t{0}));
}

double CostModel::DecodeFlopsTotal(
    const std::vector<std::int64_t>& context_lens) const {
  const DecodeBatch batch = DecodeBatch::Of(context_lens);
  const double bs = static_cast<double>(batch.size);
  const double total_context = static_cast<double>(batch.total_context);
  return 2.0 * model_.active_params * bs +
         4.0 * model_.num_layers * model_.hidden_dim * total_context;
}

DecodeStep CostModel::DecodeStepFor(std::size_t batch_size) const {
  MUX_CHECK(batch_size > 0);
  const double bs = static_cast<double>(batch_size);
  DecodeStep step;
  step.kernel_ = gpu::Kernel::Decode(
      2.0 * model_.active_params * bs / tp_,
      model_.DecodeWeightBytes(static_cast<int>(bs)) / tp_);
  step.kernel_.fixed_time = AllReduceTime(bs, model_.num_layers);
  step.kv_bytes_per_token_ = KvBytesPerTokenPerGpu();
  step.write_bytes_ = bs * step.kv_bytes_per_token_;
  step.attention_flops_per_token_ =
      4.0 * model_.num_layers * model_.hidden_dim;
  step.tp_ = tp_;
  return step;
}

gpu::Kernel DecodeStep::At(std::int64_t total_context) const {
  const double context = static_cast<double>(total_context);
  gpu::Kernel kernel = kernel_;
  kernel.bytes += context * kv_bytes_per_token_;  // Attend all cached KV.
  kernel.bytes += write_bytes_;                   // Write one token each.
  kernel.stream_flops = attention_flops_per_token_ * context / tp_;
  return kernel;
}

gpu::Kernel CostModel::FusedChunk(
    const std::vector<SeqWork>& chunks,
    const std::vector<std::int64_t>& decode_context_lens) const {
  const bool has_prefill = !chunks.empty();
  gpu::Kernel prefill =
      has_prefill ? PrefillPhase(chunks) : gpu::Kernel::Fused(0.0, 0.0);
  gpu::Kernel decode = decode_context_lens.empty()
                           ? gpu::Kernel::Fused(0.0, 0.0)
                           : DecodeIteration(decode_context_lens);

  // The fused iteration executes both token sets through the same layer
  // pass; weights are streamed once, not twice.
  double bytes = prefill.bytes + decode.bytes;
  if (has_prefill && !decode_context_lens.empty()) {
    bytes -= WeightBytesPerGpu();
  }
  gpu::Kernel kernel = gpu::Kernel::Fused(prefill.flops + decode.flops, bytes);
  // Fused GEMMs span the chunk tokens plus one row per decoding seq.
  kernel.work_items =
      prefill.work_items + static_cast<double>(decode_context_lens.size());
  kernel.saturation_half_items = 70.0 * tp_;
  kernel.stream_flops = prefill.stream_flops + decode.stream_flops;
  kernel.fixed_time = std::max(prefill.fixed_time, decode.fixed_time);
  return kernel;
}

sim::Duration CostModel::DecodeGraphLaunch() const {
  return kDecodeGraphLaunch;
}

sim::Duration CostModel::PrefillLayerLaunch() const {
  return kLayerGraphLaunch;
}

sim::Duration CostModel::PrefillFullLaunch() const {
  return kRawLaunchPerLayer * model_.num_layers;
}

}  // namespace muxwise::llm
