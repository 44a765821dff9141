#ifndef MUXWISE_LLM_COST_MODEL_H_
#define MUXWISE_LLM_COST_MODEL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "gpu/gpu_spec.h"
#include "gpu/kernel.h"
#include "llm/model_config.h"
#include "sim/time.h"

namespace muxwise::llm {

/**
 * Per-sequence token accounting for one prefill pass.
 * `new_tokens` (n) must be processed; `reused_tokens` (r) are served from
 * the KV cache and only read during attention — the paper's Table 2
 * "Prefill w/ cache" row.
 */
struct SeqWork {
  std::int64_t new_tokens = 0;
  std::int64_t reused_tokens = 0;
};

/**
 * Fixed-size summary of a decode batch: the number of running sequences
 * and the sum of their current context lengths. A decode iteration's
 * kernel and its Eq. 2 price depend on nothing else, so every decode
 * price is taken from this summary; the vector signatures are adaptors
 * onto it. Integer sums below 2^53 convert to double exactly, so
 * summary and per-sequence pricing agree bit for bit.
 *
 * There is no default constructor and no one-argument constructor, so a
 * braced context list such as `{}` or `{1024}` still selects the vector
 * adaptors.
 */
struct DecodeBatch {
  explicit DecodeBatch(std::size_t size, std::int64_t total_context)
      : size(size), total_context(total_context) {}

  /** Summary of one context length per running sequence. */
  static DecodeBatch Of(const std::vector<std::int64_t>& context_lens);

  std::size_t size;
  std::int64_t total_context;
};

/**
 * A decode iteration's kernel for one batch size, with every term that
 * depends only on that size worked out: GEMM flops, streamed weights,
 * the all-reduce time and each sequence's KV write. At() adds the terms
 * of the batch's total context. CostModel::DecodeIteration is
 * DecodeStepFor(size).At(total_context), so a batch priced from a step
 * held across iterations gets the kernel it would get priced afresh,
 * bit for bit.
 */
class DecodeStep {
 public:
  gpu::Kernel At(std::int64_t total_context) const;

 private:
  friend class CostModel;

  gpu::Kernel kernel_;  // Flops, fixed time, and the weights as bytes.
  double write_bytes_ = 0.0;
  double kv_bytes_per_token_ = 0.0;
  double attention_flops_per_token_ = 0.0;  // Before the TP split.
  double tp_ = 1.0;
};

/**
 * Builds GPU kernels (per-GPU FLOPs / bytes / fixed time) for prefill
 * layers, decode iterations and chunked-prefill fused iterations of a
 * model deployed with symmetric tensor parallelism.
 *
 * FLOP accounting follows the complexity table of the paper (§3.3.2,
 * Table 2): GEMMs contribute 2 * active_params per processed token, and
 * attention contributes 4 * d_model per (query token, context token)
 * pair. Bytes cover streamed weights, KV reads of the attended context
 * and KV writes of produced tokens. Tensor-parallel all-reduces
 * contribute serial `fixed_time` per layer.
 */
class CostModel {
 public:
  CostModel(ModelConfig model, int tp_degree, gpu::GpuSpec spec);

  const ModelConfig& model() const { return model_; }
  int tp_degree() const { return tp_; }

  /**
   * Kernel executing `num_layers` consecutive transformer layers of the
   * prefill pass for a batch of sequences. Splitting the pass into
   * layer-granular kernels is exact: every layer does the same work.
   */
  gpu::Kernel PrefillLayers(const std::vector<SeqWork>& batch,
                            int num_layers) const;

  /** Whole prefill pass as a single kernel (all layers). */
  gpu::Kernel PrefillPhase(const std::vector<SeqWork>& batch) const;

  /**
   * Kernel for one decode iteration over `batch` (one new token per
   * running sequence).
   */
  gpu::Kernel DecodeIteration(const DecodeBatch& batch) const {
    return DecodeStepFor(batch.size).At(batch.total_context);
  }

  /** The size-only terms of a decode iteration over `batch_size` seqs. */
  DecodeStep DecodeStepFor(std::size_t batch_size) const;

  /** DecodeIteration over one current context length per sequence. */
  gpu::Kernel DecodeIteration(const std::vector<std::int64_t>& context_lens)
      const {
    return DecodeIteration(DecodeBatch::Of(context_lens));
  }

  /**
   * Chunked-prefill fused iteration: one or more prefill chunks (each a
   * SeqWork whose `reused_tokens` counts every token already in the KV
   * cache for that request — reused context plus earlier chunks) fused
   * with a decode iteration. Weights are streamed once for the whole
   * fused pass.
   */
  gpu::Kernel FusedChunk(const std::vector<SeqWork>& chunks,
                         const std::vector<std::int64_t>& decode_context_lens)
      const;

  /** KV-cache bytes per token, per GPU of the TP group. */
  double KvBytesPerTokenPerGpu() const;

  /** Resident weight bytes per GPU. */
  double WeightBytesPerGpu() const;

  // --- Host launch-latency model (paper §3.2.2) ---

  /** One CUDA-graph launch of a full decode iteration (~0.5 ms). */
  sim::Duration DecodeGraphLaunch() const;

  /** Piecewise per-layer CUDA-graph launch for prefill. */
  sim::Duration PrefillLayerLaunch() const;

  /** Launching the entire prefill phase kernel-by-kernel at once. */
  sim::Duration PrefillFullLaunch() const;

  // --- Raw totals used by the solo-run predictor features ---

  double PrefillFlopsTotal(const std::vector<SeqWork>& batch) const;
  double PrefillGemmFlops(const std::vector<SeqWork>& batch) const;
  double PrefillAttentionFlops(const std::vector<SeqWork>& batch) const;
  double DecodeFlopsTotal(const std::vector<std::int64_t>& context_lens) const;

 private:
  /** All-reduce serial time for a pass moving `tokens` activations. */
  sim::Duration AllReduceTime(double tokens, int num_layers) const;

  ModelConfig model_;
  int tp_;
  gpu::GpuSpec spec_;
};

}  // namespace muxwise::llm

#endif  // MUXWISE_LLM_COST_MODEL_H_
