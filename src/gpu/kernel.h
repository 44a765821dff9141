#ifndef MUXWISE_GPU_KERNEL_H_
#define MUXWISE_GPU_KERNEL_H_

#include "sim/time.h"

namespace muxwise::gpu {

/** Broad classification used by the execution and interference models. */
enum class KernelKind {
  kPrefill,   // GEMM-dominated prefill (whole layer or layer group).
  kDecode,    // Memory-bound batched decode iteration.
  kFused,     // Chunked-prefill fused chunk + decode iteration.
  kComm,      // Collective / KV migration traffic modeled on-device.
  kOther,
};

/**
 * One unit of GPU work, expressed as per-GPU effective resource demands.
 *
 * For a tensor-parallel group the llm layer divides total model work by
 * the TP degree before building kernels, so a Kernel always describes
 * what one physical GPU executes. Duration emerges from the roofline in
 * Gpu::ComputeTime / bandwidth arbitration, never from a fixed latency
 * table, so SM partitioning and contention affect it faithfully.
 */
struct Kernel {
  KernelKind kind = KernelKind::kOther;

  /** Model FLOPs this kernel must execute on this GPU. */
  double flops = 0.0;

  /** HBM bytes this kernel must move on this GPU. */
  double bytes = 0.0;

  /**
   * Serial time that neither more SMs nor more bandwidth can hide:
   * collective latency, kernel tail effects. Added to the roofline term.
   */
  sim::Duration fixed_time = 0;

  /**
   * Compute-saturation half-point: FLOPs-per-SM at which the kernel
   * reaches half its peak efficiency. GEMM-heavy prefill kernels need a
   * lot of work per SM to saturate (the paper's 4K-token budget effect);
   * decode GEMV pipelines reach their modest compute needs quickly.
   */
  double saturation_half_flops_per_sm = 1e11;

  /**
   * Token-based saturation for GEMM kernels: when `work_items` (the
   * tokens the kernel processes) is set, efficiency follows
   * peak * items / (items + saturation_half_items) instead of the
   * FLOPs-per-SM curve. GEMM efficiency is governed by the row count of
   * the activations matrix, which is why a 4K-token budget saturates an
   * 8xA100 Llama-70B deployment regardless of model width (paper
   * Fig. 6-a).
   */
  double work_items = 0.0;
  double saturation_half_items = 550.0;

  /**
   * Compute executed at a fixed fraction of peak, additive to the GEMM
   * component: attention over cached KV (FlashAttention-style kernels
   * whose efficiency does not depend on the new-token count). Keeping
   * it separate is what makes the paper's Eq. 1 linear feature set
   * (sum n^2, sum n*r, sum n, 1) fit tightly.
   */
  double stream_flops = 0.0;
  double stream_efficiency = 0.40;

  /** Peak achievable fraction of SM throughput (MFU ceiling). */
  double peak_efficiency = 0.55;

  /**
   * Intra-kernel compute/memory overlap imperfection: duration is
   * max(compute, memory) + overlap_alpha * min(compute, memory). Pure
   * GEMM or pure streaming kernels overlap nearly perfectly; fused
   * chunk+decode kernels interleave heterogeneous phases and overlap
   * worse — the gap NanoFlow's nano-batching narrows (paper §4.2.1).
   */
  double overlap_alpha = 0.1;

  /** Returns defaults tuned for a prefill / GEMM-bound kernel. */
  static Kernel Prefill(double flops, double bytes);

  /** Returns defaults tuned for a memory-bound decode iteration. */
  static Kernel Decode(double flops, double bytes);

  /** Returns defaults for a fused chunked-prefill iteration. */
  static Kernel Fused(double flops, double bytes);

  /** Pure data movement (migration, weight reload). */
  static Kernel Memcpy(double bytes);
};

}  // namespace muxwise::gpu

#endif  // MUXWISE_GPU_KERNEL_H_
