#include "gpu/kernel.h"

namespace muxwise::gpu {

Kernel Kernel::Prefill(double flops, double bytes) {
  Kernel k;
  k.kind = KernelKind::kPrefill;
  k.flops = flops;
  k.bytes = bytes;
  k.saturation_half_flops_per_sm = 1e11;
  k.peak_efficiency = 0.55;
  return k;
}

Kernel Kernel::Decode(double flops, double bytes) {
  Kernel k;
  k.kind = KernelKind::kDecode;
  k.flops = flops;
  k.bytes = bytes;
  // Decode compute is a thin GEMV pipeline that hides under the weight
  // stream as soon as a modest number of SMs is available; its duration
  // is governed by the bandwidth the SM allocation can pull, which is
  // what makes Eq. 2 of the paper near-linear in (sum r_i, bs).
  k.saturation_half_flops_per_sm = 2e9;
  k.peak_efficiency = 0.8;
  return k;
}

Kernel Kernel::Fused(double flops, double bytes) {
  Kernel k = Prefill(flops, bytes);
  k.kind = KernelKind::kFused;
  // Serially fusing a GEMM-bound chunk with a memory-bound decode batch
  // in one kernel overlaps their resource use imperfectly.
  k.overlap_alpha = 0.2;
  return k;
}

Kernel Kernel::Memcpy(double bytes) {
  Kernel k;
  k.kind = KernelKind::kComm;
  k.flops = 0.0;
  k.bytes = bytes;
  k.peak_efficiency = 1.0;
  return k;
}

}  // namespace muxwise::gpu
