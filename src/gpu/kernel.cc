#include "gpu/kernel.h"

#include <deque>
#include <map>
#include <mutex>
#include <string>

namespace muxwise::gpu {

namespace {

/**
 * Process-wide tag tables; index 0 is reserved for "untagged". `names`
 * is a deque so the strings never move: a KernelTagName view stays
 * valid while later tags are interned, from any thread.
 */
struct TagTables {
  std::mutex mu;
  std::deque<std::string> names{""};
  std::map<std::string, KernelTagId, std::less<>> index;
};

TagTables& Tags() {
  static TagTables* tables = new TagTables;
  return *tables;
}

}  // namespace

KernelTagId InternKernelTag(std::string_view name) {
  if (name.empty()) return kUntaggedKernel;
  TagTables& tables = Tags();
  const std::lock_guard<std::mutex> lock(tables.mu);
  const auto it = tables.index.find(name);
  if (it != tables.index.end()) return it->second;
  const auto id = static_cast<KernelTagId>(tables.names.size());
  tables.names.emplace_back(name);
  tables.index.emplace(std::string(name), id);
  return id;
}

std::string_view KernelTagName(KernelTagId id) {
  TagTables& tables = Tags();
  const std::lock_guard<std::mutex> lock(tables.mu);
  if (id >= tables.names.size()) return {};
  return tables.names[id];
}

const char* KernelKindName(KernelKind kind) {
  switch (kind) {
    case KernelKind::kPrefill:
      return "prefill";
    case KernelKind::kDecode:
      return "decode";
    case KernelKind::kFused:
      return "fused";
    case KernelKind::kComm:
      return "comm";
    case KernelKind::kOther:
      return "other";
  }
  return "?";
}

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
