#include "gpu/cluster.h"

#include <algorithm>
#include <utility>

#include "sim/logging.h"

namespace muxwise::gpu {

Cluster::Cluster(sim::Simulator* simulator, GpuSpec spec, int total_gpus)
    : sim_(simulator), spec_(std::move(spec)), total_gpus_(total_gpus) {
  MUX_CHECK(sim_ != nullptr);
  MUX_CHECK(total_gpus_ > 0);
  // Migration rides the per-GPU NVLink; latency covers handshake cost.
  link_ = std::make_unique<sim::Channel>(sim_, "cluster/nvlink",
                                         spec_.nvlink_bandwidth,
                                         sim::Microseconds(10));
  control_ = std::make_unique<sim::Channel>(sim_, "cluster/control");
}

Instance& Cluster::AddInstance(int tp_degree) {
  MUX_CHECK(tp_degree > 0);
  if (allocated_gpus_ + tp_degree > total_gpus_) {
    sim::Fatal("cluster over-allocated: " + std::to_string(allocated_gpus_) +
               " + " + std::to_string(tp_degree) + " > " +
               std::to_string(total_gpus_));
  }
  allocated_gpus_ += tp_degree;
  auto instance = std::make_unique<Instance>();
  instance->device = std::make_unique<Gpu>(sim_, spec_);
  instance->host = std::make_unique<HostThread>(sim_);
  instance->tp_degree = tp_degree;
  instances_.push_back(std::move(instance));
  return *instances_.back();
}

void Cluster::RegisterAudits(check::InvariantRegistry& registry) const {
  registry.Register(
      "Cluster", "gpu-conservation", [this](check::AuditContext& ctx) {
        ctx.Check(allocated_gpus_ <= total_gpus_,
                  "allocated " + std::to_string(allocated_gpus_) +
                      " GPUs of " + std::to_string(total_gpus_));
        int sum = 0;
        for (const auto& instance : instances_) {
          ctx.Check(instance->tp_degree >= 1,
                    "instance with non-positive TP degree");
          sum += instance->tp_degree;
        }
        ctx.Check(sum == allocated_gpus_,
                  "instance TP degrees sum to " + std::to_string(sum) +
                      ", allocation bookkeeping says " +
                      std::to_string(allocated_gpus_));
      });
  for (const auto& instance : instances_) {
    instance->device->RegisterAudits(registry);
  }
}

}  // namespace muxwise::gpu
