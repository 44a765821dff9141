#ifndef MUXWISE_GPU_CLUSTER_H_
#define MUXWISE_GPU_CLUSTER_H_

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "check/invariant_registry.h"
#include "gpu/gpu.h"
#include "gpu/gpu_spec.h"
#include "gpu/host.h"
#include "sim/channel.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace muxwise::gpu {

/**
 * A FIFO point-to-point link used for KV-cache migration between
 * disaggregated instances — now a named sim::Channel (the wire model,
 * fault machinery, and counters live there). The alias remains because
 * "interconnect" is the hardware-shaped name for a clocked inter-GPU
 * channel; new code may use sim::Channel directly.
 */
using Interconnect = sim::Channel;

/**
 * One serving instance: a symmetric tensor-parallel group of `tp_degree`
 * GPUs simulated as a single Gpu executing per-GPU work, plus the host
 * thread that launches onto it.
 */
struct Instance {
  std::unique_ptr<Gpu> device;
  std::unique_ptr<HostThread> host;
  int tp_degree = 0;

  /** Aggregate HBM capacity across the group, bytes. */
  double TotalHbmCapacity() const {
    return device->spec().hbm_capacity * tp_degree;
  }
};

/**
 * An 8-GPU (by default) single server carved into one or more
 * tensor-parallel instances, mirroring the paper's testbeds. Aggregated
 * serving uses one instance of degree 8; SGLang-PD uses two of degree 4;
 * LoongServe re-partitions dynamically (modeled by its engine on top of
 * instances it requests here).
 */
class Cluster {
 public:
  Cluster(sim::Simulator* simulator, GpuSpec spec, int total_gpus);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /** Adds a TP group of `tp_degree` GPUs; fatal if over-allocated. */
  Instance& AddInstance(int tp_degree);

  Instance& instance(std::size_t i) { return *instances_[i]; }
  const Instance& instance(std::size_t i) const { return *instances_[i]; }
  std::size_t num_instances() const { return instances_.size(); }

  const GpuSpec& spec() const { return spec_; }
  int total_gpus() const { return total_gpus_; }
  int allocated_gpus() const { return allocated_gpus_; }
  sim::Simulator* simulator() const { return sim_; }

  /** NVLink fabric used for inter-instance KV migration. */
  sim::Channel& link() { return *link_; }

  /**
   * The control channel for cluster-level callbacks: every same-tick
   * hand-off between instances (prefill batch done -> decode admission,
   * decode drain -> prefill pump) is delivered through here instead of
   * one instance calling into another directly. Deliveries run inline,
   * so the event stream is identical to a direct call — but the crossing
   * is explicit, counted, and enforceable by muxlint's shard-safety
   * rule.
   */
  sim::Channel& control() { return *control_; }

  /**
   * Registers GPU-conservation audits (instances never over-allocate
   * the server, allocation bookkeeping adds up) and every instance
   * device's own audits.
   */
  void RegisterAudits(check::InvariantRegistry& registry) const;

 private:
  sim::Simulator* sim_;
  GpuSpec spec_;
  int total_gpus_;
  int allocated_gpus_ = 0;
  std::vector<std::unique_ptr<Instance>> instances_;
  std::unique_ptr<sim::Channel> link_;
  std::unique_ptr<sim::Channel> control_;
};

}  // namespace muxwise::gpu

#endif  // MUXWISE_GPU_CLUSTER_H_
