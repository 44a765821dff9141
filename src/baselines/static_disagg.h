#ifndef MUXWISE_BASELINES_STATIC_DISAGG_H_
#define MUXWISE_BASELINES_STATIC_DISAGG_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "fault/fault_aware.h"
#include "fault/recovery.h"
#include "gpu/cluster.h"
#include "sim/channel.h"
#include "kv/kv_pool.h"
#include "llm/cost_model.h"
#include "serve/deployment.h"
#include "serve/engine.h"
#include "sim/simulator.h"

namespace muxwise::baselines {

/**
 * Static disaggregation in the style of SGLang-PD (paper §4.1): a
 * prefill instance and a decode instance, P:D = 1:1 with TP = 4 each on
 * an 8-GPU server. Unlike DistServe, KV caches are shared across phases
 * and requests: each instance keeps its own radix-tree pool, prompt KV
 * migrates P→D over NVLink after prefill, and generated KV is copied
 * back so the prefill instance can reuse full histories in later turns.
 *
 * Its structural costs, which the paper's evaluation surfaces: each
 * pool is roughly half the aggregated size (lower hit rate, Fig. 5),
 * and compute is statically split (idle decode GPUs during prefill
 * bursts and vice versa, Fig. 4-a).
 *
 * Failure recovery (when `recovery` is enabled): the prefill
 * instance is fault domain 0 and the decode instance domain 1, failing
 * independently — the distinguishing hazard of static disaggregation.
 * A prefill crash loses the prefill cache, the in-flight batch, and
 * every migration in flight (the transfer source is gone); a decode
 * crash loses every decoding request, which re-enters the pipeline from
 * the top (usually cheap — the prefill cache still holds its prompt).
 * P->D migrations retry with backoff on transfer loss and re-enqueue
 * the request when the link gives up permanently. Each instance keeps
 * its own crash epoch so a fault on one side never invalidates the
 * other side's in-flight callbacks.
 */
class StaticDisaggEngine : public fault::FaultAwareEngine {
 public:
  /** GPUs of the prefill and the decode instance (TP degree each). */
  static constexpr int kPrefillTp = 4;
  static constexpr int kDecodeTp = 4;

  /** Smallest deployment that holds both instances. */
  static constexpr int kMinGpus = kPrefillTp + kDecodeTp;

  StaticDisaggEngine(sim::Simulator* simulator,
                     const serve::Deployment& deployment,
                     fault::RecoveryPolicy recovery);
  ~StaticDisaggEngine() override;

  const char* name() const override { return "SGLang-PD"; }
  void Enqueue(std::unique_ptr<serve::Request> request) override;
  void RegisterAudits(check::InvariantRegistry& registry) const override;

  std::size_t NumFaultDomains() const override { return 2; }
  void InjectCrash(std::size_t domain) override;
  void InjectRecovery(std::size_t domain) override;
  void InjectStraggler(std::size_t domain, double slowdown) override;
  sim::Channel* FaultableLink() override { return &cluster_->link(); }

  /**
   * Forwards the tracer to both instance devices ("gpu0/", "gpu1/") and
   * pools ("kv/p", "kv/d"); prefill batches and decode iterations
   * become "prefill-chunk" / "decode-step" engine spans.
   */
  void AttachTracer(obs::Tracer tracer) override;

  const kv::KvPool& prefill_pool() const { return *prefill_pool_; }
  const kv::KvPool& decode_pool() const { return *decode_pool_; }
  gpu::Gpu& prefill_device() { return *cluster_->instance(0).device; }
  gpu::Gpu& decode_device() { return *cluster_->instance(1).device; }

 private:
  struct Job;  // One request moving through the P -> D pipeline.

  void PumpPrefill();
  void OnPrefillBatchDone();
  void TryMoveToDecode();
  void MaybeStartDecodeIteration();
  void OnDecodeIterationDone();
  void Finish(Job* job);

  std::unique_ptr<serve::Request> TakeUnstarted(std::int64_t id,
                                                bool& queued) override;

  /** The link gave up on `id`'s P->D migration; requeue or fail it. */
  void OnMigrationFailed(std::int64_t id);

  /** Requeues or retires crash-lost jobs (accounting already released),
   * hands the dead back and pumps. */
  void RecycleLost(std::vector<std::unique_ptr<Job>> lost);

  sim::Simulator* sim_;
  serve::Deployment deployment_;

  std::unique_ptr<gpu::Cluster> cluster_;
  std::unique_ptr<kv::KvPool> prefill_pool_;
  std::unique_ptr<kv::KvPool> decode_pool_;
  std::unique_ptr<llm::CostModel> prefill_cost_;
  std::unique_ptr<llm::CostModel> decode_cost_;

  gpu::StreamId prefill_stream_ = 0;
  gpu::StreamId decode_stream_ = 0;

  std::deque<std::unique_ptr<Job>> waiting_;
  std::deque<std::unique_ptr<Job>> migrating_;  // Awaiting D admission.
  std::vector<std::unique_ptr<Job>> decoding_;
  std::vector<std::unique_ptr<Job>> prefill_batch_;

  bool prefill_in_flight_ = false;
  bool decode_in_flight_ = false;
  std::uint64_t prefill_batch_serial_ = 0;
  std::uint64_t decode_step_serial_ = 0;

  // Per-instance crash epochs (see FaultAwareEngine's epoch pattern;
  // two instances fail independently, so one shared epoch would let a
  // prefill crash strand the decode side's in-flight iteration).
  std::uint64_t p_epoch_ = 0;
  std::uint64_t d_epoch_ = 0;
};

}  // namespace muxwise::baselines

#endif  // MUXWISE_BASELINES_STATIC_DISAGG_H_
