#include "core/estimator.h"

#include <algorithm>
#include <cmath>

#include "gpu/gpu.h"
#include "sim/logging.h"
#include "sim/simulator.h"

namespace muxwise::core {

namespace {

/** Power-of-4 bucket index of a token count (0 for <= 0). */
int Log4Bucket(std::int64_t tokens) {
  if (tokens <= 0) return 0;
  return 1 + static_cast<int>(std::log2(static_cast<double>(tokens)) / 2.0);
}

/** Batch-size bucket: log2. */
int BatchBucket(std::size_t batch) {
  if (batch <= 1) return 0;
  return 1 + static_cast<int>(std::log2(static_cast<double>(batch)));
}

}  // namespace

ContentionEstimator::ContentionEstimator(llm::SoloRunPredictor predictor,
                                         const serve::Deployment& deployment,
                                         Options options)
    : predictor_(std::move(predictor)),
      deployment_(deployment),
      options_(options) {}

ContentionEstimator::CellKey ContentionEstimator::CellFor(
    const PrefillDesc& prefill, std::size_t decode_batch,
    std::int64_t decode_mean_ctx, int decode_sms) const {
  CellKey cell;
  cell.prefill_new_bucket = Log4Bucket(prefill.new_tokens);
  cell.prefill_reused_bucket = Log4Bucket(prefill.reused_tokens);
  cell.decode_batch_bucket = BatchBucket(decode_batch);
  cell.decode_ctx_bucket = Log4Bucket(decode_mean_ctx);
  cell.partition_index = decode_sms / deployment_.gpu.partition_granularity;
  return cell;
}

ContentionEstimator::CellKey ContentionEstimator::CellFor(
    const PrefillDesc& prefill, const llm::DecodeBatch& batch,
    int decode_sms) const {
  std::int64_t mean_ctx = 0;
  if (batch.size > 0) {
    mean_ctx = batch.total_context / static_cast<std::int64_t>(batch.size);
  }
  return CellFor(prefill, batch.size, mean_ctx, decode_sms);
}

sim::Duration ContentionEstimator::WorstCaseDecode(
    const llm::DecodeBatch& batch, int decode_sms,
    const PrefillDesc& prefill) const {
  const sim::Duration solo = predictor_.PredictDecode(batch, decode_sms);
  double factor = 1.0 + predictor_.DecodeMaxError(decode_sms);
  if (prefill.new_tokens > 0 || prefill.reused_tokens > 0) {
    factor *= GuardFor(CellFor(prefill, batch, decode_sms));
  }
  return static_cast<sim::Duration>(static_cast<double>(solo) * factor);
}

double ContentionEstimator::GuardFor(const CellKey& cell) const {
  auto it = guard_.find(cell);
  if (it == guard_.end()) return options_.default_guard;
  return it->second;
}

bool ContentionEstimator::ObserveDecode(const CellKey& cell,
                                        double slowdown) {
  ++observations_;
  auto [it, inserted] = guard_.try_emplace(cell, options_.default_guard);
  // A fresh cell starts at the conservative default; observations only
  // ever raise it (worst case semantics).
  if (slowdown > it->second) {
    it->second = slowdown;
    ++guard_raises_;
    return true;
  }
  return false;
}

double ContentionEstimator::MaxGuard() const {
  double max_guard = options_.default_guard;
  for (const auto& [cell, g] : guard_) max_guard = std::max(max_guard, g);
  return max_guard;
}

ContentionEstimator ContentionEstimator::BuildOffline(
    const serve::Deployment& deployment) {
  return BuildOffline(deployment, Options());
}

ContentionEstimator ContentionEstimator::BuildOffline(
    const serve::Deployment& deployment, Options options) {
  // --- Solo-run predictor training (paper: a few hours, one-time) ---
  sim::Simulator scratch;
  gpu::Gpu probe(&scratch, deployment.gpu);
  llm::CostModel cost(deployment.model, deployment.num_gpus, deployment.gpu);
  const std::vector<int> sm_options = [&deployment] {
    serve::Deployment d = deployment;
    return d.SmPartitionOptions();
  }();
  llm::SoloRunPredictor predictor =
      llm::SoloRunPredictor::Train(probe, cost, sm_options);

  ContentionEstimator estimator(std::move(predictor), deployment, options);

  // --- Contention-guard grid profiling (paper §3.3.2) ---
  // Powers-of-4 token grid from 2K to 128K, ~20 decode batch sizes
  // sampled coarsely here, every partition configuration; each pair is
  // co-run on a scratch device and the measured decode slowdown keyed
  // into its grid cell.
  const std::vector<std::int64_t> token_grid = {2048, 8192, 32768, 131072};
  const std::vector<int> batch_grid = {1, 4, 16, 64, 256};
  const std::vector<int> group_layers = {1, 2, 4, 8};

  const int total_sms = deployment.gpu.sm_count;
  for (int decode_sms : sm_options) {
    if (decode_sms >= total_sms) continue;  // Full device: no co-run.
    const int prefill_sms = total_sms - decode_sms;
    for (std::int64_t pf_new : token_grid) {
      for (std::int64_t pf_reused : token_grid) {
        // The paper excludes the 128K+128K corner (beyond the context
        // window of the served models).
        if (pf_new + pf_reused > deployment.model.max_context) continue;
        for (int bs : batch_grid) {
          for (std::int64_t dc_ctx : token_grid) {
            const std::vector<std::int64_t> ctx(
                static_cast<std::size_t>(bs), dc_ctx);
            const gpu::Kernel decode_kernel = cost.DecodeIteration(ctx);
            double worst = 1.0;
            for (int layers : group_layers) {
              sim::Simulator co_sim;
              gpu::Gpu device(&co_sim, deployment.gpu);
              const gpu::StreamId pf_stream =
                  device.CreateStream(prefill_sms);
              const gpu::StreamId dc_stream =
                  device.CreateStream(decode_sms);
              const gpu::Kernel pf_kernel = cost.PrefillLayers(
                  {llm::SeqWork{pf_new, pf_reused}},
                  std::min(layers, deployment.model.num_layers));
              sim::Time decode_end = 0;
              device.Launch(pf_stream, pf_kernel, {});
              device.Launch(dc_stream, decode_kernel,
                            [&co_sim, &decode_end] {
                              decode_end = co_sim.Now();
                            });
              co_sim.Run();
              const double solo =
                  device.SoloDurationSeconds(decode_kernel, decode_sms);
              if (solo > 0.0) {
                worst = std::max(
                    worst, sim::ToSeconds(decode_end) / solo);
              }
            }
            const CellKey cell = estimator.CellFor(
                PrefillDesc{pf_new, pf_reused}, ctx.size(), dc_ctx,
                decode_sms);
            auto [it, inserted] = estimator.guard_.try_emplace(cell, worst);
            if (!inserted) it->second = std::max(it->second, worst);
          }
        }
      }
    }
  }
  // Profiled cells now carry measured maxima; unvisited cells fall back
  // to the conservative default guard.
  estimator.observations_ = 0;
  estimator.guard_raises_ = 0;
  return estimator;
}

}  // namespace muxwise::core
