// Reproduces paper Fig. 18: how MuxWise's compute partition between
// prefill and decode differs across workloads (LooGLE mostly prefill,
// OpenThoughts mostly decode, ShareGPT in between), and §4.4.1's note
// that bursty traces activate every partition configuration quickly.

#include <cstdio>

#include "bench_util.h"
#include "gpu/gpu_spec.h"
#include "harness/runner.h"
#include "llm/model_config.h"
#include "serve/deployment.h"
#include "workload/datasets.h"

using namespace muxwise;

namespace {

void Analyze(const harness::RunOutcome& outcome, const char* label) {
  const auto& partition = outcome.partition;
  std::printf("\n%s: %zu partition decisions, %zu while multiplexing\n",
              label, partition.decisions, partition.multiplexing);
  if (partition.multiplexing > 0) {
    const double sum = partition.prefill_share_sum;
    const double n = static_cast<double>(partition.multiplexing);
    std::printf("  mean SM share while multiplexing: prefill %.0f%%, "
                "decode %.0f%%\n",
                100.0 * sum / n, 100.0 * (1.0 - sum / n));
  }
  std::printf("  decode-SM histogram:");
  std::size_t configurations = 0;
  for (std::size_t sms = 0; sms < partition.decode_sms_histogram.size();
       ++sms) {
    const std::size_t count = partition.decode_sms_histogram[sms];
    if (count == 0) continue;
    std::printf("  %zu:%zu", sms, count);
    ++configurations;
  }
  std::printf("\n  configurations used: %zu\n", configurations);
}

}  // namespace

int main() {
  const serve::Deployment d = serve::Deployment::Make(
      llm::ModelConfig::Llama70B(), gpu::GpuSpec::A100());
  const core::ContentionEstimator estimator =
      core::ContentionEstimator::BuildOffline(d);

  bench::Banner("Fig. 18: compute-partition dynamics per workload "
                "(MuxWise, Llama-70B, 8xA100)");
  Analyze(harness::RunWorkload(
              harness::EngineKind::kMuxWise, d,
              workload::GenerateTrace(workload::Dataset::kLoogle, 60, 0.9,
                                      1801),
              &estimator),
          "LooGLE (prefill-heavy)");
  Analyze(harness::RunWorkload(
              harness::EngineKind::kMuxWise, d,
              workload::GenerateTrace(workload::Dataset::kShareGpt, 300, 8.0,
                                      1802),
              &estimator),
          "ShareGPT (balanced)");
  Analyze(harness::RunWorkload(
              harness::EngineKind::kMuxWise, d,
              workload::GenerateTrace(workload::Dataset::kOpenThoughts, 100,
                                      1.2, 1803),
              &estimator),
          "OpenThoughts (decode-heavy)");

  bench::Banner("Sec. 4.4.1: configurations activated on a bursty trace");
  const harness::RunOutcome bursty = harness::RunWorkload(
      harness::EngineKind::kMuxWise, d,
      workload::GenerateBurstyTrace(workload::Dataset::kConversation, 3.0,
                                    120.0, 13.0, 1804),
      &estimator);
  Analyze(bursty, "Conversation (bursty)");
  std::printf(
      "\nShape check (paper): LooGLE pushes most SMs to prefill,\n"
      "OpenThoughts to decode, ShareGPT sits between (leaning prefill\n"
      "because decode is memory-bound); a bursty interval activates all\n"
      "partition configurations within seconds.\n");
  return 0;
}
