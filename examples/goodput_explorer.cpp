// Goodput explorer: a small CLI over the harness for exploring any
// (engine, model, GPU, workload) combination — the tool you reach for
// when sizing a deployment against an SLO.
//
// Usage:
//   goodput_explorer [engine] [model] [gpu] [dataset] [max_rate]
//     engine:  muxwise | chunked | nanoflow | sglang-pd | loongserve
//              | windserve | temporal        (default muxwise)
//     model:   Llama-8B | Llama-70B | Qwen-235B | CodeLlama-34B
//     gpu:     A100 | H100 | H200
//     dataset: sharegpt | loogle | openthoughts | conversation | toolagent
//     max_rate: top of the sweep in req/s (default 16)

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "gpu/gpu_spec.h"
#include "harness/runner.h"
#include "llm/model_config.h"
#include "serve/deployment.h"
#include "workload/datasets.h"

using namespace muxwise;

namespace {

harness::EngineKind ParseEngine(const std::string& name) {
  if (name == "muxwise") return harness::EngineKind::kMuxWise;
  if (name == "chunked") return harness::EngineKind::kChunked;
  if (name == "nanoflow") return harness::EngineKind::kNanoFlow;
  if (name == "sglang-pd") return harness::EngineKind::kSglangPd;
  if (name == "loongserve") return harness::EngineKind::kLoongServe;
  if (name == "windserve") return harness::EngineKind::kWindServe;
  if (name == "temporal") return harness::EngineKind::kTemporal;
  std::fprintf(stderr, "unknown engine '%s'\n", name.c_str());
  std::exit(1);
}

workload::Dataset ParseDataset(const std::string& name) {
  if (name == "sharegpt") return workload::Dataset::kShareGpt;
  if (name == "loogle") return workload::Dataset::kLoogle;
  if (name == "openthoughts") return workload::Dataset::kOpenThoughts;
  if (name == "conversation") return workload::Dataset::kConversation;
  if (name == "toolagent") return workload::Dataset::kToolAgent;
  std::fprintf(stderr, "unknown dataset '%s'\n", name.c_str());
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  const harness::EngineKind engine =
      ParseEngine(argc > 1 ? argv[1] : "muxwise");
  const llm::ModelConfig model =
      llm::ModelConfig::ByName(argc > 2 ? argv[2] : "Llama-70B");
  const gpu::GpuSpec gpu = gpu::GpuSpec::ByName(argc > 3 ? argv[3] : "A100");
  const workload::Dataset dataset =
      ParseDataset(argc > 4 ? argv[4] : "toolagent");
  const double max_rate = argc > 5 ? std::atof(argv[5]) : 16.0;

  const serve::Deployment deployment = serve::Deployment::Make(model, gpu);
  std::printf("deployment: %s on %dx %s | TBT SLO %.0f ms @ P%.0f\n",
              model.name.c_str(), deployment.num_gpus, gpu.name.c_str(),
              sim::ToMilliseconds(deployment.slo.tbt),
              100 * deployment.slo.percentile);

  const core::ContentionEstimator estimator =
      core::ContentionEstimator::BuildOffline(deployment);
  const workload::Trace base = workload::GenerateTrace(
      dataset, /*num_requests=*/2000, /*rate=*/1.0, /*seed=*/99);
  std::printf("workload: %s\n\n", workload::DatasetName(dataset));

  std::vector<double> rates;
  for (double r = max_rate / 16.0; r <= max_rate * 1.0001;
       r *= 1.4142135623730951) {
    rates.push_back(r);
  }

  std::printf("%8s | %7s | %8s | %8s | %7s\n", "rate", "stable", "TBT-p99",
              "TTFT-p99", "attain");
  const harness::GoodputResult result = harness::SweepGoodput(
      engine, deployment, base, rates, &estimator);
  for (const harness::SweepPoint& point : result.points) {
    std::printf("%6.2f/s | %7s | %6.1fms | %6.0fms | %5.1f%%\n",
                point.rate_rps, point.outcome.stable ? "yes" : "NO",
                point.outcome.tbt.p99_ms, point.outcome.ttft.p99_ms,
                100.0 * point.outcome.tbt_attainment);
  }
  std::printf("\n%s goodput: %.2f req/s", harness::EngineKindName(engine),
              result.goodput_rps);
  if (result.at_goodput.has_value()) {
    std::printf("  (%.0f tokens/s)", result.at_goodput->token_throughput);
  }
  std::printf("\n");
  return 0;
}
