#ifndef MUXWISE_TESTS_FROZEN_DIGESTS_H_
#define MUXWISE_TESTS_FROZEN_DIGESTS_H_

#include <cstdint>

#include "gpu/gpu_spec.h"
#include "harness/runner.h"
#include "llm/model_config.h"
#include "serve/deployment.h"
#include "workload/datasets.h"

namespace muxwise::tests {

/**
 * The seven-engine acceptance scenario's frozen digests — recorded from
 * the seed BEFORE the channel refactor and re-enforced by every
 * structural change since (test_channel.cc gates on them).
 */
struct FrozenDigest {
  harness::EngineKind kind;
  std::uint64_t event_digest;
  std::size_t executed_events;
  std::uint64_t outcome_digest;
};

inline constexpr FrozenDigest kFrozenEngineDigests[] = {
    {harness::EngineKind::kMuxWise, 0xb8dab88ef03c0e36ull, 5768,
     0x64057339ff7e20ffull},
    {harness::EngineKind::kChunked, 0x600f439cd0e9b2a9ull, 5166,
     0xa79db285eba1ac92ull},
    {harness::EngineKind::kNanoFlow, 0x98d55bf27e747a59ull, 8710,
     0xc54972f3fb74e7bfull},
    {harness::EngineKind::kSglangPd, 0x7b797a7451b6eb90ull, 5014,
     0x50f684df4c6170f4ull},
    {harness::EngineKind::kLoongServe, 0x7c3cf241ee03682dull, 3912,
     0x6288a403b4628e89ull},
    {harness::EngineKind::kWindServe, 0x4af18835f365b17eull, 6196,
     0xec28858423c39dc5ull},
    {harness::EngineKind::kTemporal, 0x0cddefd2e724a299ull, 6260,
     0x7cd1c27674bb5f39ull},
};

/** The deployment the frozen digests were recorded against. */
inline serve::Deployment FrozenDeployment() {
  return serve::Deployment::Make(llm::ModelConfig::Llama70B(),
                                 gpu::GpuSpec::A100());
}

/** The trace the frozen digests were recorded against. */
inline workload::Trace FrozenTrace() {
  return workload::GenerateTrace(workload::Dataset::kShareGpt, 30, 2.0, 901);
}

}  // namespace muxwise::tests

#endif  // MUXWISE_TESTS_FROZEN_DIGESTS_H_
