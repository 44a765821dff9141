#include "core/estimator.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "gpu/gpu_spec.h"
#include "llm/model_config.h"
#include "serve/deployment.h"
#include "sim/rng.h"

namespace muxwise::core {
namespace {

serve::Deployment Llama70bA100() {
  return serve::Deployment::Make(llm::ModelConfig::Llama70B(),
                                 gpu::GpuSpec::A100());
}

class EstimatorTest : public ::testing::Test {
 protected:
  // Offline profiling is deterministic; share one instance per suite.
  static void SetUpTestSuite() {
    estimator_ = new ContentionEstimator(
        ContentionEstimator::BuildOffline(Llama70bA100()));
  }
  static void TearDownTestSuite() {
    delete estimator_;
    estimator_ = nullptr;
  }

  static ContentionEstimator* estimator_;
};

ContentionEstimator* EstimatorTest::estimator_ = nullptr;

TEST_F(EstimatorTest, OfflineProfilingPopulatesGuardGrid) {
  // Partitions x prefill grid x batch x context cells.
  EXPECT_GT(estimator_->guard_cells(), 500u);
}

TEST_F(EstimatorTest, GuardFactorsWithinPaperRange) {
  // Paper §3.3.2: measured slowdown stays within ~20% on A100 (we allow
  // the interference + bandwidth-sharing envelope of the simulator).
  EXPECT_GE(estimator_->MaxGuard(), 1.0);
  EXPECT_LE(estimator_->MaxGuard(), 1.60);
}

TEST_F(EstimatorTest, WorstCaseIsAtLeastSolo) {
  const std::vector<std::int64_t> ctx(32, 4096);
  for (int sms : {16, 48, 96}) {
    const sim::Duration solo = estimator_->PredictDecodeSolo(ctx, sms);
    const sim::Duration worst = estimator_->WorstCaseDecode(
        ctx, sms, PrefillDesc{8192, 8192});
    EXPECT_GE(worst, solo) << "sms=" << sms;
    EXPECT_LE(worst, static_cast<sim::Duration>(1.8 * solo)) << "sms=" << sms;
  }
}

TEST_F(EstimatorTest, NoPrefillMeansNoGuardInflationBeyondFitError) {
  const std::vector<std::int64_t> ctx(16, 2048);
  const sim::Duration solo = estimator_->PredictDecodeSolo(ctx, 96);
  const sim::Duration worst =
      estimator_->WorstCaseDecode(ctx, 96, PrefillDesc{0, 0});
  EXPECT_LE(worst, static_cast<sim::Duration>(1.25 * solo));
}

TEST_F(EstimatorTest, CellKeyBucketsArePowersOfFour) {
  const ContentionEstimator::CellKey a =
      estimator_->CellFor(PrefillDesc{2048, 0}, 32, 4096, 48);
  const ContentionEstimator::CellKey b =
      estimator_->CellFor(PrefillDesc{4000, 0}, 32, 4096, 48);
  EXPECT_EQ(a, b);  // Same power-of-4 bucket.
  const ContentionEstimator::CellKey c =
      estimator_->CellFor(PrefillDesc{16384, 0}, 32, 4096, 48);
  EXPECT_NE(a, c);
  const ContentionEstimator::CellKey d =
      estimator_->CellFor(PrefillDesc{2048, 0}, 32, 4096, 64);
  EXPECT_NE(a, d);  // Partition is part of the key.
}

TEST(EstimatorOnlineTest, ObservationsRaiseTheGuard) {
  ContentionEstimator estimator =
      ContentionEstimator::BuildOffline(Llama70bA100());
  const ContentionEstimator::CellKey cell =
      estimator.CellFor(PrefillDesc{2048, 2048}, 8, 2048, 48);
  const double before = estimator.GuardFor(cell);
  EXPECT_FALSE(estimator.ObserveDecode(cell, before - 0.01));
  EXPECT_DOUBLE_EQ(estimator.GuardFor(cell), before);
  EXPECT_TRUE(estimator.ObserveDecode(cell, before + 0.25));
  EXPECT_DOUBLE_EQ(estimator.GuardFor(cell), before + 0.25);
  EXPECT_EQ(estimator.observations(), 2u);
  EXPECT_EQ(estimator.guard_raises(), 1u);
}

TEST(EstimatorOnlineTest, UnprofiledCellUsesDefaultGuard) {
  ContentionEstimator::Options options;
  options.default_guard = 1.42;
  ContentionEstimator estimator =
      ContentionEstimator::BuildOffline(Llama70bA100(), options);
  // A cell far outside the profiling grid (tiny prefill, tiny context).
  const ContentionEstimator::CellKey cell =
      estimator.CellFor(PrefillDesc{4, 0}, 1, 4, 16);
  EXPECT_DOUBLE_EQ(estimator.GuardFor(cell), 1.42);
}

TEST(EstimatorOnlineTest, PrefillPredictionUsable) {
  ContentionEstimator estimator =
      ContentionEstimator::BuildOffline(Llama70bA100());
  const std::vector<llm::SeqWork> batch = {llm::SeqWork{4096, 0}};
  const sim::Duration t16 = estimator.PredictPrefill(batch, 16);
  const sim::Duration t92 = estimator.PredictPrefill(batch, 92);
  EXPECT_GT(t16, t92);
  EXPECT_GT(t92, 0);
}

/**
 * A seeded random decode batch (1-256 sequences, contexts up to the
 * model's max_context) and its summary, built the way MuxWiseEngine
 * builds it.
 */
struct RandomDecode {
  std::vector<std::int64_t> ctx;
  llm::DecodeBatch batch{0, 0};
};

RandomDecode MakeRandomDecode(sim::Rng& rng, std::int64_t max_context) {
  RandomDecode d;
  d.ctx.resize(static_cast<std::size_t>(rng.UniformInt(1, 256)));
  std::int64_t total = 0;
  for (std::int64_t& c : d.ctx) {
    c = rng.UniformInt(1, max_context);
    total += c;
  }
  d.batch = llm::DecodeBatch(d.ctx.size(), total);
  return d;
}

/** No prefill half the time, else a random co-running prefill. */
PrefillDesc MakeRandomPrefill(sim::Rng& rng) {
  if (rng.Bernoulli(0.5)) return PrefillDesc{};
  return PrefillDesc{rng.UniformInt(1, 65536), rng.UniformInt(0, 65536)};
}

/**
 * Eq. 2 and the guarded worst case are priced from the batch summary;
 * on seeded random batches, every SM option and with or without a
 * co-running prefill they match the vector adaptors exactly, and the
 * summary lands in the cell the per-sequence mean selects.
 */
TEST_F(EstimatorTest, DecodeSummaryMatchesContextVectorExactly) {
  sim::Rng rng(2114);
  const serve::Deployment deployment = Llama70bA100();
  for (int trial = 0; trial < 200; ++trial) {
    const RandomDecode d =
        MakeRandomDecode(rng, deployment.model.max_context);
    const PrefillDesc prefill = MakeRandomPrefill(rng);
    std::int64_t total = 0;
    for (std::int64_t c : d.ctx) total += c;
    const std::int64_t mean = total / static_cast<std::int64_t>(d.ctx.size());
    for (int sms : deployment.SmPartitionOptions()) {
      EXPECT_EQ(estimator_->PredictDecodeSolo(d.batch, sms),
                estimator_->PredictDecodeSolo(d.ctx, sms));
      EXPECT_EQ(estimator_->WorstCaseDecode(d.batch, sms, prefill),
                estimator_->WorstCaseDecode(d.ctx, sms, prefill))
          << "trial=" << trial << " sms=" << sms;
      EXPECT_EQ(estimator_->CellFor(prefill, d.batch, sms),
                estimator_->CellFor(prefill, d.ctx.size(), mean, sms));
    }
  }
}

}  // namespace
}  // namespace muxwise::core
