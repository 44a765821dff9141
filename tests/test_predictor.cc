#include "llm/predictor.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "gpu/gpu.h"
#include "gpu/gpu_spec.h"
#include "llm/cost_model.h"
#include "llm/model_config.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace muxwise::llm {
namespace {

class PredictorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    predictor_ = SoloRunPredictor::Train(device_, cost_, {16, 48, 96, 108});
  }

  sim::Simulator simulator_;
  gpu::Gpu device_{&simulator_, gpu::GpuSpec::A100()};
  CostModel cost_{ModelConfig::Llama70B(), 8, gpu::GpuSpec::A100()};
  SoloRunPredictor predictor_;
};

TEST_F(PredictorTest, TrainedOptionsAreRecorded) {
  EXPECT_EQ(predictor_.TrainedSmOptions(),
            (std::vector<int>{16, 48, 96, 108}));
}

TEST_F(PredictorTest, FitErrorWithinPaperBallpark) {
  // Paper §3.3.2: max deviation 8.16% (prefill) / 8.84% (decode). Our
  // analytic ground truth has the same roofline nonlinearity; allow a
  // slightly wider envelope.
  for (int sms : predictor_.TrainedSmOptions()) {
    EXPECT_LT(predictor_.PrefillMaxError(sms), 0.20) << "sms=" << sms;
    EXPECT_LT(predictor_.DecodeMaxError(sms), 0.20) << "sms=" << sms;
  }
}

TEST_F(PredictorTest, PrefillPredictionTracksGroundTruth) {
  const std::vector<SeqWork> batch = {SeqWork{3000, 6000}};
  for (int sms : {16, 48, 96}) {
    const double truth =
        device_.SoloDurationSeconds(cost_.PrefillPhase(batch), sms);
    const double pred = sim::ToSeconds(predictor_.PredictPrefill(batch, sms));
    EXPECT_NEAR(pred / truth, 1.0, 0.25) << "sms=" << sms;
  }
}

TEST_F(PredictorTest, DecodePredictionTracksGroundTruth) {
  const std::vector<std::int64_t> ctx(24, 3000);
  for (int sms : {16, 48, 96}) {
    const double truth =
        device_.SoloDurationSeconds(cost_.DecodeIteration(ctx), sms);
    const double pred = sim::ToSeconds(predictor_.PredictDecode(ctx, sms));
    EXPECT_NEAR(pred / truth, 1.0, 0.25) << "sms=" << sms;
  }
}

TEST_F(PredictorTest, MoreSmsNeverSlowerForPrefill) {
  const std::vector<SeqWork> batch = {SeqWork{8192, 0}};
  const sim::Duration t16 = predictor_.PredictPrefill(batch, 16);
  const sim::Duration t96 = predictor_.PredictPrefill(batch, 96);
  EXPECT_GT(t16, t96);
}

TEST_F(PredictorTest, LongerContextSlowerDecode) {
  const std::vector<std::int64_t> short_ctx(32, 1024);
  const std::vector<std::int64_t> long_ctx(32, 65536);
  EXPECT_GT(predictor_.PredictDecode(long_ctx, 48),
            predictor_.PredictDecode(short_ctx, 48));
}

TEST_F(PredictorTest, UnknownSmsFallsBackToNearestLowerFit) {
  const std::vector<std::int64_t> ctx(8, 2048);
  // 64 is untrained; should use the 48-SM fit.
  EXPECT_EQ(predictor_.PredictDecode(ctx, 64),
            predictor_.PredictDecode(ctx, 48));
  // Below the smallest option: clamps to the smallest.
  EXPECT_EQ(predictor_.PredictDecode(ctx, 8),
            predictor_.PredictDecode(ctx, 16));
}

TEST_F(PredictorTest, PredictionsAreNonNegative) {
  EXPECT_GE(predictor_.PredictPrefill({SeqWork{1, 0}}, 16), 0);
  EXPECT_GE(predictor_.PredictDecode({1}, 16), 0);
}

/**
 * Paper Eq. 1/2 sanity across every model configuration: predicted
 * prefill latency is monotone in the new-token count and predicted
 * decode latency is monotone in the batch size, at each trained SM
 * allocation. The fits are per-(phase, SM) least squares, so nothing
 * guarantees this by construction — it must hold for the dispatcher's
 * budget search to be well-founded.
 */
class PredictorMonotoneTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    cost_ = std::make_unique<CostModel>(ModelConfig::ByName(GetParam()), 8,
                                        gpu::GpuSpec::A100());
    predictor_ =
        SoloRunPredictor::Train(device_, *cost_, {16, 48, 96, 108});
  }

  sim::Simulator simulator_;
  gpu::Gpu device_{&simulator_, gpu::GpuSpec::A100()};
  std::unique_ptr<CostModel> cost_;
  SoloRunPredictor predictor_;
};

TEST_P(PredictorMonotoneTest, PrefillLatencyMonotoneInNewTokens) {
  for (int sms : predictor_.TrainedSmOptions()) {
    sim::Duration prev = 0;
    for (std::int64_t tokens = 128; tokens <= 16384; tokens *= 2) {
      const sim::Duration t =
          predictor_.PredictPrefill({SeqWork{tokens, 0}}, sms);
      EXPECT_GE(t, prev) << GetParam() << " sms=" << sms
                         << " tokens=" << tokens;
      prev = t;
    }
    // And strictly: 128x the work is not free.
    EXPECT_GT(predictor_.PredictPrefill({SeqWork{16384, 0}}, sms),
              predictor_.PredictPrefill({SeqWork{128, 0}}, sms))
        << GetParam() << " sms=" << sms;
  }
}

TEST_P(PredictorMonotoneTest, DecodeLatencyMonotoneInBatchSize) {
  for (int sms : predictor_.TrainedSmOptions()) {
    sim::Duration prev = 0;
    for (int batch = 1; batch <= 256; batch *= 2) {
      const std::vector<std::int64_t> ctx(batch, 2048);
      const sim::Duration t = predictor_.PredictDecode(ctx, sms);
      EXPECT_GE(t, prev) << GetParam() << " sms=" << sms
                         << " batch=" << batch;
      prev = t;
    }
    EXPECT_GT(predictor_.PredictDecode(std::vector<std::int64_t>(256, 2048),
                                       sms),
              predictor_.PredictDecode(std::vector<std::int64_t>(1, 2048),
                                       sms))
        << GetParam() << " sms=" << sms;
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, PredictorMonotoneTest,
                         ::testing::Values("Llama-8B", "Llama-70B",
                                           "Qwen-235B", "CodeLlama-34B"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

/**
 * Eq. 2 is priced from the batch summary. For seeded random batches
 * (1-256 sequences, contexts up to max_context) the summary built the
 * way MuxWiseEngine builds it and the vector adaptor agree exactly on
 * every SM count, trained or not.
 */
TEST_F(PredictorTest, DecodeSummaryMatchesContextVectorExactly) {
  sim::Rng rng(2112);
  const std::int64_t max_context = cost_.model().max_context;
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::int64_t> ctx(
        static_cast<std::size_t>(rng.UniformInt(1, 256)));
    std::int64_t total = 0;
    for (std::int64_t& c : ctx) {
      c = rng.UniformInt(1, max_context);
      total += c;
    }
    const DecodeBatch batch(ctx.size(), total);
    for (int sms = 1; sms <= 108; ++sms) {
      EXPECT_EQ(predictor_.PredictDecode(batch, sms),
                predictor_.PredictDecode(ctx, sms))
          << "trial=" << trial << " sms=" << sms;
    }
  }
}

/**
 * Eq. 1 from features cached across a prefill job's life: after every
 * change to the job's work list (a sequence joins, a victim leaves)
 * the refreshed features price exactly like a fresh work vector, while
 * the stale ones no longer describe the batch. A single sequence
 * priced without a vector matches the one-element batch.
 */
TEST_F(PredictorTest, CachedPrefillFeaturesMatchFreshWorkVector) {
  sim::Rng rng(2113);
  const std::int64_t max_context = cost_.model().max_context;
  const auto random_seq = [&rng, max_context] {
    const std::int64_t n = rng.UniformInt(1, max_context / 2);
    return SeqWork{n, rng.UniformInt(0, max_context - n)};
  };
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<SeqWork> work(static_cast<std::size_t>(rng.UniformInt(2, 8)));
    for (SeqWork& seq : work) seq = random_seq();
    const PrefillBatch joined = PrefillBatch::Of(work);
    const std::size_t victim = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(work.size()) - 1));
    work.erase(work.begin() + static_cast<std::ptrdiff_t>(victim));
    const PrefillBatch left = PrefillBatch::Of(work);
    EXPECT_NE(joined.sum_n, left.sum_n);
    const SeqWork single = random_seq();
    for (int sms = 1; sms <= 108; ++sms) {
      EXPECT_EQ(predictor_.PredictPrefill(left, sms),
                predictor_.PredictPrefill(work, sms))
          << "trial=" << trial << " sms=" << sms;
      EXPECT_EQ(predictor_.PredictPrefill(PrefillBatch::Of(single), sms),
                predictor_.PredictPrefill({single}, sms))
          << "trial=" << trial << " sms=" << sms;
    }
  }
}

}  // namespace
}  // namespace muxwise::llm
