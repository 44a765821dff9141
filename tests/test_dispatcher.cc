#include "core/dispatcher.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/estimator.h"
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

class DispatcherTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    estimator_ = new ContentionEstimator(
        ContentionEstimator::BuildOffline(Llama70bA100()));
  }
  static void TearDownTestSuite() {
    delete estimator_;
    estimator_ = nullptr;
  }

  SloAwareDispatcher MakeDispatcher(
      SloAwareDispatcher::Options options = SloAwareDispatcher::Options()) {
    return SloAwareDispatcher(Llama70bA100(), estimator_, options);
  }

  static ContentionEstimator* estimator_;
};

ContentionEstimator* DispatcherTest::estimator_ = nullptr;

TEST_F(DispatcherTest, NoPrefillGivesDecodeTheFullDevice) {
  SloAwareDispatcher dispatcher = MakeDispatcher();
  const std::vector<std::int64_t> ctx(32, 2048);
  EXPECT_EQ(dispatcher.ChooseDecodeSms(ctx, false, PrefillDesc{}), 108);
}

TEST_F(DispatcherTest, EmptyDecodeKeepsMinimalReservation) {
  SloAwareDispatcher dispatcher = MakeDispatcher();
  EXPECT_EQ(dispatcher.ChooseDecodeSms({}, true, PrefillDesc{4096, 0}), 16);
}

TEST_F(DispatcherTest, PicksSmallestPartitionMeetingSlo) {
  SloAwareDispatcher dispatcher = MakeDispatcher();
  const PrefillDesc prefill{8192, 8192};
  const std::vector<std::int64_t> small(4, 1024);
  const std::vector<std::int64_t> large(128, 16384);
  const int sms_small = dispatcher.ChooseDecodeSms(small, true, prefill);
  const int sms_large = dispatcher.ChooseDecodeSms(large, true, prefill);
  EXPECT_LT(sms_small, 108);
  EXPECT_LE(sms_small, sms_large);
  // Best-fit: the chosen partition meets the SLO, the next smaller
  // option does not (or the chosen one is the smallest).
  const sim::Duration budget =
      Llama70bA100().slo.tbt - SloAwareDispatcher::kTbtMargin;
  EXPECT_LE(estimator_->WorstCaseDecode(small, sms_small, prefill), budget);
  if (sms_small > 16) {
    EXPECT_GT(estimator_->WorstCaseDecode(small, sms_small - 16, prefill),
              budget);
  }
}

TEST_F(DispatcherTest, HeavierDecodeNeedsMoreSms) {
  SloAwareDispatcher dispatcher = MakeDispatcher();
  const PrefillDesc prefill{8192, 0};
  const std::vector<std::int64_t> light(8, 1024);
  const std::vector<std::int64_t> heavy(192, 8192);
  EXPECT_LT(dispatcher.ChooseDecodeSms(light, true, prefill),
            dispatcher.ChooseDecodeSms(heavy, true, prefill));
}

TEST_F(DispatcherTest, ImpossibleSloFallsBackToLargestMultiplexedOption) {
  SloAwareDispatcher dispatcher = MakeDispatcher();
  // A decode batch so heavy no partition can meet 100 ms.
  const std::vector<std::int64_t> monster(256, 131072);
  const int sms =
      dispatcher.ChooseDecodeSms(monster, true, PrefillDesc{8192, 0});
  EXPECT_EQ(sms, 96);  // Largest sub-device option on A100.
}

TEST_F(DispatcherTest, HandsBackTheWorstCaseOfTheChosenPartition) {
  // Fit, empty decode and no-fit fallback: each hands back exactly what
  // the estimator prices for the returned partition.
  SloAwareDispatcher dispatcher = MakeDispatcher();
  const PrefillDesc prefill{8192, 0};
  for (const std::vector<std::int64_t>& ctx :
       {std::vector<std::int64_t>(8, 1024), std::vector<std::int64_t>{},
        std::vector<std::int64_t>(256, 131072)}) {
    const llm::DecodeBatch batch = llm::DecodeBatch::Of(ctx);
    sim::Duration worst = -1;
    const int sms = dispatcher.ChooseDecodeSms(batch, true, prefill, &worst);
    EXPECT_EQ(worst, estimator_->WorstCaseDecode(batch, sms, prefill))
        << ctx.size() << " sequences on " << sms << " SMs";
  }
}

TEST_F(DispatcherTest, PrefillLayerCountCoversDecodeIteration) {
  SloAwareDispatcher dispatcher = MakeDispatcher();
  const std::vector<llm::SeqWork> batch = {llm::SeqWork{8192, 0}};
  const sim::Duration phase = estimator_->PredictPrefill(batch, 60);
  const sim::Duration decode_estimate = phase / 10;  // A tenth of a phase.
  const int layers =
      dispatcher.PrefillLayersToLaunch(decode_estimate, batch, 60, 80);
  EXPECT_EQ(layers, 8);  // ceil(80/10).
}

TEST_F(DispatcherTest, PrefillLayersClampedToRemaining) {
  SloAwareDispatcher dispatcher = MakeDispatcher();
  const std::vector<llm::SeqWork> batch = {llm::SeqWork{512, 0}};
  const int layers = dispatcher.PrefillLayersToLaunch(
      sim::Seconds(10), batch, 92, 5);  // Huge decode estimate.
  EXPECT_EQ(layers, 5);
}

TEST_F(DispatcherTest, IdleDecodeUsesIdleGroupSize) {
  SloAwareDispatcher dispatcher = MakeDispatcher();
  const std::vector<llm::SeqWork> batch = {llm::SeqWork{4096, 0}};
  EXPECT_EQ(dispatcher.PrefillLayersToLaunch(0, batch, 92, 80),
            SloAwareDispatcher::kIdleLayerGroup);
}

TEST_F(DispatcherTest, PreemptionRequiresIncomingDeadlinePressure) {
  SloAwareDispatcher dispatcher = MakeDispatcher();
  const sim::Time now = sim::Seconds(10);
  // Active prefill finishes quickly: incoming meets TTFT by waiting.
  EXPECT_FALSE(dispatcher.ShouldPreempt(
      now, /*active_remaining=*/sim::Milliseconds(50), false,
      /*active_deadline=*/now + sim::Seconds(5),
      /*incoming_duration=*/sim::Milliseconds(100),
      /*incoming_deadline=*/now + sim::Milliseconds(500)));
}

TEST_F(DispatcherTest, PreemptsLongPrefillForShortRequest) {
  SloAwareDispatcher dispatcher = MakeDispatcher();
  const sim::Time now = sim::Seconds(10);
  // A long LooGLE-style prefill (2 s left, generous length-scaled
  // deadline) blocks a short chat request whose 500 ms deadline would
  // be missed by waiting but met by preempting.
  EXPECT_TRUE(dispatcher.ShouldPreempt(
      now, /*active_remaining=*/sim::Seconds(2), false,
      /*active_deadline=*/now + sim::Seconds(10),
      /*incoming_duration=*/sim::Milliseconds(100),
      /*incoming_deadline=*/now + sim::Milliseconds(500)));
}

TEST_F(DispatcherTest, NoRecursivePreemption) {
  SloAwareDispatcher dispatcher = MakeDispatcher();
  const sim::Time now = sim::Seconds(10);
  EXPECT_FALSE(dispatcher.ShouldPreempt(
      now, sim::Seconds(2), /*active_is_preemptor=*/true,
      now + sim::Seconds(10), sim::Milliseconds(100),
      now + sim::Milliseconds(500)));
}

TEST_F(DispatcherTest, NoPreemptionIfActiveWouldMissItsDeadline) {
  SloAwareDispatcher dispatcher = MakeDispatcher();
  const sim::Time now = sim::Seconds(10);
  // Active batch already near its TTFT deadline: preempting dooms it.
  EXPECT_FALSE(dispatcher.ShouldPreempt(
      now, sim::Milliseconds(300), false,
      /*active_deadline=*/now + sim::Milliseconds(400),
      /*incoming_duration=*/sim::Milliseconds(250),
      /*incoming_deadline=*/now + sim::Milliseconds(500)));
}

TEST_F(DispatcherTest, PreemptionDisabledByOption) {
  SloAwareDispatcher::Options options;
  options.preemption = false;
  SloAwareDispatcher dispatcher = MakeDispatcher(options);
  const sim::Time now = sim::Seconds(10);
  EXPECT_FALSE(dispatcher.ShouldPreempt(
      now, sim::Seconds(2), false, now + sim::Seconds(10),
      sim::Milliseconds(100), now + sim::Milliseconds(500)));
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
 * The dispatcher decides from the batch summary: on seeded random
 * batches, with and without pending or co-running prefill, the SM
 * choice and the layer-group size match the vector adaptors exactly.
 */
TEST_F(DispatcherTest, DecodeSummaryMatchesContextVectorExactly) {
  SloAwareDispatcher dispatcher = MakeDispatcher();
  const serve::Deployment deployment = Llama70bA100();
  sim::Rng rng(2115);
  EXPECT_EQ(dispatcher.ChooseDecodeSms(llm::DecodeBatch(0, 0), true,
                                       PrefillDesc{4096, 0}),
            dispatcher.ChooseDecodeSms({}, true, PrefillDesc{4096, 0}));
  for (int trial = 0; trial < 200; ++trial) {
    const RandomDecode d =
        MakeRandomDecode(rng, deployment.model.max_context);
    const PrefillDesc prefill = MakeRandomPrefill(rng);
    for (bool pending : {false, true}) {
      EXPECT_EQ(dispatcher.ChooseDecodeSms(d.batch, pending, prefill),
                dispatcher.ChooseDecodeSms(d.ctx, pending, prefill))
          << "trial=" << trial << " pending=" << pending;
    }
    const std::vector<llm::SeqWork> work = {
        llm::SeqWork{rng.UniformInt(1, 65536), rng.UniformInt(0, 65536)}};
    const sim::Duration decode_estimate =
        rng.Bernoulli(0.2) ? 0 : estimator_->PredictDecodeSolo(d.batch, 48);
    const int remaining = static_cast<int>(rng.UniformInt(1, 80));
    for (int sms : deployment.SmPartitionOptions()) {
      EXPECT_EQ(dispatcher.PrefillLayersToLaunch(
                    decode_estimate,
                    estimator_->PredictPrefill(llm::PrefillBatch::Of(work),
                                               sms),
                    remaining),
                dispatcher.PrefillLayersToLaunch(decode_estimate, work, sms,
                                                 remaining))
          << "trial=" << trial << " sms=" << sms;
    }
  }
}

}  // namespace
}  // namespace muxwise::core
