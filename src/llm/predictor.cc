#include "llm/predictor.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "llm/least_squares.h"
#include "sim/logging.h"

namespace muxwise::llm {

namespace {

std::array<double, 4> PrefillFeatures(const PrefillBatch& batch) {
  return {batch.sum_n2, batch.sum_nr, batch.sum_n, 1.0};
}

std::array<double, 3> DecodeFeatures(const DecodeBatch& batch) {
  return {static_cast<double>(batch.total_context),
          static_cast<double>(batch.size), 1.0};
}

template <typename Features>
double Dot(const std::vector<double>& theta, const Features& x) {
  double s = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) s += theta[i] * x[i];
  return s;
}

}  // namespace

PrefillBatch PrefillBatch::Of(const std::vector<SeqWork>& batch) {
  double sum_n2 = 0.0, sum_nr = 0.0, sum_n = 0.0;
  for (const SeqWork& seq : batch) {
    const double n = static_cast<double>(seq.new_tokens);
    const double r = static_cast<double>(seq.reused_tokens);
    sum_n2 += n * n;
    sum_nr += n * r;
    sum_n += n;
  }
  return PrefillBatch(sum_n2, sum_nr, sum_n);
}

PrefillBatch PrefillBatch::Of(const SeqWork& seq) {
  const double n = static_cast<double>(seq.new_tokens);
  const double r = static_cast<double>(seq.reused_tokens);
  // 0.0 + x == x for every finite x, so this is Of({seq}) exactly.
  return PrefillBatch(n * n, n * r, n);
}

SoloRunPredictor SoloRunPredictor::Train(const gpu::Gpu& device,
                                         const CostModel& cost_model,
                                         const std::vector<int>& sm_options) {
  MUX_CHECK(!sm_options.empty());
  SoloRunPredictor predictor;

  const std::vector<std::int64_t> new_grid = {128,  256,  512,   1024,
                                              2048, 4096, 8192,  16384,
                                              32768, 65536};
  const std::vector<std::int64_t> reuse_grid = {0,    1024,  4096,
                                                16384, 65536, 131072};
  const std::vector<int> batch_grid = {1, 2, 4, 8, 16, 32, 64, 128, 256};
  // Decode contexts follow the paper's profiling grid (powers of 4
  // starting at 2K); shorter contexts extrapolate, covered by the
  // estimator's guard margin.
  const std::vector<std::int64_t> decode_ctx_grid = {2048, 8192, 32768,
                                                     131072};

  for (int sms : sm_options) {
    // --- Prefill fit ---
    std::vector<std::vector<double>> px;
    std::vector<double> py, pw;
    for (std::int64_t n : new_grid) {
      for (std::int64_t r : reuse_grid) {
        if (n + r > cost_model.model().max_context) continue;
        const std::vector<SeqWork> batch = {SeqWork{n, r}};
        const gpu::Kernel kernel = cost_model.PrefillPhase(batch);
        const double y = device.SoloDurationSeconds(kernel, sms);
        const auto x = PrefillFeatures(PrefillBatch::Of(batch));
        px.emplace_back(x.begin(), x.end());
        py.push_back(y);
        pw.push_back(1.0 / y);  // Minimize relative error.
      }
    }
    Fit pf;
    pf.theta = SolveLeastSquares(px, py, pw);
    for (std::size_t i = 0; i < px.size(); ++i) {
      const double pred = Dot(pf.theta, px[i]);
      pf.max_relative_error = std::max(
          pf.max_relative_error, std::fabs(pred - py[i]) / py[i]);
    }
    predictor.prefill_fits_[sms] = std::move(pf);

    // --- Decode fit ---
    std::vector<std::vector<double>> dx;
    std::vector<double> dy, dw;
    for (int bs : batch_grid) {
      for (std::int64_t ctx : decode_ctx_grid) {
        const std::vector<std::int64_t> lens(static_cast<std::size_t>(bs),
                                             ctx);
        const gpu::Kernel kernel = cost_model.DecodeIteration(lens);
        const double y = device.SoloDurationSeconds(kernel, sms);
        const auto x = DecodeFeatures(DecodeBatch::Of(lens));
        dx.emplace_back(x.begin(), x.end());
        dy.push_back(y);
        dw.push_back(1.0 / y);
      }
    }
    Fit df;
    df.theta = SolveLeastSquares(dx, dy, dw);
    for (std::size_t i = 0; i < dx.size(); ++i) {
      const double pred = Dot(df.theta, dx[i]);
      df.max_relative_error = std::max(
          df.max_relative_error, std::fabs(pred - dy[i]) / dy[i]);
    }
    predictor.decode_fits_[sms] = std::move(df);
  }
  return predictor;
}

const SoloRunPredictor::Fit& SoloRunPredictor::PrefillFit(int sms) const {
  MUX_CHECK(!prefill_fits_.empty());
  auto it = prefill_fits_.upper_bound(sms);
  if (it == prefill_fits_.begin()) return it->second;
  return std::prev(it)->second;
}

const SoloRunPredictor::Fit& SoloRunPredictor::DecodeFit(int sms) const {
  MUX_CHECK(!decode_fits_.empty());
  auto it = decode_fits_.upper_bound(sms);
  if (it == decode_fits_.begin()) return it->second;
  return std::prev(it)->second;
}

sim::Duration SoloRunPredictor::PredictPrefill(const PrefillBatch& batch,
                                               int sms) const {
  const Fit& fit = PrefillFit(sms);
  const double seconds = std::max(0.0, Dot(fit.theta, PrefillFeatures(batch)));
  return static_cast<sim::Duration>(seconds * 1e9);
}

sim::Duration SoloRunPredictor::PredictDecode(const DecodeBatch& batch,
                                              int sms) const {
  const Fit& fit = DecodeFit(sms);
  const double seconds = std::max(0.0, Dot(fit.theta, DecodeFeatures(batch)));
  return static_cast<sim::Duration>(seconds * 1e9);
}

double SoloRunPredictor::PrefillMaxError(int sms) const {
  return PrefillFit(sms).max_relative_error;
}

double SoloRunPredictor::DecodeMaxError(int sms) const {
  return DecodeFit(sms).max_relative_error;
}

std::vector<int> SoloRunPredictor::TrainedSmOptions() const {
  std::vector<int> options;
  options.reserve(prefill_fits_.size());
  for (const auto& [sms, fit] : prefill_fits_) options.push_back(sms);
  return options;
}

}  // namespace muxwise::llm
