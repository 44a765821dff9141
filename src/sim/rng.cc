#include "sim/rng.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "sim/hash.h"
#include "sim/logging.h"

namespace muxwise::sim {

namespace {

/** 64-bit FNV-1a hash used to derive fork seeds from labels. */
std::uint64_t HashLabel(std::uint64_t seed, const std::string& label) {
  std::uint64_t h = 14695981039346656037ULL ^ seed;
  for (char c : label) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 1099511628211ULL;
  }
  // Avalanche so nearby labels diverge fully.
  return SplitMix64Finalize(h);
}

}  // namespace

Rng::Rng(std::uint64_t seed) : seed_(seed), engine_(seed) {}

Rng Rng::Fork(const std::string& label) const {
  return Rng(HashLabel(seed_, label));
}

double Rng::Uniform() {
  return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
}

double Rng::Uniform(double lo, double hi) {
  return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

std::int64_t Rng::UniformInt(std::int64_t lo, std::int64_t hi) {
  MUX_CHECK(lo <= hi);
  return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
}

double Rng::Exponential(double mean) {
  MUX_CHECK(mean > 0.0);
  return std::exponential_distribution<double>(1.0 / mean)(engine_);
}

double Rng::Normal(double mean, double stddev) {
  return std::normal_distribution<double>(mean, stddev)(engine_);
}

double Rng::LogNormal(double mu, double sigma) {
  return std::lognormal_distribution<double>(mu, sigma)(engine_);
}

bool Rng::Bernoulli(double p) {
  return std::bernoulli_distribution(std::clamp(p, 0.0, 1.0))(engine_);
}

std::size_t Rng::WeightedIndex(const std::vector<double>& weights) {
  MUX_CHECK(!weights.empty());
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  MUX_CHECK(total > 0.0);
  double x = Uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x <= 0.0) return i;
  }
  return weights.size() - 1;
}

BoundedLogNormal::BoundedLogNormal(double min, double mean, double max)
    : min_(min), max_(max), target_mean_(mean) {
  MUX_CHECK(min > 0.0);
  MUX_CHECK(min <= mean && mean <= max);
  if (min_ == max_) {
    mu_ = std::log(min_);
    sigma_ = 0.0;
    return;
  }
  // Heuristic spread: +/-2 sigma spans the [min, max] range in log space.
  sigma_ = std::log(max / min) / 4.0;
  mu_ = std::log(mean) - 0.5 * sigma_ * sigma_;
  // Clamping shifts the realized mean, so calibrate mu with a short
  // fixed-seed Monte Carlo loop. Deterministic by construction.
  constexpr int kIterations = 10;
  constexpr int kSamples = 4096;
  for (int iter = 0; iter < kIterations; ++iter) {
    Rng probe(0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(iter));
    double sum = 0.0;
    for (int i = 0; i < kSamples; ++i) {
      sum += std::clamp(probe.LogNormal(mu_, sigma_), min_, max_);
    }
    const double realized = sum / kSamples;
    const double ratio = target_mean_ / realized;
    if (std::abs(ratio - 1.0) < 1e-3) break;
    // Damped multiplicative update in log space.
    mu_ += 0.8 * std::log(ratio);
  }
}

double BoundedLogNormal::Sample(Rng& rng) const {
  if (sigma_ == 0.0) return min_;
  return std::clamp(rng.LogNormal(mu_, sigma_), min_, max_);
}

}  // namespace muxwise::sim
