#include "serve/quantile_sketch.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "sim/hash.h"
#include "sim/logging.h"

namespace muxwise::serve {

namespace {

// Histogram layout: one bucket run per IEEE-754 binade between 2^-32
// and 2^32 (biased exponents 991..1055), each split into 32 linear
// sub-buckets by the top 5 mantissa bits. Bucket 0 collects zero,
// negatives-after-clamp, and underflow; the last bucket collects
// overflow. 2082 fixed counters total (~16 KiB) — the O(1) memory
// behind million-request populations.
constexpr int kSubBits = QuantileSketch::kSubBucketBits;
constexpr std::uint64_t kSub = 1ULL << kSubBits;
constexpr std::uint64_t kMinBiasedExp = 991;   // 2^-32
constexpr std::uint64_t kMaxBiasedExp = 1055;  // binade [2^32, 2^33)
constexpr std::size_t kNumLogLinear =
    static_cast<std::size_t>(kMaxBiasedExp - kMinBiasedExp + 1) * kSub;
constexpr std::size_t kNumBuckets = kNumLogLinear + 2;

std::size_t BucketIndex(double v) {
  if (v <= 0.0) return 0;
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
  const std::uint64_t biased = bits >> 52;  // Sign bit is 0 here.
  if (biased < kMinBiasedExp) return 0;
  if (biased > kMaxBiasedExp) return kNumBuckets - 1;
  const std::uint64_t sub = (bits >> (52 - kSubBits)) & (kSub - 1);
  return 1 + static_cast<std::size_t>((biased - kMinBiasedExp) * kSub + sub);
}

/** Lower edge of log-linear bucket `idx` (valid up to kNumLogLinear+1,
 * which yields the exclusive upper edge of the last log-linear run). */
double BucketLowerEdge(std::size_t idx) {
  const std::uint64_t linear = static_cast<std::uint64_t>(idx - 1);
  const std::uint64_t biased = kMinBiasedExp + linear / kSub;
  const std::uint64_t sub = linear % kSub;
  return std::bit_cast<double>((biased << 52) | (sub << (52 - kSubBits)));
}

}  // namespace

double PercentileSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  MUX_CHECK(p >= 0.0 && p <= 1.0);
  const double idx = p * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(idx));
  const std::size_t hi = static_cast<std::size_t>(std::ceil(idx));
  const double frac = idx - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

void QuantileSketch::Add(double value) {
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  sum_ += value;
  ++count_;
  const double stored = value < 0.0 ? 0.0 : value;
  if (!overflowed_) {
    if (exact_.size() < exact_capacity_) {
      exact_.push_back(stored);
      sorted_ = false;
      return;
    }
    CollapseToHistogram();
  }
  AddToHistogram(stored);
}

double QuantileSketch::Mean() const {
  if (count_ == 0) return 0.0;
  return sum_ / static_cast<double>(count_);
}

double QuantileSketch::Min() const { return count_ == 0 ? 0.0 : min_; }
double QuantileSketch::Max() const { return count_ == 0 ? 0.0 : max_; }

double QuantileSketch::Quantile(double p) const {
  if (count_ == 0) return 0.0;
  MUX_CHECK(p >= 0.0 && p <= 1.0);
  if (!overflowed_) {
    EnsureSorted();
    return PercentileSorted(exact_, p);
  }
  // Same R-7 rank arithmetic as PercentileSorted, over bucket
  // midpoints: walk the cumulative counts once for the two neighbour
  // ranks and blend by the fractional rank.
  const double idx = p * static_cast<double>(count_ - 1);
  const std::uint64_t lo_rank = static_cast<std::uint64_t>(std::floor(idx));
  const std::uint64_t hi_rank = static_cast<std::uint64_t>(std::ceil(idx));
  const double frac = idx - static_cast<double>(lo_rank);
  const double clamp_lo = min_ < 0.0 ? 0.0 : min_;
  double lo_value = max_;
  double hi_value = max_;
  bool lo_found = false;
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < kNumBuckets; ++b) {
    if (buckets_[b] == 0) continue;
    cumulative += buckets_[b];
    double rep;
    if (b == 0) {
      rep = 0.0;
    } else if (b == kNumBuckets - 1) {
      rep = max_;
    } else {
      rep = 0.5 * (BucketLowerEdge(b) + BucketLowerEdge(b + 1));
    }
    rep = std::min(std::max(rep, clamp_lo), max_);
    if (!lo_found && cumulative > lo_rank) {
      lo_value = rep;
      lo_found = true;
    }
    if (cumulative > hi_rank) {
      hi_value = rep;
      break;
    }
  }
  return lo_value * (1.0 - frac) + hi_value * frac;
}

double QuantileSketch::CountLessEqual(double threshold) const {
  if (count_ == 0) return 0.0;
  if (!overflowed_) {
    EnsureSorted();
    const auto it =
        std::upper_bound(exact_.begin(), exact_.end(), threshold);
    return static_cast<double>(it - exact_.begin());
  }
  if (threshold < 0.0) return 0.0;
  const std::size_t idx = BucketIndex(threshold);
  double total = 0.0;
  for (std::size_t b = 0; b < idx; ++b) {
    total += static_cast<double>(buckets_[b]);
  }
  if (idx == 0 || idx == kNumBuckets - 1) {
    // Zero bucket: all samples are <= any non-negative threshold.
    // Overflow bucket: the threshold clears every bounded bucket.
    total += static_cast<double>(buckets_[idx]);
  } else if (buckets_[idx] > 0) {
    const double lo = BucketLowerEdge(idx);
    const double hi = BucketLowerEdge(idx + 1);
    const double frac = (threshold - lo) / (hi - lo);
    total += static_cast<double>(buckets_[idx]) *
             std::min(std::max(frac, 0.0), 1.0);
  }
  return total;
}

LatencySummary QuantileSketch::Summarize() const {
  LatencySummary s;
  s.count = count_;
  if (count_ == 0) return s;
  s.mean_ms = Mean();
  if (!overflowed_) {
    // One sort, both percentiles — the historical Summarize() contract.
    EnsureSorted();
    s.p50_ms = PercentileSorted(exact_, 0.50);
    s.p99_ms = PercentileSorted(exact_, 0.99);
  } else {
    s.p50_ms = Quantile(0.50);
    s.p99_ms = Quantile(0.99);
  }
  return s;
}

std::uint64_t QuantileSketch::StateDigest() const {
  std::uint64_t h = 0x51ce7c45a1ca1e5bULL;  // Fixed sketch-state seed.
  h = sim::MixDigest(h, static_cast<std::uint64_t>(count_));
  h = sim::MixDigest(h, overflowed_ ? 1 : 0);
  if (count_ == 0) return h;
  // The running sum is excluded on purpose: FP addition is not
  // associative, so it is the one field whose bits can depend on
  // insertion order. Everything hashed here is a pure function of the
  // multiset.
  h = sim::MixDigest(h, std::bit_cast<std::uint64_t>(min_));
  h = sim::MixDigest(h, std::bit_cast<std::uint64_t>(max_));
  if (!overflowed_) {
    EnsureSorted();
    for (double v : exact_) {
      h = sim::MixDigest(h, std::bit_cast<std::uint64_t>(v));
    }
    return h;
  }
  for (std::size_t b = 0; b < kNumBuckets; ++b) {
    if (buckets_[b] == 0) continue;
    h = sim::MixDigest(h, static_cast<std::uint64_t>(b));
    h = sim::MixDigest(h, buckets_[b]);
  }
  return h;
}

std::size_t QuantileSketch::MemoryBytes() const {
  return sizeof(*this) + exact_.capacity() * sizeof(double) +
         buckets_.capacity() * sizeof(std::uint64_t);
}

void QuantileSketch::EnsureSorted() const {
  if (sorted_) return;
  std::sort(exact_.begin(), exact_.end());
  sorted_ = true;
}

void QuantileSketch::CollapseToHistogram() {
  buckets_.assign(kNumBuckets, 0);
  for (double v : exact_) ++buckets_[BucketIndex(v)];
  exact_.clear();
  exact_.shrink_to_fit();
  sorted_ = true;
  overflowed_ = true;
}

void QuantileSketch::AddToHistogram(double value) {
  ++buckets_[BucketIndex(value)];
}

}  // namespace muxwise::serve
