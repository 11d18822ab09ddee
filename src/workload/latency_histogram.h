// HdrHistogram-style log-linear latency histogram over virtual microseconds.
//
// The recorder exists to make tail latency a *deterministic* bench column:
// every sample is a delta of a shard device's virtual clock (SimClock), so
// for a fixed seed/flags the full distribution -- not just the mean -- is
// reproducible bit-for-bit across the sequential, batched, parallel, and
// pipelined run modes. That is what lets tools/check_bench.py gate
// p50/p99/p999 exactly, where wall-clock percentiles could only ever be
// warn-only.
//
// Bucketing follows HdrHistogram with kPrecisionBits sub-bucket bits: values
// below 2^kPrecisionBits land in exact unit buckets; above that, each
// power-of-two doubling is split into 2^(kPrecisionBits-1) linear
// sub-buckets, bounding the relative quantization error of any reported
// percentile by 2^-(kPrecisionBits-1) (~3.1% at the default 6 bits). Counts
// are plain uint64 adds, so Merge() is element-wise addition -- associative
// and commutative -- which is why per-shard histograms folded in shard order
// equal one histogram fed by the sequential replay, regardless of how the
// threaded run interleaved shards in wall time.

#ifndef FLASHDB_WORKLOAD_LATENCY_HISTOGRAM_H_
#define FLASHDB_WORKLOAD_LATENCY_HISTOGRAM_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

namespace flashdb::workload {

/// Mergeable log-linear histogram of non-negative virtual-time samples.
///
/// Header-only and allocation-light: the counts array grows lazily to the
/// highest bucket touched, so an idle histogram costs a few pointers and a
/// typical run (samples below ~2^20 us) stays under a kilobyte.
class LatencyHistogram {
 public:
  /// Sub-bucket precision: values < 64 are exact; larger values quantize to
  /// one of 32 linear sub-buckets per power-of-two range (<= 3.2% error).
  static constexpr uint32_t kPrecisionBits = 6;
  static constexpr uint32_t kUnitBuckets = 1u << kPrecisionBits;       // 64
  static constexpr uint32_t kSubBuckets = 1u << (kPrecisionBits - 1);  // 32

  /// Bucket index of `value`. Total index space for uint64 values is
  /// kUnitBuckets + 58*kSubBuckets = 1920 buckets.
  static constexpr uint32_t BucketIndex(uint64_t value) {
    if (value < kUnitBuckets) return static_cast<uint32_t>(value);
    // Position of the highest set bit; >= kPrecisionBits here.
    const uint32_t msb = 63u - static_cast<uint32_t>(std::countl_zero(value));
    // Shift that maps [2^msb, 2^(msb+1)) onto [kSubBuckets, 2*kSubBuckets).
    const uint32_t shift = msb - (kPrecisionBits - 1);
    const uint32_t sub = static_cast<uint32_t>(value >> shift);
    return kUnitBuckets + (shift - 1) * kSubBuckets + (sub - kSubBuckets);
  }

  /// Smallest value mapping to bucket `index` (the value percentiles report).
  static constexpr uint64_t BucketLowerBound(uint32_t index) {
    if (index < kUnitBuckets) return index;
    const uint32_t d = (index - kUnitBuckets) / kSubBuckets;
    const uint32_t r = (index - kUnitBuckets) % kSubBuckets;
    return static_cast<uint64_t>(kSubBuckets + r) << (d + 1);
  }

  void Record(uint64_t value_us) {
    const uint32_t idx = BucketIndex(value_us);
    if (idx >= counts_.size()) counts_.resize(idx + 1, 0);
    ++counts_[idx];
    ++count_;
    sum_ += value_us;
    min_ = std::min(min_, value_us);
    max_ = std::max(max_, value_us);
  }

  /// Element-wise addition of counters; associative and commutative, so the
  /// fold order over shards never changes the result.
  void Merge(const LatencyHistogram& other) {
    if (other.counts_.size() > counts_.size()) {
      counts_.resize(other.counts_.size(), 0);
    }
    for (size_t i = 0; i < other.counts_.size(); ++i) {
      counts_[i] += other.counts_[i];
    }
    count_ += other.count_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }

  /// Value at percentile `p` in (0, 100]: the lower bound of the first
  /// bucket whose cumulative count reaches ceil(p% of samples), clamped to
  /// the exact observed [min, max]. 0 when empty.
  uint64_t ValueAtPercentile(double p) const {
    if (count_ == 0) return 0;
    if (p >= 100.0) return max_;  // the maximum is tracked exactly
    const double want = p / 100.0 * static_cast<double>(count_);
    uint64_t target = static_cast<uint64_t>(want);
    if (static_cast<double>(target) < want) ++target;
    target = std::max<uint64_t>(target, 1);
    target = std::min(target, count_);
    uint64_t cumulative = 0;
    for (size_t i = 0; i < counts_.size(); ++i) {
      cumulative += counts_[i];
      if (cumulative >= target) {
        return std::clamp(BucketLowerBound(static_cast<uint32_t>(i)), min_,
                          max_);
      }
    }
    return max_;  // Unreachable: cumulative reaches count_ by the last bucket.
  }

  uint64_t p50() const { return ValueAtPercentile(50.0); }
  uint64_t p99() const { return ValueAtPercentile(99.0); }
  uint64_t p999() const { return ValueAtPercentile(99.9); }

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return max_; }
  double mean() const {
    return count_ == 0
               ? 0.0
               : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  void Reset() {
    counts_.clear();
    count_ = 0;
    sum_ = 0;
    min_ = std::numeric_limits<uint64_t>::max();
    max_ = 0;
  }

  /// Exact distribution equality (trailing empty buckets ignored) -- the
  /// determinism checks compare whole histograms, not just percentiles.
  friend bool operator==(const LatencyHistogram& a, const LatencyHistogram& b) {
    if (a.count_ != b.count_ || a.sum_ != b.sum_ || a.max_ != b.max_) {
      return false;
    }
    if (a.count_ != 0 && a.min_ != b.min_) return false;
    const size_t n = std::max(a.counts_.size(), b.counts_.size());
    for (size_t i = 0; i < n; ++i) {
      const uint64_t av = i < a.counts_.size() ? a.counts_[i] : 0;
      const uint64_t bv = i < b.counts_.size() ? b.counts_[i] : 0;
      if (av != bv) return false;
    }
    return true;
  }

 private:
  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = std::numeric_limits<uint64_t>::max();
  uint64_t max_ = 0;
};

}  // namespace flashdb::workload

#endif  // FLASHDB_WORKLOAD_LATENCY_HISTOGRAM_H_
