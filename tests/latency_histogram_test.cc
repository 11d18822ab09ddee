// Unit tests for the log-linear latency histogram: bucket boundaries, merge
// associativity and percentile monotonicity. That the recorded distribution
// is identical across the driver's run modes, and that recording it never
// moves virtual time, is execution_engine_test's to show.

#include "workload/latency_histogram.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "workload/run_accounting.h"

namespace flashdb::workload {
namespace {

TEST(LatencyHistogramTest, UnitBucketsAreExact) {
  // Values below 2^kPrecisionBits each get their own bucket.
  for (uint64_t v = 0; v < LatencyHistogram::kUnitBuckets; ++v) {
    EXPECT_EQ(LatencyHistogram::BucketIndex(v), v);
    EXPECT_EQ(LatencyHistogram::BucketLowerBound(static_cast<uint32_t>(v)), v);
  }
}

TEST(LatencyHistogramTest, BucketBoundariesRoundTrip) {
  // Every bucket's lower bound maps back to that bucket, and the value one
  // below it maps to the previous bucket (no gaps, no overlaps).
  for (uint32_t idx = 1; idx < 1920; ++idx) {
    const uint64_t lb = LatencyHistogram::BucketLowerBound(idx);
    EXPECT_EQ(LatencyHistogram::BucketIndex(lb), idx) << "lb " << lb;
    EXPECT_EQ(LatencyHistogram::BucketIndex(lb - 1), idx - 1) << "lb " << lb;
  }
}

TEST(LatencyHistogramTest, QuantizationErrorIsBounded) {
  // Any value quantizes to a bucket lower bound within 2^-(P-1) relative
  // error (3.2% at 6 precision bits).
  Random rng(7);
  for (int i = 0; i < 10000; ++i) {
    const uint64_t v = rng.Uniform(1ULL << 40) + 1;
    const uint64_t lb =
        LatencyHistogram::BucketLowerBound(LatencyHistogram::BucketIndex(v));
    EXPECT_LE(lb, v);
    EXPECT_LT(static_cast<double>(v - lb),
              static_cast<double>(v) / LatencyHistogram::kSubBuckets + 1.0);
  }
}

TEST(LatencyHistogramTest, PercentilesClampToObservedRange) {
  LatencyHistogram h;
  h.Record(1000);
  // A single sample: every percentile is that sample, not a bucket bound.
  EXPECT_EQ(h.p50(), 1000u);
  EXPECT_EQ(h.p999(), 1000u);
  EXPECT_EQ(h.min(), 1000u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_DOUBLE_EQ(h.mean(), 1000.0);
}

TEST(LatencyHistogramTest, EmptyHistogramReportsZeros) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.p50(), 0u);
  EXPECT_EQ(h.p999(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(LatencyHistogramTest, PercentilesAreMonotone) {
  LatencyHistogram h;
  Random rng(11);
  for (int i = 0; i < 5000; ++i) h.Record(rng.Uniform(1 << 20));
  uint64_t prev = 0;
  for (double p = 1.0; p <= 100.0; p += 0.5) {
    const uint64_t v = h.ValueAtPercentile(p);
    EXPECT_GE(v, prev) << "p" << p;
    prev = v;
  }
  EXPECT_EQ(h.ValueAtPercentile(100.0), h.max());
}

TEST(LatencyHistogramTest, MergeIsAssociativeAndCommutative) {
  std::vector<LatencyHistogram> parts(3);
  Random rng(13);
  for (int p = 0; p < 3; ++p) {
    for (int i = 0; i < 1000; ++i) parts[p].Record(rng.Uniform(1 << 16));
  }
  // (a + b) + c
  LatencyHistogram left = parts[0];
  left.Merge(parts[1]);
  left.Merge(parts[2]);
  // c + (b + a)
  LatencyHistogram inner = parts[1];
  inner.Merge(parts[0]);
  LatencyHistogram right = parts[2];
  right.Merge(inner);
  EXPECT_TRUE(left == right);
  EXPECT_EQ(left.p999(), right.p999());
  // Merging an empty histogram is the identity.
  LatencyHistogram empty;
  LatencyHistogram copy = left;
  copy.Merge(empty);
  EXPECT_TRUE(copy == left);
}

TEST(LatencyHistogramTest, WorstOpOfferKeepsStrictMaximum) {
  WorstOpSample worst;
  EXPECT_FALSE(worst.valid);
  WorstOpSample a{.total_us = 100, .pid = 1, .valid = true};
  WorstOpSample b{.total_us = 100, .pid = 2, .valid = true};
  WorstOpSample c{.total_us = 200, .pid = 3, .valid = true};
  worst.Offer(a);
  EXPECT_EQ(worst.pid, 1u);
  worst.Offer(b);  // tie: first sample wins
  EXPECT_EQ(worst.pid, 1u);
  worst.Offer(c);
  EXPECT_EQ(worst.pid, 3u);
  worst.Offer(WorstOpSample{});  // invalid sample never replaces
  EXPECT_EQ(worst.pid, 3u);
}

}  // namespace
}  // namespace flashdb::workload
