// Unit tests for the log-linear latency histogram: bucket boundaries, merge
// associativity, percentile monotonicity, and determinism of the recorded
// distribution across the driver's run modes.

#include "workload/latency_histogram.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "ftl/shard_executor.h"
#include "methods/method_factory.h"
#include "workload/update_driver.h"

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

// The load-bearing property behind gating p50/p99/p999 in CI: the recorded
// distribution -- not just its summary -- is identical inline and threaded.
TEST(LatencyHistogramTest, DistributionIsIdenticalInlineAndThreaded) {
  auto spec = methods::ParseMethodSpec("PDL(256B)");
  ASSERT_TRUE(spec.ok());
  WorkloadParams params;
  params.record_latency = true;
  params.pct_update_ops = 80.0;

  auto run_mode = [&](bool threaded) -> RunStats {
    auto store =
        methods::CreateShardedStore(flash::FlashConfig::Small(8), 4, *spec);
    UpdateDriver driver(store.get(), params);
    EXPECT_TRUE(driver.LoadDatabase(200).ok());
    EXPECT_TRUE(driver.Warmup(1.0, 500).ok());
    Schedule schedule = driver.MakeSchedule(400);
    RunStats stats;
    ftl::ShardExecutor executor(4);
    EXPECT_TRUE(driver
                    .RunPipelined(schedule, 8, 4,
                                  threaded ? &executor : nullptr, &stats)
                    .ok());
    return stats;
  };

  const RunStats inline_stats = run_mode(false);
  const RunStats threaded = run_mode(true);
  ASSERT_EQ(inline_stats.latency.count(), 400u);
  EXPECT_GT(inline_stats.latency.max(), 0u);
  EXPECT_TRUE(inline_stats.latency == threaded.latency);
  EXPECT_TRUE(inline_stats.worst_op == threaded.worst_op);
  EXPECT_TRUE(inline_stats.worst_op.valid);
  // The worst op's cause breakdown never exceeds its total.
  EXPECT_LE(inline_stats.worst_op.read_us + inline_stats.worst_op.write_us +
                inline_stats.worst_op.gc_us + inline_stats.worst_op.meta_us,
            inline_stats.worst_op.total_us);
}

// Recording must not change what the benches gate: device state and virtual
// clocks with record_latency on equal those with it off.
TEST(LatencyHistogramTest, RecordingNeverChangesVirtualTime) {
  auto spec = methods::ParseMethodSpec("PDL(256B)");
  ASSERT_TRUE(spec.ok());
  auto run_once = [&](bool record) {
    WorkloadParams params;
    params.record_latency = record;
    auto store =
        methods::CreateShardedStore(flash::FlashConfig::Small(8), 2, *spec);
    UpdateDriver driver(store.get(), params);
    EXPECT_TRUE(driver.LoadDatabase(120).ok());
    EXPECT_TRUE(driver.Warmup(1.0, 400).ok());
    Schedule schedule = driver.MakeSchedule(300);
    RunStats stats;
    EXPECT_TRUE(driver.RunPipelined(schedule, 8, 1, nullptr, &stats).ok());
    return std::pair(store->shard_clocks(), stats.elapsed_vt_us);
  };
  const auto off = run_once(false);
  const auto on = run_once(true);
  EXPECT_EQ(off.first, on.first);
  EXPECT_EQ(off.second, on.second);
}

}  // namespace
}  // namespace flashdb::workload
