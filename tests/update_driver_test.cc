// Unit tests for the synthetic workload driver (Section 5.1 semantics).

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "ftl/shard_executor.h"
#include "ftl/sharded_store.h"
#include "methods/method_factory.h"
#include "pdl/pdl_store.h"
#include "workload/update_driver.h"

namespace flashdb::workload {
namespace {

using flash::FlashConfig;
using flash::FlashDevice;
using flash::OpCategory;

std::unique_ptr<PageStore> MakeStore(FlashDevice* dev, const char* name) {
  auto spec = methods::ParseMethodSpec(name);
  EXPECT_TRUE(spec.ok());
  return methods::CreateStore(dev, *spec);
}

TEST(UpdateDriverTest, VerifiedUpdateStream) {
  FlashDevice dev(FlashConfig::Small(8));
  auto store = MakeStore(&dev, "PDL(256B)");
  WorkloadParams params;
  params.verify = true;
  params.pct_changed_by_one_op = 2.0;
  UpdateDriver driver(store.get(), params);
  ASSERT_TRUE(driver.LoadDatabase(200).ok());
  RunStats stats;
  ASSERT_TRUE(driver.Run(500, &stats).ok());
  EXPECT_EQ(stats.operations, 500u);
  EXPECT_EQ(stats.update_ops, 500u);  // pct_update_ops defaults to 100
}

TEST(UpdateDriverTest, ReadOnlyMixDoesNoWrites) {
  FlashDevice dev(FlashConfig::Small(8));
  auto store = MakeStore(&dev, "OPU");
  WorkloadParams params;
  params.pct_update_ops = 0.0;
  params.verify = true;
  UpdateDriver driver(store.get(), params);
  ASSERT_TRUE(driver.LoadDatabase(200).ok());
  RunStats stats;
  ASSERT_TRUE(driver.Run(300, &stats).ok());
  EXPECT_EQ(stats.update_ops, 0u);
  EXPECT_EQ(stats.device.of(OpCategory::kWriteStep).total_ops(), 0u);
  // One read per op for OPU.
  EXPECT_EQ(stats.device.of(OpCategory::kReadStep).reads, 300u);
}

TEST(UpdateDriverTest, MixedRatioApproximatelyHolds) {
  FlashDevice dev(FlashConfig::Small(8));
  auto store = MakeStore(&dev, "OPU");
  WorkloadParams params;
  params.pct_update_ops = 30.0;
  UpdateDriver driver(store.get(), params);
  ASSERT_TRUE(driver.LoadDatabase(100).ok());
  RunStats stats;
  ASSERT_TRUE(driver.Run(2000, &stats).ok());
  EXPECT_NEAR(static_cast<double>(stats.update_ops) / 2000.0, 0.30, 0.05);
}

TEST(UpdateDriverTest, NUpdatesTillWriteAppliesMultipleCommands) {
  FlashDevice dev(FlashConfig::Small(8));
  auto store = MakeStore(&dev, "IPL(18KB)");
  WorkloadParams params;
  params.updates_till_write = 5;
  params.verify = true;
  UpdateDriver driver(store.get(), params);
  ASSERT_TRUE(driver.LoadDatabase(100).ok());
  RunStats stats;
  ASSERT_TRUE(driver.Run(100, &stats).ok());
  // The tightly-coupled IPL saw every individual update command: with
  // %changed=2 (41 B logs) and N=5 the logs overflow one 128 B buffer,
  // so > 1 slot write per operation on average.
  EXPECT_GT(stats.PerOp(stats.device.of(OpCategory::kWriteStep).writes), 1.0);
}

TEST(UpdateDriverTest, WarmupReachesEraseTarget) {
  FlashDevice dev(FlashConfig::Small(8));
  auto store = MakeStore(&dev, "OPU");
  WorkloadParams params;
  UpdateDriver driver(store.get(), params);
  ASSERT_TRUE(driver.LoadDatabase(dev.geometry().total_pages() / 2).ok());
  ASSERT_TRUE(driver.Warmup(1.0, 1000000).ok());
  EXPECT_GE(dev.stats().total.erases, dev.geometry().num_blocks);
}

TEST(UpdateDriverTest, WarmupHonorsOpCap) {
  FlashDevice dev(FlashConfig::Small(8));
  auto store = MakeStore(&dev, "PDL(256B)");
  WorkloadParams params;
  UpdateDriver driver(store.get(), params);
  ASSERT_TRUE(driver.LoadDatabase(100).ok());
  ASSERT_TRUE(driver.Warmup(1000.0, 50).ok());  // cap dominates
  // 50 ops cannot trigger 8000 erases; the cap must have stopped it.
  EXPECT_LT(dev.stats().total.erases, 8000u);
}

TEST(UpdateDriverTest, StatsAccumulateAcrossRuns) {
  FlashDevice dev(FlashConfig::Small(8));
  auto store = MakeStore(&dev, "OPU");
  WorkloadParams params;
  UpdateDriver driver(store.get(), params);
  ASSERT_TRUE(driver.LoadDatabase(100).ok());
  RunStats stats;
  ASSERT_TRUE(driver.Run(100, &stats).ok());
  ASSERT_TRUE(driver.Run(100, &stats).ok());
  EXPECT_EQ(stats.operations, 200u);
  EXPECT_EQ(stats.device.of(OpCategory::kReadStep).reads, 200u);
}

TEST(UpdateDriverTest, PerOpMetricsAreConsistent) {
  FlashDevice dev(FlashConfig::Small(8));
  auto store = MakeStore(&dev, "OPU");
  WorkloadParams params;
  UpdateDriver driver(store.get(), params);
  ASSERT_TRUE(driver.LoadDatabase(100).ok());
  RunStats stats;
  ASSERT_TRUE(driver.Run(200, &stats).ok());
  // OPU: 1 read per op (110us), 2 writes per op (2020us) + occasional GC.
  EXPECT_NEAR(stats.read_us_per_op(), 110.0, 1.0);
  EXPECT_GE(stats.write_us_per_op(), 2020.0 - 1.0);
  EXPECT_NEAR(stats.overall_us_per_op(),
              stats.read_us_per_op() + stats.write_us_per_op(), 0.001);
}

TEST(UpdateDriverTest, PctChangedControlsDifferentialSize) {
  FlashDevice dev(FlashConfig::Small(8));
  auto store = MakeStore(&dev, "PDL(2048B)");
  auto* pdl = static_cast<pdl::PdlStore*>(store.get());
  WorkloadParams params;
  params.pct_changed_by_one_op = 10.0;
  UpdateDriver driver(store.get(), params);
  ASSERT_TRUE(driver.LoadDatabase(100).ok());
  RunStats stats;
  ASSERT_TRUE(driver.Run(50, &stats).ok());
  // ~10% of 2048 = 205 payload bytes per diff, plus headers.
  const double avg_diff =
      static_cast<double>(pdl->counters().diff_bytes_written) /
      static_cast<double>(pdl->counters().diffs_buffered +
                          pdl->counters().new_base_pages);
  EXPECT_GT(avg_diff, 180.0);
  EXPECT_LT(avg_diff, 280.0);
}

TEST(UpdateDriverScheduleTest, MakeScheduleMatchesRunDistributions) {
  FlashDevice dev(FlashConfig::Small(8));
  auto store = MakeStore(&dev, "OPU");
  WorkloadParams params;
  params.pct_update_ops = 40.0;
  params.updates_till_write = 3;
  UpdateDriver driver(store.get(), params);
  ASSERT_TRUE(driver.LoadDatabase(100).ok());
  Schedule schedule = driver.MakeSchedule(2000);
  ASSERT_EQ(schedule.size(), 2000u);
  uint64_t updates = 0;
  for (const PlannedOp& op : schedule) {
    EXPECT_LT(op.pid, 100u);
    if (op.is_update) {
      ++updates;
      EXPECT_EQ(op.updates.size(), 3u);
      for (const PlannedUpdate& u : op.updates) {
        EXPECT_FALSE(u.data.empty());
        EXPECT_LE(u.offset + u.data.size(), dev.geometry().data_size);
      }
    } else {
      EXPECT_TRUE(op.updates.empty());
    }
  }
  EXPECT_NEAR(static_cast<double>(updates) / 2000.0, 0.40, 0.05);
}

TEST(UpdateDriverPipelinedTest, VerifiedInlineWindowsWithReadAfterWrite) {
  // Small database + large windows force same-pid repeats inside a window,
  // exercising the queued-image read path under verification.
  FlashDevice dev(FlashConfig::Small(8));
  auto store = MakeStore(&dev, "PDL(256B)");
  WorkloadParams params;
  params.verify = true;
  params.pct_update_ops = 80.0;
  UpdateDriver driver(store.get(), params);
  ASSERT_TRUE(driver.LoadDatabase(20).ok());
  Schedule schedule = driver.MakeSchedule(600);
  RunStats stats;
  ASSERT_TRUE(driver.RunPipelined(schedule, 32, 1, nullptr, &stats).ok());
  EXPECT_EQ(stats.operations, 600u);
  EXPECT_GT(stats.update_ops, 0u);
}

TEST(UpdateDriverPipelinedTest, HotShardSkewLandsOnShardZero) {
  auto spec = methods::ParseMethodSpec("OPU");
  ASSERT_TRUE(spec.ok());
  constexpr uint32_t kShards = 4;
  auto store =
      methods::CreateShardedStore(FlashConfig::Small(8), kShards, *spec);
  WorkloadParams params;
  params.hot_shard_pct = 60.0;
  UpdateDriver driver(store.get(), params);
  ASSERT_TRUE(driver.LoadDatabase(160).ok());
  Schedule schedule = driver.MakeSchedule(4000);
  uint64_t on_hot = 0;
  for (const PlannedOp& op : schedule) {
    ASSERT_LT(op.pid, 160u);
    if (store->shard_of(op.pid) == 0) ++on_hot;
  }
  // 60% pinned + 1/4 of the uniform remainder = 70% expected on shard 0.
  EXPECT_NEAR(static_cast<double>(on_hot) / 4000.0, 0.70, 0.04);

  // Executing the skewed schedule must make the hotspot observable through
  // the per-shard clocks and device counters: shard 0's clock and write
  // count pull ahead of every sibling, and the clock spread is exactly
  // shard_lag_us.
  RunStats stats;
  ASSERT_TRUE(driver.RunPipelined(schedule, 8, 1, nullptr, &stats).ok());
  const std::vector<uint64_t> clocks = store->shard_clocks();
  ASSERT_EQ(clocks.size(), kShards);
  const auto writes = [&](uint32_t s) {
    return store->shard_device(s)->stats().total.writes;
  };
  uint64_t min_clock = clocks[0];
  uint64_t max_clock = clocks[0];
  for (uint32_t s = 1; s < kShards; ++s) {
    EXPECT_GT(clocks[0], clocks[s]) << "shard " << s;
    EXPECT_GT(writes(0), writes(s)) << "shard " << s;
    min_clock = std::min(min_clock, clocks[s]);
    max_clock = std::max(max_clock, clocks[s]);
  }
  EXPECT_EQ(store->shard_lag_us(), max_clock - min_clock);
}

// The clock rule: a run's elapsed time is the largest per-chip clock
// advance, not the movement of the largest clock. Every measured op lands on
// the chip whose clock starts (and stays) behind, so the largest clock never
// moves -- yet the run took exactly that chip's advance.
TEST(UpdateDriverPipelinedTest, ElapsedIsTheLargestChipAdvance) {
  auto spec = methods::ParseMethodSpec("OPU");
  ASSERT_TRUE(spec.ok());
  auto store = methods::CreateShardedStore(FlashConfig::Small(8), 2, *spec);
  UpdateDriver driver(store.get(), WorkloadParams{});
  ASSERT_TRUE(driver.LoadDatabase(40).ok());
  // Identity routing: even pids live on shard 0, odd pids on shard 1.
  PlannedOp read_pid0;
  read_pid0.is_update = false;
  Schedule lead(100, read_pid0);
  RunStats lead_stats;
  ASSERT_TRUE(driver.RunPipelined(lead, 1, 1, nullptr, &lead_stats).ok());
  Schedule behind(5);
  for (size_t i = 0; i < behind.size(); ++i) {
    behind[i].pid = static_cast<PageId>(2 * i + 1);
    behind[i].updates = {PlannedUpdate{0, ByteBuffer(8, 0xAB)}};
  }
  const std::vector<uint64_t> before = store->shard_clocks();
  ASSERT_GT(before[0], before[1]);
  RunStats stats;
  ASSERT_TRUE(driver.RunPipelined(behind, 4, 1, nullptr, &stats).ok());
  const std::vector<uint64_t> after = store->shard_clocks();
  ASSERT_EQ(after[0], before[0]);
  ASSERT_LT(after[1], after[0]);  // the largest clock never moved
  const uint64_t advance = after[1] - before[1];
  EXPECT_GT(advance, 0u);
  EXPECT_EQ(stats.elapsed_vt_us, advance);
  EXPECT_EQ(stats.total_work_us, advance);
}

TEST(UpdateDriverPipelinedTest, ZeroSkewKeepsUniformDrawIdentical) {
  // hot_shard_pct = 0 must not change the RNG stream: schedules drawn with
  // and without the field present are bit-identical.
  auto spec = methods::ParseMethodSpec("OPU");
  ASSERT_TRUE(spec.ok());
  auto store_a =
      methods::CreateShardedStore(FlashConfig::Small(8), 4, *spec);
  auto store_b =
      methods::CreateShardedStore(FlashConfig::Small(8), 4, *spec);
  WorkloadParams params;  // hot_shard_pct defaults to 0
  UpdateDriver driver_a(store_a.get(), params);
  UpdateDriver driver_b(store_b.get(), params);
  ASSERT_TRUE(driver_a.LoadDatabase(120).ok());
  ASSERT_TRUE(driver_b.LoadDatabase(120).ok());
  Schedule sa = driver_a.MakeSchedule(300);
  Schedule sb = driver_b.MakeSchedule(300);
  ASSERT_EQ(sa.size(), sb.size());
  for (size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].pid, sb[i].pid) << "op " << i;
  }
}

TEST(UpdateDriverPipelinedTest, RejectsBadArguments) {
  auto spec = methods::ParseMethodSpec("OPU");
  ASSERT_TRUE(spec.ok());
  auto sharded =
      methods::CreateShardedStore(FlashConfig::Small(8), 4, *spec);
  WorkloadParams params;
  UpdateDriver driver(sharded.get(), params);
  ASSERT_TRUE(driver.LoadDatabase(50).ok());
  Schedule schedule = driver.MakeSchedule(10);
  ftl::ShardExecutor executor(4);
  RunStats stats;
  EXPECT_TRUE(driver.RunPipelined(schedule, 0, 2, &executor, &stats)
                  .IsInvalidArgument());  // batch_size 0
  EXPECT_TRUE(driver.RunPipelined(schedule, 4, 0, &executor, &stats)
                  .IsInvalidArgument());  // max_inflight 0
  EXPECT_TRUE(driver.RunPipelined(schedule, 4, 0, nullptr, &stats)
                  .IsInvalidArgument());  // max_inflight 0, inline too
  ftl::ShardExecutor short_executor(2);
  EXPECT_TRUE(driver.RunPipelined(schedule, 4, 2, &short_executor, &stats)
                  .IsInvalidArgument());  // 2 workers < 4 shards
  // A null executor is the inline engine, not an error.
  EXPECT_TRUE(driver.RunPipelined(schedule, 4, 2, nullptr, &stats).ok());

  // A flat store pipelines on one worker, or inline.
  FlashDevice dev(FlashConfig::Small(8));
  auto flat = MakeStore(&dev, "OPU");
  UpdateDriver flat_driver(flat.get(), params);
  ASSERT_TRUE(flat_driver.LoadDatabase(50).ok());
  Schedule s2 = flat_driver.MakeSchedule(10);
  EXPECT_TRUE(flat_driver.RunPipelined(s2, 4, 2, nullptr, &stats).ok());
  EXPECT_TRUE(flat_driver.RunPipelined(s2, 4, 2, &executor, &stats).ok());
}

}  // namespace
}  // namespace flashdb::workload
