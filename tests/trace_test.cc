// Tests of the deterministic event-tracing layer (obs::TraceRecorder).
//
// The contracts under test:
//   1. Ring overflow drops the *oldest* events, counts them, and never
//      reorders the survivors.
//   2. Merging sorts by (ts, shard, seq), and the canonical stream excludes
//      wall-domain categories.
//   3. Chrome trace export is well-formed enough to parse as a smoke check.
//
// Trace determinism across run modes rides in the replay tests
// (tests/replay_oracle.h): execution_engine_test holds inline, threaded and
// Run() streams to each other and recording on to recording off, and
// tpcc_driver_test holds TPC-C Serve to the Replay of its commit log.

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics_import.h"
#include "obs/metrics_registry.h"
#include "obs/trace_recorder.h"
#include "workload/update_driver.h"

namespace flashdb::obs {
namespace {

TEST(TraceShardTest, RingKeepsNewestAndCountsDrops) {
  TraceShard lane(/*shard=*/0, /*capacity=*/8);
  for (uint64_t i = 0; i < 20; ++i) {
    lane.Emit(TraceCat::kFlashRead, /*ts_us=*/100 + i, /*dur_us=*/1, i);
  }
  EXPECT_EQ(lane.size(), 8u);
  EXPECT_EQ(lane.dropped(), 12u);
  EXPECT_EQ(lane.emitted(), 20u);
  const std::vector<TraceEvent> events = lane.Snapshot();
  ASSERT_EQ(events.size(), 8u);
  // Oldest-dropped: the survivors are exactly the last 8, still in order.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, 12 + i);
    EXPECT_EQ(events[i].a0, 12 + i);
  }
}

TEST(TraceRecorderTest, MergeOrdersByTimeShardSeq) {
  TraceRecorder rec(2);
  rec.shard(1)->Emit(TraceCat::kFlashRead, 50, 1);     // (50, s1, #0)
  rec.shard(0)->Emit(TraceCat::kFlashRead, 50, 1);     // (50, s0, #0)
  rec.shard(0)->Emit(TraceCat::kFlashProgram, 10, 1);  // (10, s0, #1)
  const std::vector<TraceEvent> merged = rec.Merged(/*canonical_only=*/true);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].ts_us, 10u);  // time first
  EXPECT_EQ(merged[1].shard, 0u);   // then shard breaks the ts=50 tie
  EXPECT_EQ(merged[2].shard, 1u);
}

TEST(TraceRecorderTest, CanonicalStreamExcludesWallLane) {
  TraceRecorder rec(1);
  rec.shard(0)->Emit(TraceCat::kFlashRead, 10, 5);
  rec.wall_lane()->Emit(TraceCat::kCreditWait, 1, 2, 0, 2000);
  // Wall-domain events (nondeterministic timing) must not move the gates.
  EXPECT_EQ(rec.Merged(/*canonical_only=*/false).size(), 2u);
  EXPECT_EQ(rec.Merged(/*canonical_only=*/true).size(), 1u);
}

TEST(TraceRecorderTest, ChromeExportParsesAsJsonSmoke) {
  TraceRecorder rec(1);
  rec.shard(0)->Emit(TraceCat::kFlashProgram, 10, 200, /*plane=*/0, 7);
  rec.shard(0)->Emit(TraceCat::kGcVictim, 300, 0, 3, 2);
  std::ostringstream os;
  rec.WriteChromeTrace(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"flash_program\""), std::string::npos);
  EXPECT_NE(json.find("\"gc_victim\""), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '\n');
}

// ---------------------------------------------------------------------------
// Metrics registry.

TEST(MetricsRegistryTest, RegistersAndSnapshotsEpochs) {
  MetricsRegistry reg;
  reg.Set("ops", 5);
  reg.Set("gauge", 2.5);
  reg.SnapshotEpoch();
  reg.ClearValues();
  reg.Set("ops", 10);
  reg.SnapshotEpoch();
  EXPECT_EQ(reg.Get("ops"), 10.0);
  EXPECT_EQ(reg.Get("gauge"), 0.0);  // cleared, and not set again
  ASSERT_EQ(reg.num_epochs(), 2u);
  EXPECT_EQ(reg.Epoch(0), (std::map<std::string, double>{{"gauge", 2.5},
                                                         {"ops", 5}}));
  // The registry is its epochs, each numbered by its index.
  EXPECT_EQ(reg.ToJson(),
            "{\"epochs\":[{\"epoch\":0,\"values\":{\"ops\":5,\"gauge\":2.5}},"
            "{\"epoch\":1,\"values\":{\"ops\":10,\"gauge\":0}}]}");
}

TEST(MetricsRegistryTest, ImportersProjectRunStats) {
  MetricsRegistry reg;
  workload::RunStats stats;
  stats.operations = 42;
  stats.update_ops = 40;
  auto& cats = stats.device.by_category;
  cats[static_cast<int>(flash::OpCategory::kReadStep)].reads = 10;
  cats[static_cast<int>(flash::OpCategory::kReadStep)].read_us = 1100;
  cats[static_cast<int>(flash::OpCategory::kGc)].erases = 2;
  cats[static_cast<int>(flash::OpCategory::kMigrate)].writes = 3;
  stats.device.total.erases = 2;
  stats.device.integrity.read_retries = 4;
  stats.device.integrity.retry_us = 500;
  ImportRunStats(&reg, "run", stats);
  EXPECT_EQ(reg.Get("run.operations"), 42.0);
  // Device counters keep their run.<category>.* and run.* key names.
  EXPECT_EQ(reg.Get("run.read_step.reads"), 10.0);
  EXPECT_EQ(reg.Get("run.read_step.read_us"), 1100.0);
  EXPECT_EQ(reg.Get("run.gc.erases"), 2.0);
  EXPECT_EQ(reg.Get("run.migrate.writes"), 3.0);
  EXPECT_EQ(reg.Get("run.erases"), 2.0);
  EXPECT_EQ(reg.Get("run.read_retries"), 4.0);
  EXPECT_EQ(reg.Get("run.retry_us"), 500.0);
  EXPECT_EQ(reg.Get("run.read_us_per_op"), 1100.0 / 42.0);
  // A category the run never touched exports no group.
  EXPECT_FALSE(reg.Has("run.write_step.writes"));
  EXPECT_FALSE(reg.Has("run.scrub.reads"));
  // Unregistered names read as 0 rather than faulting.
  EXPECT_EQ(reg.Get("run.no_such_metric"), 0.0);
}

}  // namespace
}  // namespace flashdb::obs
