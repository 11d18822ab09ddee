// Tests of the deterministic event-tracing layer (obs::TraceRecorder).
//
// The contracts under test:
//   1. Ring overflow drops the *oldest* events, counts them, and never
//      reorders the survivors.
//   2. Merging sorts by (ts, shard, seq) and CanonicalBytes excludes
//      wall-domain categories.
//   3. Trace determinism: inline and threaded RunPipelined over the same
//      schedule produce byte-identical canonical streams; concurrent TPC-C
//      Serve equals its single-threaded Replay at 1, 2, and 4 shards.
//   4. Recording changes nothing: a traced run's clocks, stats, and latency
//      histogram are bit-identical to an untraced run's (null-sink
//      contract).
//   5. Chrome trace export is well-formed enough to parse as a smoke check.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "ftl/shard_executor.h"
#include "ftl/sharded_store.h"
#include "methods/method_factory.h"
#include "obs/metrics_import.h"
#include "obs/metrics_registry.h"
#include "obs/trace_recorder.h"
#include "workload/tpcc_driver.h"
#include "workload/update_driver.h"

namespace flashdb::obs {
namespace {

using flash::FlashConfig;
using flash::FlashDevice;

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

TEST(TraceRecorderTest, CanonicalBytesExcludesWallLane) {
  TraceRecorder rec(1);
  rec.shard(0)->Emit(TraceCat::kFlashRead, 10, 5);
  const std::string without_wall = rec.CanonicalBytes();
  rec.wall_lane()->Emit(TraceCat::kCreditWait, 1, 2, 0, 2000);
  // Wall-domain events (nondeterministic timing) must not move the gates.
  EXPECT_EQ(rec.CanonicalBytes(), without_wall);
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
// Workload-level determinism.

struct Rig {
  std::unique_ptr<ftl::ShardedStore> store;
  std::unique_ptr<workload::UpdateDriver> driver;
  std::unique_ptr<TraceRecorder> recorder;
};

/// A warmed 2-shard rig with tracing attached to every chip; identical
/// arguments yield identical state.
Rig MakeRig(bool traced) {
  auto spec = methods::ParseMethodSpec("PDL(256B)");
  EXPECT_TRUE(spec.ok());
  Rig rig;
  const uint32_t shards = 2;
  rig.store =
      methods::CreateShardedStore(FlashConfig::Small(16), shards, *spec);
  workload::WorkloadParams params;
  params.record_latency = true;
  params.pct_changed_by_one_op = 2.0;
  rig.driver =
      std::make_unique<workload::UpdateDriver>(rig.store.get(), params);
  EXPECT_TRUE(rig.driver->LoadDatabase(400).ok());
  EXPECT_TRUE(rig.driver->Warmup(1.0, 4000).ok());
  if (traced) {
    rig.recorder = std::make_unique<TraceRecorder>(shards);
    for (uint32_t i = 0; i < shards; ++i) {
      rig.store->shard_device(i)->set_trace(rig.recorder->shard(i));
    }
    rig.driver->set_wall_trace(rig.recorder->wall_lane());
  }
  return rig;
}

TEST(TraceDeterminismTest, InlineAndThreadedProduceIdenticalStreams) {
  Rig inline_rig = MakeRig(true);
  Rig threaded = MakeRig(true);
  // One schedule, two identically prepared rigs: both execute the very same
  // operations.
  const workload::Schedule schedule = inline_rig.driver->MakeSchedule(600);

  ftl::ShardExecutor executor(2);
  workload::RunStats s1, s2;
  ASSERT_TRUE(
      inline_rig.driver->RunPipelined(schedule, 8, 4, nullptr, &s1).ok());
  ASSERT_TRUE(
      threaded.driver->RunPipelined(schedule, 8, 4, &executor, &s2).ok());

  const std::string canon = inline_rig.recorder->CanonicalBytes();
  EXPECT_GT(inline_rig.recorder->total_emitted(), 0u);
  EXPECT_EQ(threaded.recorder->CanonicalBytes(), canon);
  // The streams carry op spans: one per measured operation.
  uint64_t op_spans = 0;
  for (const TraceEvent& e : inline_rig.recorder->Merged(true)) {
    if (e.cat == TraceCat::kOpSpan) ++op_spans;
  }
  EXPECT_EQ(op_spans, 600u);
}

TEST(TraceDeterminismTest, RecordingChangesNothing) {
  Rig traced = MakeRig(true);
  Rig untraced = MakeRig(false);
  const workload::Schedule schedule = traced.driver->MakeSchedule(500);
  workload::RunStats with, without;
  ASSERT_TRUE(traced.driver->RunPipelined(schedule, 8, 1, nullptr, &with).ok());
  ASSERT_TRUE(
      untraced.driver->RunPipelined(schedule, 8, 1, nullptr, &without).ok());
  // The null-sink contract: attaching a recorder must not move a single
  // virtual-time column.
  EXPECT_EQ(traced.store->shard_clocks(), untraced.store->shard_clocks());
  EXPECT_TRUE(with.latency == without.latency);
  EXPECT_TRUE(with.worst_op == without.worst_op);
  EXPECT_TRUE(with.device == without.device);
  EXPECT_GT(traced.recorder->total_emitted(), 0u);
}

// ---------------------------------------------------------------------------
// TPC-C Serve vs Replay.

constexpr uint32_t kPageSize = 2048;

workload::TpccScale SmallScale() {
  workload::TpccScale s;
  s.warehouses = 4;
  s.districts_per_warehouse = 2;
  s.customers_per_district = 20;
  s.items = 100;
  s.init_orders_per_district = 6;
  s.transaction_headroom = 800;
  return s;
}

struct TpccRig {
  std::unique_ptr<ftl::ShardedStore> store;
  std::unique_ptr<workload::TpccDriver> driver;
  std::unique_ptr<TraceRecorder> recorder;
};

TpccRig MakeTpccRig(uint32_t shards, const workload::TpccDriverOptions& opts) {
  const uint32_t pages_per_shard =
      workload::TpccDriver::PagesPerShard(opts.scale, kPageSize, shards);
  const uint32_t blocks_per_shard = (pages_per_shard * 2) / 64 + 8;
  auto spec = methods::ParseMethodSpec("PDL(256B)");
  EXPECT_TRUE(spec.ok());
  TpccRig rig;
  rig.store = methods::CreateShardedStore(FlashConfig::Small(blocks_per_shard),
                                          shards, *spec);
  EXPECT_TRUE(
      rig.store->Format(shards * pages_per_shard, nullptr, nullptr).ok());
  rig.driver = std::make_unique<workload::TpccDriver>(rig.store.get(), opts);
  EXPECT_TRUE(rig.driver->Load(nullptr).ok());
  rig.recorder = std::make_unique<TraceRecorder>(shards);
  for (uint32_t i = 0; i < shards; ++i) {
    rig.store->shard_device(i)->set_trace(rig.recorder->shard(i));
  }
  rig.driver->set_wall_trace(rig.recorder->wall_lane());
  return rig;
}

TEST(TraceDeterminismTest, TpccServeMatchesReplayAcrossShardCounts) {
  for (const uint32_t shards : {1u, 2u, 4u}) {
    workload::TpccDriverOptions opts;
    opts.scale = SmallScale();
    opts.num_clients = 4;
    opts.max_inflight_per_shard = 3;
    TpccRig rig = MakeTpccRig(shards, opts);
    ftl::ShardExecutor executor(shards);
    workload::TpccRunStats stats;
    ASSERT_TRUE(rig.driver->Serve(150, &executor, &stats).ok())
        << shards << " shards";

    TpccRig ref = MakeTpccRig(shards, opts);
    workload::TpccRunStats ref_stats;
    ASSERT_TRUE(
        ref.driver->Replay(rig.driver->commit_log(), &ref_stats).ok());
    // The concurrent serve's deterministic stream must be byte-identical to
    // the single-threaded replay's -- transaction spans included.
    EXPECT_EQ(rig.recorder->CanonicalBytes(), ref.recorder->CanonicalBytes())
        << shards << " shards";
    EXPECT_GT(rig.recorder->total_emitted(), 0u);
    uint64_t txn_spans = 0;
    for (const TraceEvent& e : rig.recorder->Merged(true)) {
      if (e.cat == TraceCat::kTxnSpan) ++txn_spans;
    }
    EXPECT_EQ(txn_spans, 150u) << shards << " shards";
  }
}

// ---------------------------------------------------------------------------
// Metrics registry.

TEST(MetricsRegistryTest, RegistersAndSnapshotsEpochs) {
  MetricsRegistry reg;
  reg.Inc("ops", 5);
  reg.Set("gauge", 2.5);
  reg.SnapshotEpoch(0);
  reg.Inc("ops", 5);
  reg.Set("gauge", 7.5);
  reg.SnapshotEpoch(1);
  EXPECT_EQ(reg.Get("ops"), 10.0);
  EXPECT_EQ(reg.kind("ops"), MetricsRegistry::Kind::kCounter);
  EXPECT_EQ(reg.kind("gauge"), MetricsRegistry::Kind::kGauge);
  EXPECT_EQ(reg.num_epochs(), 2u);
  const std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"ops\":10"), std::string::npos);
  EXPECT_NE(json.find("\"epochs\""), std::string::npos);
  EXPECT_NE(json.find("\"counter\""), std::string::npos);
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
