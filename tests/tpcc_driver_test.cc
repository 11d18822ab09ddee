// Differential tests of the concurrent TPC-C serving layer (TpccDriver).
//
// The determinism contract under test: a concurrent N-client run records its
// commit order, and a single-threaded replay of that order against an
// identically prepared twin (tests/replay_oracle.h) must reproduce
// bit-identical flash cells, virtual clocks, virtual stats (latency
// histograms and worst-op samples included) and canonical event streams --
// for both a loosely coupled method (OPU) and the paper's differential
// method (PDL) at 1, 2, and 4 shards.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "replay_oracle.h"

namespace flashdb::workload {
namespace {

TpccScale DriverScale() {
  TpccScale s;
  s.warehouses = 4;
  s.districts_per_warehouse = 4;
  s.customers_per_district = 40;
  s.items = 300;
  s.init_orders_per_district = 12;
  // Unscaled per shard: under full skew one shard can absorb every txn.
  s.transaction_headroom = 2000;
  return s;
}

struct Case {
  std::string method;
  uint32_t shards;
};

class TpccDriverDifferentialTest : public ::testing::TestWithParam<Case> {};

// The tentpole invariant: concurrent serving == sequential replay of the
// recorded commit order, bit for bit, one transaction span per transaction.
TEST_P(TpccDriverDifferentialTest, ConcurrentMatchesCommitOrderReplay) {
  const Case& c = GetParam();
  TpccDriverOptions opts;
  opts.scale = DriverScale();
  opts.num_clients = 4;
  opts.seed = 42;
  opts.frames_per_shard = 96;
  opts.hot_warehouse_pct = 10.0;
  opts.remote_pct = 20.0;
  opts.max_inflight_per_shard = 3;

  harness::TpccRig live = TpccTwin(c.method, c.shards, opts);
  ftl::ShardExecutor executor(c.shards);
  ASSERT_TRUE(live.driver->Load(&executor).ok());
  obs::TraceRecorder live_trace(c.shards);
  live.Attach(&live_trace);
  TpccRunStats live_stats;
  ASSERT_TRUE(live.driver->Serve(300, &executor, &live_stats).ok());
  ASSERT_EQ(live.driver->commit_log().size(), 300u);
  EXPECT_EQ(CountEvents(live_trace, obs::TraceCat::kTxnSpan), 300u);

  harness::TpccRig ref = TpccTwin(c.method, c.shards, opts);
  ASSERT_TRUE(ref.driver->Load(nullptr).ok());
  obs::TraceRecorder ref_trace(c.shards);
  ref.Attach(&ref_trace);
  TpccRunStats ref_stats;
  ASSERT_TRUE(ref.driver->Replay(live.driver->commit_log(), &ref_stats).ok());
  EXPECT_TRUE(SameTwins({harness::ChipsOf(live.store.get()), &live_trace},
                        {harness::ChipsOf(ref.store.get()), &ref_trace}));
  EXPECT_TRUE(live_stats.SameVirtualAs(ref_stats));
}

// The per-shard commit subsequences of a concurrent run equal the (fully
// deterministic) submission order -- which an inline Serve on an identical
// rig reproduces directly. This is the ordering half of the contract,
// checked without any device-state comparison.
TEST_P(TpccDriverDifferentialTest, PerShardCommitOrderMatchesSubmission) {
  const Case& c = GetParam();
  TpccDriverOptions opts;
  opts.scale = DriverScale();
  opts.num_clients = 4;
  opts.seed = 7;
  opts.frames_per_shard = 96;

  harness::TpccRig live = TpccTwin(c.method, c.shards, opts);
  ftl::ShardExecutor executor(c.shards);
  ASSERT_TRUE(live.driver->Load(&executor).ok());
  ASSERT_TRUE(live.driver->Serve(250, &executor, nullptr).ok());
  const TpccCommitLog concurrent = live.driver->commit_log();

  harness::TpccRig inline_rig = TpccTwin(c.method, c.shards, opts);
  ASSERT_TRUE(inline_rig.driver->Load(nullptr).ok());
  ASSERT_TRUE(inline_rig.driver->Serve(250, nullptr, nullptr).ok());
  const TpccCommitLog submission = inline_rig.driver->commit_log();

  ASSERT_EQ(concurrent.size(), submission.size());
  for (uint32_t s = 0; s < c.shards; ++s) {
    std::vector<TpccCommit> a, b;
    for (const TpccCommit& cm : concurrent) {
      if (live.driver->shard_of_warehouse(cm.warehouse) == s) a.push_back(cm);
    }
    for (const TpccCommit& cm : submission) {
      if (live.driver->shard_of_warehouse(cm.warehouse) == s) b.push_back(cm);
    }
    ASSERT_EQ(a.size(), b.size()) << "shard " << s;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].client, b[i].client) << "shard " << s << " pos " << i;
      EXPECT_EQ(a[i].warehouse, b[i].warehouse);
      EXPECT_EQ(a[i].type, b[i].type);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    MethodsAndShards, TpccDriverDifferentialTest,
    ::testing::Values(Case{"OPU", 1}, Case{"OPU", 2}, Case{"OPU", 4},
                      Case{"PDL(256B)", 1}, Case{"PDL(256B)", 2},
                      Case{"PDL(256B)", 4}),
    [](const ::testing::TestParamInfo<Case>& info) {
      std::string name = info.param.method + "_s" +
                         std::to_string(info.param.shards);
      for (char& ch : name) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return name;
    });

// Zero credits per shard can never submit anything: Serve rejects the
// option up front, threaded and inline alike, instead of silently serving
// at depth 1.
TEST(TpccDriverOptionsTest, ZeroInflightPerShardIsRejected) {
  TpccDriverOptions opts;
  opts.scale = DriverScale();
  opts.num_clients = 2;
  opts.frames_per_shard = 96;
  opts.max_inflight_per_shard = 0;

  harness::TpccRig rig = TpccTwin("OPU", 2, opts);
  ASSERT_TRUE(rig.driver->Load(nullptr).ok());
  ftl::ShardExecutor executor(2);
  TpccRunStats stats;
  EXPECT_TRUE(rig.driver->Serve(20, &executor, &stats).IsInvalidArgument());
  EXPECT_TRUE(rig.driver->Serve(20, nullptr, &stats).IsInvalidArgument());
  EXPECT_EQ(stats.latency.count(), 0u);
  EXPECT_TRUE(rig.driver->commit_log().empty());
}

// Transaction i belongs to client i % num_clients: zero clients is a typed
// error from Serve, never a division by zero.
TEST(TpccDriverOptionsTest, ZeroClientsIsRejected) {
  TpccDriverOptions opts;
  opts.scale = DriverScale();
  opts.num_clients = 0;
  opts.frames_per_shard = 96;

  harness::TpccRig rig = TpccTwin("OPU", 2, opts);
  ASSERT_TRUE(rig.driver->Load(nullptr).ok());
  ftl::ShardExecutor executor(2);
  TpccRunStats stats;
  EXPECT_TRUE(rig.driver->Serve(20, &executor, &stats).IsInvalidArgument());
  EXPECT_TRUE(rig.driver->Serve(20, nullptr, &stats).IsInvalidArgument());
  EXPECT_EQ(stats.latency.count(), 0u);
  EXPECT_TRUE(rig.driver->commit_log().empty());
}

// Replay validates the whole log before running any of it: a warehouse
// outside 1..W or an unknown type is InvalidArgument, and the shards'
// clocks have not moved.
TEST(TpccDriverOptionsTest, ReplayRejectsBadCommitsBeforeRunningAny) {
  TpccDriverOptions opts;
  opts.scale = DriverScale();  // 4 warehouses
  opts.num_clients = 2;
  opts.frames_per_shard = 96;

  harness::TpccRig rig = TpccTwin("OPU", 2, opts);
  ASSERT_TRUE(rig.driver->Load(nullptr).ok());
  const std::vector<uint64_t> clocks = rig.store->shard_clocks();
  const TpccCommit good{0, 1, TpccTxnType::kPayment};
  for (const TpccCommit& bad :
       {TpccCommit{0, 0, TpccTxnType::kPayment},
        TpccCommit{0, 5, TpccTxnType::kNewOrder},
        TpccCommit{0, 2, static_cast<TpccTxnType>(kNumTpccTxnTypes)}}) {
    TpccRunStats stats;
    const Status st = rig.driver->Replay({good, bad}, &stats);
    EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
    EXPECT_EQ(stats.latency.count(), 0u);
    EXPECT_EQ(rig.store->shard_clocks(), clocks);
  }
}

// A shard without a warehouse would serve nothing: more shards than
// warehouses is a typed error naming both counts, never an assert or a rig
// whose extra shards sit idle.
TEST(TpccDriverOptionsTest, MoreShardsThanWarehousesIsRejected) {
  TpccDriverOptions opts;
  opts.scale = DriverScale();
  opts.scale.warehouses = 2;
  opts.num_clients = 2;
  opts.frames_per_shard = 96;

  harness::TpccRig rig = TpccTwin("OPU", 4, opts);
  const Status load = rig.driver->Load(nullptr);
  EXPECT_TRUE(load.IsInvalidArgument()) << load.ToString();
  EXPECT_NE(load.ToString().find("2 warehouses over 4 shards"),
            std::string::npos)
      << load.ToString();
  TpccRunStats stats;
  EXPECT_TRUE(rig.driver->Serve(20, nullptr, &stats).IsInvalidArgument());
  EXPECT_TRUE(rig.driver->Replay({}, &stats).IsInvalidArgument());
}

// 100% hotspot routing sends every transaction to warehouse 1 on shard 0:
// the other shards' clocks must not move during Serve.
TEST(TpccDriverSkewTest, FullHotspotConfinesTrafficToShardZero) {
  TpccDriverOptions opts;
  opts.scale = DriverScale();
  opts.num_clients = 4;
  opts.seed = 3;
  opts.frames_per_shard = 96;
  opts.hot_warehouse_pct = 100.0;
  opts.remote_pct = 0.0;

  harness::TpccRig rig = TpccTwin("OPU", 4, opts);
  ASSERT_TRUE(rig.driver->Load(nullptr).ok());
  const std::vector<uint64_t> before = rig.store->shard_clocks();
  TpccRunStats stats;
  ASSERT_TRUE(rig.driver->Serve(120, nullptr, &stats).ok());
  const std::vector<uint64_t> after = rig.store->shard_clocks();
  EXPECT_GT(after[0], before[0]);
  for (uint32_t s = 1; s < 4; ++s) {
    EXPECT_EQ(after[s], before[s]) << "shard " << s;
  }
  for (const TpccCommit& c : rig.driver->commit_log()) {
    EXPECT_EQ(c.warehouse, 1u);
  }
  // Work was serial on one chip: elapsed == total busy time.
  EXPECT_EQ(stats.elapsed_vt_us, stats.total_work_us);
}

// Latency recording sanity: every committed transaction lands one histogram
// sample, the per-type samples sum to the total, and the worst op carries
// attribution.
TEST(TpccDriverStatsTest, HistogramsCoverEveryTransaction) {
  TpccDriverOptions opts;
  opts.scale = DriverScale();
  opts.num_clients = 2;
  opts.seed = 11;
  opts.frames_per_shard = 96;

  harness::TpccRig rig = TpccTwin("PDL(256B)", 2, opts);
  ftl::ShardExecutor executor(2);
  ASSERT_TRUE(rig.driver->Load(&executor).ok());
  TpccRunStats stats;
  ASSERT_TRUE(rig.driver->Serve(200, &executor, &stats).ok());
  EXPECT_EQ(stats.latency.count(), 200u);
  EXPECT_EQ(rig.driver->commit_log().size(), 200u);
  uint64_t by_type = 0;
  for (const OpSamples& t : stats.by_type) by_type += t.latency.count();
  EXPECT_EQ(by_type, 200u);
  EXPECT_TRUE(stats.worst_op.valid);
  EXPECT_GT(stats.worst_op.total_us, 0u);
  EXPECT_GE(stats.latency.p99(), stats.latency.p50());
}

}  // namespace
}  // namespace flashdb::workload
