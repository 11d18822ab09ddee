// Differential tests of the concurrent TPC-C serving layer (TpccDriver) on
// harness TPC-C rigs.
//
// The determinism contract under test: a concurrent N-client run records its
// commit order, and a single-threaded replay of that order against an
// identically prepared twin (harness::ServeChecked) must reproduce
// bit-identical flash cells, virtual clocks, virtual stats (latency
// histograms and worst-op samples included) and canonical event streams --
// for both a loosely coupled method (OPU) and the paper's differential
// method (PDL) at 1, 2, and 4 shards. A crashed serving rig recovers every
// page it served, inline and on the executor alike.

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

/// harness::PrepareTpccRig for `method`, which must succeed.
harness::Rig Prepare(const std::string& method, uint32_t shards,
                     const TpccDriverOptions& opts, uint64_t warmup_tx = 0) {
  auto spec = methods::ParseMethodSpec(method);
  CheckOrAbort(spec.ok(), "bad method %s", method.c_str());
  auto rig = harness::PrepareTpccRig(*spec, opts, shards, warmup_tx);
  CheckOrAbort(rig.ok(), "PrepareTpccRig: %s",
               rig.status().ToString().c_str());
  return std::move(*rig);
}

class TpccDriverDifferentialTest : public ::testing::TestWithParam<Case> {};

// The tentpole invariant: concurrent serving == sequential replay of the
// recorded commit order (warm-up first), bit for bit, one transaction span
// per measured transaction.
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

  harness::Rig rig = Prepare(c.method, c.shards, opts, /*warmup_tx=*/100);
  obs::TraceRecorder trace(c.shards);
  const auto served = harness::ServeChecked(&rig, 300, &trace);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_TRUE(served->deterministic()) << served->divergence;
  EXPECT_EQ(rig.tpcc()->commit_log().size(), 300u);
  EXPECT_EQ(CountEvents(trace, obs::TraceCat::kTxnSpan), 300u);
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

  harness::Rig live = Prepare(c.method, c.shards, opts);
  ftl::ShardExecutor executor(c.shards);
  ASSERT_TRUE(live.tpcc()->Serve(250, &executor, nullptr).ok());
  const TpccCommitLog concurrent = live.tpcc()->commit_log();

  harness::Rig inline_rig = Prepare(c.method, c.shards, opts);
  ASSERT_TRUE(inline_rig.tpcc()->Serve(250, nullptr, nullptr).ok());
  const TpccCommitLog submission = inline_rig.tpcc()->commit_log();

  ASSERT_EQ(concurrent.size(), submission.size());
  for (uint32_t s = 0; s < c.shards; ++s) {
    std::vector<TpccCommit> a, b;
    for (const TpccCommit& cm : concurrent) {
      if (live.tpcc()->shard_of_warehouse(cm.warehouse) == s) a.push_back(cm);
    }
    for (const TpccCommit& cm : submission) {
      if (live.tpcc()->shard_of_warehouse(cm.warehouse) == s) b.push_back(cm);
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

/// Serve refuses `opts` up front on a 2-shard rig, threaded and inline
/// alike: no transaction runs and none is logged.
void ExpectServeRefuses(const TpccDriverOptions& opts) {
  harness::Rig rig = Prepare("OPU", 2, opts);
  ftl::ShardExecutor executor(2);
  TpccRunStats stats;
  EXPECT_TRUE(rig.tpcc()->Serve(20, &executor, &stats).IsInvalidArgument());
  EXPECT_TRUE(rig.tpcc()->Serve(20, nullptr, &stats).IsInvalidArgument());
  EXPECT_EQ(stats.latency.count(), 0u);
  EXPECT_TRUE(rig.tpcc()->commit_log().empty());
}

// Zero credits per shard can never submit anything: Serve rejects the
// option up front, threaded and inline alike, instead of silently serving
// at depth 1.
TEST(TpccDriverOptionsTest, ZeroInflightPerShardIsRejected) {
  TpccDriverOptions opts;
  opts.scale = DriverScale();
  opts.num_clients = 2;
  opts.frames_per_shard = 96;
  opts.max_inflight_per_shard = 0;

  ExpectServeRefuses(opts);
}

// Transaction i belongs to client i % num_clients: zero clients is a typed
// error from Serve, never a division by zero.
TEST(TpccDriverOptionsTest, ZeroClientsIsRejected) {
  TpccDriverOptions opts;
  opts.scale = DriverScale();
  opts.num_clients = 0;
  opts.frames_per_shard = 96;

  ExpectServeRefuses(opts);
}

// Replay validates the whole log before running any of it: a warehouse
// outside 1..W or an unknown type is InvalidArgument, and the shards'
// clocks have not moved.
TEST(TpccDriverOptionsTest, ReplayRejectsBadCommitsBeforeRunningAny) {
  TpccDriverOptions opts;
  opts.scale = DriverScale();  // 4 warehouses
  opts.num_clients = 2;
  opts.frames_per_shard = 96;

  harness::Rig rig = Prepare("OPU", 2, opts);
  const std::vector<uint64_t> clocks = rig.sharded()->shard_clocks();
  const TpccCommit good{0, 1, TpccTxnType::kPayment};
  for (const TpccCommit& bad :
       {TpccCommit{0, 0, TpccTxnType::kPayment},
        TpccCommit{0, 5, TpccTxnType::kNewOrder},
        TpccCommit{0, 2, static_cast<TpccTxnType>(kNumTpccTxnTypes)}}) {
    TpccRunStats stats;
    const Status st = rig.tpcc()->Replay({good, bad}, &stats);
    EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
    EXPECT_EQ(stats.latency.count(), 0u);
    EXPECT_EQ(rig.sharded()->shard_clocks(), clocks);
  }
}

// A shard without a warehouse would serve nothing: more shards than
// warehouses is a typed error naming both counts, never an assert or a rig
// whose extra shards sit idle. PrepareTpccRig refuses it, and a driver put
// over four shards directly refuses every entry point. Zero shards is
// refused before any sizing arithmetic.
TEST(TpccDriverOptionsTest, MoreShardsThanWarehousesIsRejected) {
  TpccDriverOptions opts;
  opts.scale = DriverScale();  // 4 warehouses
  opts.num_clients = 2;
  opts.frames_per_shard = 96;
  harness::Rig rig = Prepare("OPU", 4, opts);
  opts.scale.warehouses = 2;
  const auto spec = methods::ParseMethodSpec("OPU");
  TpccDriver driver(rig.sharded(), opts);
  TpccRunStats stats;
  for (const Status& st : {harness::PrepareTpccRig(*spec, opts, 4, 0).status(),
                           driver.Load(nullptr),
                           driver.Serve(20, nullptr, &stats),
                           driver.Replay({}, &stats)}) {
    EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
    EXPECT_NE(st.ToString().find("2 warehouses over 4 shards"),
              std::string::npos)
        << st.ToString();
  }
  const Status no_shards = harness::PrepareTpccRig(*spec, opts, 0, 0).status();
  EXPECT_TRUE(no_shards.IsInvalidArgument()) << no_shards.ToString();
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

  harness::Rig rig = Prepare("OPU", 4, opts);
  const std::vector<uint64_t> before = rig.sharded()->shard_clocks();
  const auto cost =
      rig.Measure([&] { return rig.tpcc()->Serve(120, nullptr, nullptr); });
  ASSERT_TRUE(cost.ok()) << cost.status().ToString();
  const std::vector<uint64_t> after = rig.sharded()->shard_clocks();
  EXPECT_GT(after[0], before[0]);
  for (uint32_t s = 1; s < 4; ++s) {
    EXPECT_EQ(after[s], before[s]) << "shard " << s;
  }
  for (const TpccCommit& c : rig.tpcc()->commit_log()) {
    EXPECT_EQ(c.warehouse, 1u);
  }
  // Work was serial on one chip: elapsed == total busy time.
  EXPECT_EQ(cost->advance.elapsed_vt_us, cost->advance.total_work_us);
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

  harness::Rig rig = Prepare("PDL(256B)", 2, opts);
  ftl::ShardExecutor executor(2);
  TpccRunStats stats;
  ASSERT_TRUE(rig.tpcc()->Serve(200, &executor, &stats).ok());
  EXPECT_EQ(stats.latency.count(), 200u);
  EXPECT_EQ(rig.tpcc()->commit_log().size(), 200u);
  uint64_t by_type = 0;
  for (const OpSamples& t : stats.by_type) by_type += t.latency.count();
  EXPECT_EQ(by_type, 200u);
  EXPECT_TRUE(stats.worst_op.valid);
  EXPECT_GT(stats.worst_op.total_us, 0u);
  EXPECT_GE(stats.latency.p99(), stats.latency.p50());
}

/// Every logical page of `store`, in pid order.
std::vector<ByteBuffer> ReadEveryPage(PageStore* store) {
  std::vector<ByteBuffer> pages(
      store->num_logical_pages(),
      ByteBuffer(store->device()->geometry().data_size));
  for (PageId pid = 0; pid < pages.size(); ++pid) {
    const Status st = store->ReadPage(pid, pages[pid]);
    EXPECT_TRUE(st.ok()) << "pid " << pid << ": " << st.ToString();
  }
  return pages;
}

class TpccRecoveryTest : public ::testing::TestWithParam<std::string> {};

// A power cut after serving loses no committed transaction: two 2-shard
// rigs serve the same transactions and crash, one remounts inline and one on
// the executor, and both leave the same chips, read every logical page back
// as it read before the crash, and refuse to serve again.
TEST_P(TpccRecoveryTest, RemountReadsEveryServedPageBack) {
  TpccDriverOptions opts;
  opts.scale = DriverScale();
  opts.frames_per_shard = 96;
  std::vector<harness::Rig> rigs;
  for (int i = 0; i < 2; ++i) {
    harness::Rig rig = Prepare(GetParam(), 2, opts);
    const auto served = harness::ServeChecked(&rig, 300);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    EXPECT_TRUE(served->deterministic()) << served->divergence;
    rigs.push_back(std::move(rig));
  }
  // Execute measures update rigs only.
  const auto run = harness::Execute(&rigs[0], 10, harness::Execution{});
  EXPECT_TRUE(run.status().IsInvalidArgument()) << run.status().ToString();
  const std::vector<ByteBuffer> before = ReadEveryPage(rigs[0].store());
  ASSERT_TRUE(ReadEveryPage(rigs[1].store()) == before);

  for (harness::Rig& rig : rigs) {
    rig.Crash();
    EXPECT_EQ(rig.store(), nullptr);
    EXPECT_EQ(rig.tpcc(), nullptr);
  }
  const auto inline_rec = rigs[0].Remount(/*on_executor=*/false);
  ASSERT_TRUE(inline_rec.ok()) << inline_rec.status().ToString();
  const auto exec_rec = rigs[1].Remount(/*on_executor=*/true);
  ASSERT_TRUE(exec_rec.ok()) << exec_rec.status().ToString();
  EXPECT_TRUE(SameTwins(rigs[0].AsTwin(), rigs[1].AsTwin()));
  for (harness::Rig& rig : rigs) {
    const std::vector<ByteBuffer> after = ReadEveryPage(rig.store());
    ASSERT_EQ(after.size(), before.size());
    for (PageId pid = 0; pid < before.size(); ++pid) {
      ASSERT_TRUE(after[pid] == before[pid]) << "pid " << pid;
    }
    const auto again = harness::ServeChecked(&rig, 10);
    EXPECT_TRUE(again.status().IsInvalidArgument())
        << again.status().ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Methods, TpccRecoveryTest,
    ::testing::Values("OPU", "PDL(256B)", "IPL(18KB)"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& ch : name) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return name;
    });

}  // namespace
}  // namespace flashdb::workload
