// Differential tests of the concurrent TPC-C serving layer (TpccDriver).
//
// The determinism contract under test: a concurrent N-client run records its
// commit order, and a single-threaded replay of that order against an
// identically prepared rig must reproduce bit-identical flash state, virtual
// clocks, latency histograms, and worst-op samples -- for both a loosely
// coupled method (OPU) and the paper's differential method (PDL) at 1, 2,
// and 4 shards.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "ftl/shard_executor.h"
#include "methods/method_factory.h"
#include "workload/tpcc_driver.h"

namespace flashdb::workload {
namespace {

using flash::FlashConfig;

constexpr uint32_t kPageSize = 2048;

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

/// A sharded serving rig; identical arguments produce identical state.
struct Rig {
  std::unique_ptr<ftl::ShardedStore> store;
  std::unique_ptr<TpccDriver> driver;
};

Rig MakeRig(const char* method, uint32_t shards,
            const TpccDriverOptions& opts) {
  const uint32_t pages_per_shard =
      TpccDriver::PagesPerShard(opts.scale, kPageSize, shards);
  const uint32_t blocks_per_shard = (pages_per_shard * 2) / 64 + 8;
  auto spec = methods::ParseMethodSpec(method);
  EXPECT_TRUE(spec.ok());
  Rig rig;
  rig.store = methods::CreateShardedStore(FlashConfig::Small(blocks_per_shard),
                                          shards, *spec);
  EXPECT_TRUE(
      rig.store->Format(shards * pages_per_shard, nullptr, nullptr).ok());
  rig.driver = std::make_unique<TpccDriver>(rig.store.get(), opts);
  return rig;
}

/// Every logical page, read back through the store (quiescent only). Both
/// sides of a comparison dump identically, so the reads cannot skew it --
/// but clocks must be compared *before* dumping.
std::vector<ByteBuffer> DumpPages(PageStore* store) {
  std::vector<ByteBuffer> pages(store->num_logical_pages());
  for (PageId pid = 0; pid < store->num_logical_pages(); ++pid) {
    pages[pid].resize(kPageSize);
    EXPECT_TRUE(store->ReadPage(pid, pages[pid]).ok()) << "pid " << pid;
  }
  return pages;
}

void ExpectStatsEqual(const TpccRunStats& a, const TpccRunStats& b) {
  EXPECT_EQ(a.elapsed_vt_us, b.elapsed_vt_us);
  EXPECT_EQ(a.total_work_us, b.total_work_us);
  EXPECT_TRUE(a.latency == b.latency);
  EXPECT_TRUE(a.worst_op == b.worst_op);
  for (uint32_t t = 0; t < kNumTpccTxnTypes; ++t) {
    EXPECT_TRUE(a.by_type[t] == b.by_type[t])
        << TpccTxnTypeName(static_cast<TpccTxnType>(t));
  }
}

struct Case {
  std::string method;
  uint32_t shards;
};

class TpccDriverDifferentialTest : public ::testing::TestWithParam<Case> {};

// The tentpole invariant: concurrent serving == sequential replay of the
// recorded commit order, bit for bit.
TEST_P(TpccDriverDifferentialTest, ConcurrentMatchesCommitOrderReplay) {
  const Case& c = GetParam();
  TpccDriverOptions opts;
  opts.scale = DriverScale();
  opts.num_clients = 4;
  opts.seed = 42;
  opts.frames_per_shard = 96;
  opts.hot_warehouse_pct = 10.0;
  opts.remote_pct = 20.0;

  Rig live = MakeRig(c.method.c_str(), c.shards, opts);
  ftl::ShardExecutor executor(c.shards);
  ASSERT_TRUE(live.driver->Load(&executor).ok());
  TpccRunStats live_stats;
  ASSERT_TRUE(live.driver->Serve(300, &executor, &live_stats).ok());
  ASSERT_EQ(live.driver->commit_log().size(), 300u);

  Rig ref = MakeRig(c.method.c_str(), c.shards, opts);
  ASSERT_TRUE(ref.driver->Load(nullptr).ok());
  TpccRunStats ref_stats;
  ASSERT_TRUE(ref.driver->Replay(live.driver->commit_log(), &ref_stats).ok());

  EXPECT_EQ(live.store->shard_clocks(), ref.store->shard_clocks());
  ExpectStatsEqual(live_stats, ref_stats);
  EXPECT_EQ(DumpPages(live.store.get()), DumpPages(ref.store.get()));
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

  Rig live = MakeRig(c.method.c_str(), c.shards, opts);
  ftl::ShardExecutor executor(c.shards);
  ASSERT_TRUE(live.driver->Load(&executor).ok());
  ASSERT_TRUE(live.driver->Serve(250, &executor, nullptr).ok());
  const TpccCommitLog concurrent = live.driver->commit_log();

  Rig inline_rig = MakeRig(c.method.c_str(), c.shards, opts);
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

  Rig rig = MakeRig("OPU", 2, opts);
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

  Rig rig = MakeRig("OPU", 2, opts);
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

  Rig rig = MakeRig("OPU", 2, opts);
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

  Rig rig = MakeRig("OPU", 4, opts);
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

  Rig rig = MakeRig("OPU", 4, opts);
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

  Rig rig = MakeRig("PDL(256B)", 2, opts);
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
