// Unit tests for ftl::ShardRouter and cross-shard wear leveling: routing
// identity, swap bookkeeping, migration content equivalence, erase-count
// convergence under skew, and bit-determinism across execution modes.

#include "ftl/shard_router.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "flash/fault_injector.h"
#include "ftl/shard_executor.h"
#include "ftl/sharded_store.h"
#include "methods/method_factory.h"
#include "workload/update_driver.h"

namespace flashdb::ftl {
namespace {

using flash::FlashConfig;
using workload::RunStats;
using workload::Schedule;
using workload::UpdateDriver;
using workload::WorkloadParams;

TEST(ShardRouterTest, IdentityMappingMatchesLegacyStriping) {
  for (uint32_t shards : {1u, 2u, 4u, 5u}) {
    for (uint32_t buckets : {1u, 4u, 8u}) {
      ShardRouter router(shards, buckets);
      for (uint32_t pages : {1u, 97u, 160u, 256u}) {
        router.Reset(pages);
        for (PageId pid = 0; pid < pages; ++pid) {
          EXPECT_EQ(router.shard_of(pid), pid % shards)
              << shards << "x" << buckets << " pid " << pid;
          EXPECT_EQ(router.inner_pid(pid), pid / shards)
              << shards << "x" << buckets << " pid " << pid;
        }
        // Bucket sizes partition the pid space.
        uint64_t sum = 0;
        for (uint32_t b = 0; b < router.num_buckets(); ++b) {
          sum += router.bucket_size(b);
        }
        EXPECT_EQ(sum, pages);
        EXPECT_TRUE(router.is_identity());
      }
    }
  }
}

TEST(ShardRouterTest, EnableRebalancingValidates) {
  ShardRouter router(4);
  WearLevelConfig bad;
  bad.max_erase_ratio = 0.5;
  EXPECT_FALSE(router.EnableRebalancing(bad).ok());
  bad = WearLevelConfig{};
  bad.buckets_per_shard = 0;
  EXPECT_FALSE(router.EnableRebalancing(bad).ok());

  WearLevelConfig good;
  good.buckets_per_shard = 4;
  ASSERT_TRUE(router.EnableRebalancing(good).ok());
  EXPECT_TRUE(router.rebalancing_enabled());
  EXPECT_EQ(router.buckets_per_shard(), 4u);

  // After a swap commits, re-enabling at the current granularity stays legal
  // (the journaled-recovery path depends on it) but re-granulating -- which
  // would scramble the migrated pid mapping -- is refused.
  router.Reset(64);
  router.CommitSwap(ShardRouter::Swap{0, 1});
  EXPECT_TRUE(router.EnableRebalancing(good).ok());
  WearLevelConfig regranulate = good;
  regranulate.buckets_per_shard = 8;
  EXPECT_FALSE(router.EnableRebalancing(regranulate).ok());
}

TEST(ShardRouterTest, SwapBookkeeping) {
  ShardRouter router(2, 2);  // buckets: 0 -> (s0,g0), 1 -> (s1,g0),
  router.Reset(8);           //          2 -> (s0,g1), 3 -> (s1,g1)
  ASSERT_EQ(router.num_buckets(), 4u);
  ASSERT_EQ(router.bucket_size(0), 2u);  // pids {0, 4}

  router.CommitSwap(ShardRouter::Swap{0, 1});
  EXPECT_FALSE(router.is_identity());
  EXPECT_EQ(router.swaps_committed(), 1u);
  EXPECT_EQ(router.bucket_shard(0), 1u);
  EXPECT_EQ(router.bucket_shard(1), 0u);
  // Bucket 0's pids {0, 4} now live on shard 1 in slot class 0.
  EXPECT_EQ(router.shard_of(0), 1u);
  EXPECT_EQ(router.inner_pid(0), 0u);
  EXPECT_EQ(router.shard_of(4), 1u);
  EXPECT_EQ(router.inner_pid(4), 2u);
  // Bucket 2 (pids {2, 6}) is untouched: shard 0, slot class 1.
  EXPECT_EQ(router.shard_of(2), 0u);
  EXPECT_EQ(router.inner_pid(2), 1u);

  // Swapping back restores the identity routing function (the committed-swap
  // counter keeps counting; identity is a property of the mapping history).
  router.CommitSwap(ShardRouter::Swap{0, 1});
  EXPECT_EQ(router.shard_of(0), 0u);
  EXPECT_EQ(router.inner_pid(4), 2u);
}

TEST(ShardRouterTest, PlanRebalancePairsHotWithCold) {
  ShardRouter router(2, 2);
  router.Reset(8);
  WearLevelConfig cfg;
  cfg.buckets_per_shard = 2;
  cfg.max_erase_ratio = 1.5;
  cfg.min_total_erases = 1;
  ASSERT_TRUE(router.EnableRebalancing(cfg).ok());

  const std::vector<uint64_t> heat = {100, 1, 50, 1};
  router.AddEpochHeat(heat);

  // Below the trigger ratio: no plan (this also advances the delta
  // baseline to {10, 9}).
  const std::vector<uint64_t> balanced = {10, 9};
  EXPECT_TRUE(router.PlanRebalance(balanced).empty());

  // Worn shard 0 (delta {100, 2} since the baseline): the hottest bucket of
  // shard 0 swaps with a cold bucket of shard 1, and no second swap improves
  // the predicted balance.
  const std::vector<uint64_t> skewed = {110, 11};
  const std::vector<ShardRouter::Swap> plan = router.PlanRebalance(skewed);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].bucket_a, 0u);
  EXPECT_EQ(router.bucket_shard(plan[0].bucket_b), 1u);
  // Planning is pure: nothing committed.
  EXPECT_TRUE(router.is_identity());
}

TEST(ShardRouterTest, SeededBaselineIgnoresHistoricalWear) {
  ShardRouter router(2, 2);
  router.Reset(8);
  WearLevelConfig cfg;
  cfg.buckets_per_shard = 2;
  cfg.max_erase_ratio = 1.5;
  cfg.min_total_erases = 1;
  ASSERT_TRUE(router.EnableRebalancing(cfg).ok());
  router.AddEpochHeat(std::vector<uint64_t>{100, 1, 50, 1});

  // A remounted store seeds the baseline with the chips' historical wear
  // (ShardedStore::Format/Recover); a heavily skewed history must not
  // trigger by itself when the wear accrued *since* is balanced...
  router.SeedEraseBaseline(std::vector<uint64_t>{10000, 10});
  EXPECT_TRUE(
      router.PlanRebalance(std::vector<uint64_t>{10010, 20}).empty());
  // ...while a fresh post-seed imbalance still does.
  EXPECT_FALSE(
      router.PlanRebalance(std::vector<uint64_t>{10110, 22}).empty());
}

TEST(ShardRouterTest, DisabledRouterNeverPlans) {
  ShardRouter router(4, 8);
  router.Reset(1024);
  std::vector<uint64_t> heat(router.num_buckets(), 5);
  router.AddEpochHeat(heat);
  const std::vector<uint64_t> erases = {1000, 1, 1, 1};
  EXPECT_TRUE(router.PlanRebalance(erases).empty());
}

// Writes a distinctive image per pid, migrates buckets (inline and via
// executor), and verifies every logical page reads back unchanged. IPL keeps
// only the update logs it is shown, so the fill announces each image as a
// full-page update before writing it back, as the migration copy does.
void ExpectMigrationPreservesContents(const methods::MethodSpec& spec) {
  constexpr uint32_t kShards = 4;
  auto store =
      methods::CreateShardedStore(FlashConfig::Small(8), kShards, spec);
  WearLevelConfig cfg;
  cfg.buckets_per_shard = 8;
  ASSERT_TRUE(store->router()->EnableRebalancing(cfg).ok());

  constexpr uint32_t kPages = 160;  // 160 / (4*8) = 5 pids per bucket
  ASSERT_TRUE(store->Format(kPages, nullptr, nullptr).ok());
  const uint32_t data_size = store->device()->geometry().data_size;
  ByteBuffer image(data_size);
  for (PageId pid = 0; pid < kPages; ++pid) {
    std::fill(image.begin(), image.end(),
              static_cast<uint8_t>(0x5A ^ (pid & 0xFF)));
    ASSERT_TRUE(store->OnUpdate(pid, image, UpdateLog{0, image}).ok());
    ASSERT_TRUE(store->WriteBack(pid, image).ok());
  }

  // Inline migration: swap two hot-shard buckets off shard 0.
  const std::vector<ShardRouter::Swap> inline_swaps = {
      ShardRouter::Swap{0, 1},   // shard 0 <-> shard 1
      ShardRouter::Swap{4, 2}};  // shard 0 <-> shard 2
  ASSERT_TRUE(store->MigrateBuckets(inline_swaps, nullptr).ok());
  EXPECT_EQ(store->router()->swaps_committed(), 2u);
  EXPECT_EQ(store->shard_of(0), 1u);
  EXPECT_EQ(store->shard_of(4), 2u);

  // Executor-submitted migration of a further bucket pair.
  {
    ShardExecutor executor(kShards);
    const std::vector<ShardRouter::Swap> exec_swaps = {
        ShardRouter::Swap{8, 3}};  // shard 0 <-> shard 3
    ASSERT_TRUE(store->MigrateBuckets(exec_swaps, &executor).ok());
  }
  EXPECT_EQ(store->router()->swaps_committed(), 3u);

  ByteBuffer read_back(data_size);
  for (PageId pid = 0; pid < kPages; ++pid) {
    std::fill(image.begin(), image.end(),
              static_cast<uint8_t>(0x5A ^ (pid & 0xFF)));
    ASSERT_TRUE(store->ReadPage(pid, read_back).ok());
    EXPECT_TRUE(BytesEqual(image, read_back)) << "pid " << pid;
  }

  // Migration traffic was accounted to its own category.
  const flash::FlashStats stats = store->stats();
  EXPECT_GT(stats.by_category[static_cast<int>(flash::OpCategory::kMigrate)]
                .total_ops(),
            0u);

  // Recovery is refused after migration: the routing table is volatile.
  EXPECT_FALSE(store->Recover().ok());
}

TEST(ShardRouterTest, MigrationPreservesContents) {
  for (const char* method : {"OPU", "IPL(18KB)"}) {
    SCOPED_TRACE(method);
    auto spec = methods::ParseMethodSpec(method);
    ASSERT_TRUE(spec.ok());
    ExpectMigrationPreservesContents(*spec);
  }
}

TEST(ShardRouterTest, MismatchedSwapSizesRejected) {
  auto spec = methods::ParseMethodSpec("OPU");
  ASSERT_TRUE(spec.ok());
  auto store = methods::CreateShardedStore(FlashConfig::Small(8), 2, *spec);
  WearLevelConfig cfg;
  cfg.buckets_per_shard = 2;
  ASSERT_TRUE(store->router()->EnableRebalancing(cfg).ok());
  // 9 pages over 4 buckets: bucket 0 holds 3 pids, buckets 1-3 hold 2.
  ASSERT_TRUE(store->Format(9, nullptr, nullptr).ok());
  const std::vector<ShardRouter::Swap> bad = {ShardRouter::Swap{0, 1}};
  EXPECT_FALSE(store->MigrateBuckets(bad, nullptr).ok());
  const std::vector<ShardRouter::Swap> good = {ShardRouter::Swap{2, 1}};
  EXPECT_TRUE(store->MigrateBuckets(good, nullptr).ok());
}

struct PreparedRun {
  std::unique_ptr<ShardedStore> store;
  std::unique_ptr<UpdateDriver> driver;
};

/// Steady-state skewed setup shared by the convergence/determinism tests.
/// `threshold` <= 0 leaves wear leveling off.
PreparedRun PrepareSkewed(double hot_pct, double threshold,
                          uint64_t epoch_ops, uint64_t ops_for_schedule,
                          Schedule* schedule) {
  auto spec = methods::ParseMethodSpec("OPU");
  EXPECT_TRUE(spec.ok());
  PreparedRun run;
  run.store = methods::CreateShardedStore(FlashConfig::Small(8), 4, *spec);
  if (threshold > 0) {
    WearLevelConfig cfg;
    cfg.buckets_per_shard = 8;
    cfg.max_erase_ratio = threshold;
    cfg.min_total_erases = 32;
    EXPECT_TRUE(run.store->router()->EnableRebalancing(cfg).ok());
  }
  WorkloadParams params;
  params.hot_shard_pct = hot_pct;
  params.rebalance_epoch_ops = epoch_ops;
  params.verify = true;  // shadow-checks every read against the migrations
  run.driver = std::make_unique<UpdateDriver>(run.store.get(), params);
  EXPECT_TRUE(run.driver->LoadDatabase(160).ok());
  EXPECT_TRUE(run.driver->Warmup(1.0, 4000).ok());
  *schedule = run.driver->MakeSchedule(ops_for_schedule);
  return run;
}

double EraseDeltaRatio(const std::vector<uint64_t>& before,
                       const std::vector<uint64_t>& after) {
  uint64_t max_d = 0;
  uint64_t min_d = UINT64_MAX;
  for (size_t i = 0; i < before.size(); ++i) {
    const uint64_t d = after[i] - before[i];
    max_d = std::max(max_d, d);
    min_d = std::min(min_d, d);
  }
  return min_d == 0 ? 1e9
                    : static_cast<double>(max_d) / static_cast<double>(min_d);
}

// Under a 90% shard-0 hotspot, wear leveling must migrate hot buckets off
// the worn chip and pull the per-shard erase ratio far below the unleveled
// run's (shadow verification proves content stays intact throughout).
TEST(ShardRouterTest, EraseCountsConvergeUnderSkew) {
  Schedule schedule_off;
  PreparedRun off = PrepareSkewed(90.0, 0.0, 400, 4000, &schedule_off);
  const std::vector<uint64_t> off_before = off.store->shard_erases();
  RunStats stats_off;
  ASSERT_TRUE(
      off.driver->RunPipelined(schedule_off, 8, 1, nullptr, &stats_off).ok());
  const double ratio_off =
      EraseDeltaRatio(off_before, off.store->shard_erases());
  EXPECT_EQ(stats_off.migrations, 0u);

  Schedule schedule_on;
  PreparedRun on = PrepareSkewed(90.0, 1.25, 400, 4000, &schedule_on);
  const std::vector<uint64_t> on_before = on.store->shard_erases();
  RunStats stats_on;
  ASSERT_TRUE(
      on.driver->RunPipelined(schedule_on, 8, 1, nullptr, &stats_on).ok());
  const double ratio_on =
      EraseDeltaRatio(on_before, on.store->shard_erases());

  EXPECT_GT(stats_on.migrations, 0u);
  EXPECT_GT(stats_on.device.of(flash::OpCategory::kMigrate).total_us(),
            0u);
  EXPECT_GT(ratio_off, 3.0);  // unleveled skew concentrates erases
  EXPECT_LT(ratio_on, ratio_off / 2);
  EXPECT_LT(ratio_on, 2.0);
}

// hot_shard_pct = 0 with wear leveling armed must keep the legacy routing:
// no migrations, and device state bit-identical to a store whose router was
// never enabled (same epoch windowing, so the comparison isolates routing).
TEST(ShardRouterTest, ZeroSkewStaysLegacyBitIdentical) {
  Schedule schedule_plain;
  PreparedRun plain = PrepareSkewed(0.0, 0.0, 400, 2000, &schedule_plain);
  RunStats stats_plain;
  ASSERT_TRUE(
      plain.driver->RunPipelined(schedule_plain, 8, 1, nullptr, &stats_plain)
          .ok());

  Schedule schedule_armed;
  PreparedRun armed = PrepareSkewed(0.0, 1.25, 400, 2000, &schedule_armed);
  RunStats stats_armed;
  ASSERT_TRUE(
      armed.driver->RunPipelined(schedule_armed, 8, 1, nullptr, &stats_armed)
          .ok());

  EXPECT_EQ(stats_armed.migrations, 0u);
  EXPECT_TRUE(armed.store->router()->is_identity());
  EXPECT_EQ(plain.store->shard_clocks(), armed.store->shard_clocks());
  EXPECT_EQ(plain.store->shard_erases(), armed.store->shard_erases());
}

// Bucket migrations happen at quiescent epoch boundaries, so inline and
// threaded runs of the same schedule stay bit-identical even while
// migrating under concurrent window submission (TSan exercises the executor
// paths).
TEST(ShardRouterTest, MigrationIsDeterministicInlineAndThreaded) {
  Schedule schedule_seq;
  PreparedRun seq = PrepareSkewed(90.0, 1.25, 400, 3000, &schedule_seq);
  RunStats stats_seq;
  ASSERT_TRUE(
      seq.driver->RunPipelined(schedule_seq, 8, 1, nullptr, &stats_seq).ok());

  Schedule schedule_pipe;
  PreparedRun pipe = PrepareSkewed(90.0, 1.25, 400, 3000, &schedule_pipe);
  RunStats stats_pipe;
  {
    ShardExecutor executor(4, 8);
    ASSERT_TRUE(pipe.driver
                    ->RunPipelined(schedule_pipe, 8, 4, &executor,
                                   &stats_pipe)
                    .ok());
  }

  EXPECT_GT(stats_seq.migrations, 0u);
  EXPECT_EQ(stats_seq.migrations, stats_pipe.migrations);
  EXPECT_EQ(seq.store->shard_clocks(), pipe.store->shard_clocks());
  EXPECT_EQ(seq.store->shard_erases(), pipe.store->shard_erases());
  EXPECT_TRUE(stats_seq.device == stats_pipe.device);

  // And the logical contents agree everywhere.
  ByteBuffer a(seq.store->device()->geometry().data_size);
  ByteBuffer b(a.size());
  for (PageId pid = 0; pid < 160; ++pid) {
    ASSERT_TRUE(seq.store->ReadPage(pid, a).ok());
    ASSERT_TRUE(pipe.store->ReadPage(pid, b).ok());
    EXPECT_TRUE(BytesEqual(a, b)) << "pid " << pid;
  }
}

// --- Durable routing: journaled recovery ----------------------------------

TEST(ShardRouterTest, RestoreValidates) {
  ShardRouter router(2, 2);
  router.Reset(16);
  // Wrong bucket-vector length.
  std::vector<uint32_t> shards = {0, 1, 0};
  std::vector<uint32_t> slots = {0, 0, 1};
  std::vector<uint64_t> baseline = {0, 0};
  EXPECT_FALSE(router.Restore(16, 2, shards, slots, 1, baseline).ok());
  // Duplicate (shard, slot) pair.
  shards = {0, 0, 1, 1};
  slots = {0, 0, 0, 1};
  EXPECT_FALSE(router.Restore(16, 2, shards, slots, 1, baseline).ok());
  // Wrong baseline length.
  shards = {1, 0, 0, 1};
  slots = {0, 0, 1, 1};
  EXPECT_FALSE(
      router.Restore(16, 2, shards, slots, 1, std::vector<uint64_t>{3}).ok());
  // A legal post-swap assignment (buckets 0 and 1 exchanged).
  baseline = {11, 22};
  ASSERT_TRUE(router.Restore(16, 2, shards, slots, 1, baseline).ok());
  EXPECT_FALSE(router.is_identity());
  EXPECT_EQ(router.swaps_committed(), 1u);
  EXPECT_EQ(router.shard_of(0), 1u);
  EXPECT_EQ(router.shard_of(1), 0u);
  EXPECT_EQ(router.erase_baseline(), baseline);
  // Re-enabling wear leveling at the restored granularity is legal; changing
  // the granularity under migrated data is not.
  WearLevelConfig cfg;
  cfg.buckets_per_shard = 2;
  EXPECT_TRUE(router.EnableRebalancing(cfg).ok());
  cfg.buckets_per_shard = 4;
  EXPECT_FALSE(router.EnableRebalancing(cfg).ok());
}

struct DurableRig {
  std::vector<std::unique_ptr<flash::FlashDevice>> devices;
  std::vector<flash::FlashDevice*> device_ptrs;
  std::unique_ptr<ShardedStore> store;
};

/// The distinctive image BuildDurableRig writes to `pid`.
void FillRigImage(PageId pid, ByteBuffer* image) {
  std::fill(image->begin(), image->end(),
            static_cast<uint8_t>(0xA7 ^ (pid & 0xFF)));
}

/// Expects every pid of `store` to read back its BuildDurableRig image.
void ExpectRigImages(ShardedStore* store) {
  ByteBuffer expect(store->device()->geometry().data_size);
  ByteBuffer got(expect.size());
  for (PageId pid = 0; pid < store->num_logical_pages(); ++pid) {
    FillRigImage(pid, &expect);
    ASSERT_TRUE(store->ReadPage(pid, got).ok()) << pid;
    EXPECT_TRUE(BytesEqual(expect, got)) << "pid " << pid;
  }
}

/// A fresh journaled instance of `method` recovered over `rig`'s devices.
std::unique_ptr<ShardedStore> RecoverDurableRig(const DurableRig& rig,
                                                std::string_view method) {
  auto spec = methods::ParseMethodSpec(std::string(method));
  EXPECT_TRUE(spec.ok());
  auto store = methods::CreateShardedStoreOverDevices(rig.device_ptrs, *spec);
  EXPECT_TRUE(store->EnableMetaJournal().ok());
  EXPECT_TRUE(store->Recover().ok());
  return store;
}

/// Journal-enabled 2-shard store over caller-owned devices, formatted with
/// distinctive durable per-pid images and, with `migrate`, migrated once
/// (buckets 0 <-> 1). Each image is announced as a full-page update before
/// its write-back, since IPL keeps only the update logs it is shown.
DurableRig BuildDurableRig(bool migrate, uint32_t shards = 2,
                           uint32_t pages = 96,
                           std::string_view method = "OPU") {
  auto spec = methods::ParseMethodSpec(std::string(method));
  EXPECT_TRUE(spec.ok());
  DurableRig rig;
  const FlashConfig cfg = FlashConfig::Small(12).WithMetaBlocks(4);
  for (uint32_t i = 0; i < shards; ++i) {
    rig.devices.push_back(std::make_unique<flash::FlashDevice>(cfg));
    rig.device_ptrs.push_back(rig.devices.back().get());
  }
  rig.store = methods::CreateShardedStoreOverDevices(rig.device_ptrs, *spec);
  EXPECT_TRUE(rig.store->EnableMetaJournal().ok());
  EXPECT_TRUE(rig.store->Format(pages, nullptr, nullptr).ok());
  ByteBuffer image(cfg.geometry.data_size);
  for (PageId pid = 0; pid < pages; ++pid) {
    FillRigImage(pid, &image);
    EXPECT_TRUE(rig.store->OnUpdate(pid, image, UpdateLog{0, image}).ok());
    EXPECT_TRUE(rig.store->WriteBack(pid, image).ok());
  }
  EXPECT_TRUE(rig.store->Flush().ok());  // buffered differentials (PDL)
  if (migrate) {
    const std::vector<ShardRouter::Swap> swaps = {ShardRouter::Swap{0, 1}};
    EXPECT_TRUE(rig.store->MigrateBuckets(swaps, nullptr).ok());
    EXPECT_EQ(rig.store->router()->swaps_committed(), 1u);
  }
  return rig;
}

TEST(ShardRouterTest, JournaledStoreRecoversAfterMigration) {
  DurableRig rig = BuildDurableRig(/*migrate=*/true);
  const uint32_t pages = rig.store->num_logical_pages();
  rig.store.reset();  // crash: the in-RAM tables die, the devices survive

  auto recovered = RecoverDurableRig(rig, "OPU");
  EXPECT_EQ(recovered->num_logical_pages(), pages);
  EXPECT_EQ(recovered->router()->swaps_committed(), 1u);
  EXPECT_EQ(recovered->shard_of(0), 1u);  // the migrated routing survived
  EXPECT_EQ(recovered->shard_of(1), 0u);
  ExpectRigImages(recovered.get());
}

/// Fails every data-page program on its chip: a shard whose copies cannot
/// land. Reads, spare programs and erases still succeed.
class FailProgramsInjector : public flash::FaultInjector {
 public:
  void BeforeMutation(flash::OpKind, uint32_t) override {}
  void AfterMutation(flash::OpKind, uint32_t) override {}
  bool FailMutation(flash::OpKind kind, uint32_t) override {
    return kind == flash::OpKind::kProgram;
  }
};

class MigrationFailureTest
    : public ::testing::TestWithParam<std::tuple<const char*, bool>> {};

// A copy that fails after the swap committed (an I/O error, not a power cut)
// leaves the live store unusable, and a fresh journaled instance rolls the
// swap forward from the redo record. Bucket 1 sits on shard 1, whose
// programs all fail; shard 0 holds the journal. Shard 1 is the swap's first
// side, so an inline copy stops before writing shard 0.
TEST_P(MigrationFailureTest, FailedCopyLeavesStoreUnusableAndRollsForward) {
  const auto [method, threaded] = GetParam();
  DurableRig rig = BuildDurableRig(/*migrate=*/false, 2, 96, method);
  FailProgramsInjector fail;
  rig.devices[1]->set_fault_injector(&fail);
  const std::vector<ShardRouter::Swap> swaps = {ShardRouter::Swap{1, 0}};
  if (threaded) {
    ShardExecutor executor(2);
    EXPECT_FALSE(rig.store->MigrateBuckets(swaps, &executor).ok());
  } else {
    EXPECT_FALSE(rig.store->MigrateBuckets(swaps, nullptr).ok());
  }
  ByteBuffer page(rig.devices[0]->geometry().data_size);
  EXPECT_TRUE(rig.store->ReadPage(0, page).IsInvalidArgument());
  EXPECT_TRUE(rig.store->WriteBack(0, page).IsInvalidArgument());
  EXPECT_TRUE(rig.store->MigrateBuckets(swaps, nullptr).IsInvalidArgument());
  rig.devices[1]->set_fault_injector(nullptr);
  rig.store.reset();

  auto recovered = RecoverDurableRig(rig, method);
  EXPECT_EQ(recovered->router()->swaps_committed(), 1u);
  ExpectRigImages(recovered.get());
}

INSTANTIATE_TEST_SUITE_P(
    Methods, MigrationFailureTest,
    ::testing::Combine(::testing::Values("OPU", "PDL(256B)", "IPL(18KB)"),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<const char*, bool>>& info) {
      std::string name = std::get<0>(info.param);
      for (char& c : name) {
        if (!isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name + (std::get<1>(info.param) ? "_threaded" : "_inline");
    });

// Swapping two empty buckets is a journaled routing-only epoch: no copy
// traffic, and the new routing survives a restart. 4 pages over 2 x 8
// buckets leave buckets 4 and 5 empty, on shards 0 and 1.
TEST(ShardRouterTest, EmptyBucketSwapIsRoutingOnlyEpoch) {
  DurableRig rig = BuildDurableRig(/*migrate=*/false, 2, 4, "PDL(256B)");
  const ShardRouter* router = rig.store->router();
  ASSERT_EQ(router->bucket_size(4), 0u);
  ASSERT_EQ(router->bucket_size(5), 0u);
  ASSERT_EQ(router->bucket_shard(4), 0u);
  ASSERT_EQ(router->bucket_shard(5), 1u);
  const uint64_t epochs = rig.store->journal_epochs();
  const std::vector<ShardRouter::Swap> swaps = {ShardRouter::Swap{4, 5}};
  ASSERT_TRUE(rig.store->MigrateBuckets(swaps, nullptr).ok());
  EXPECT_EQ(rig.store->journal_epochs(), epochs + 1);
  EXPECT_EQ(router->bucket_shard(4), 1u);
  const flash::FlashStats stats = rig.store->stats();
  EXPECT_EQ(stats.by_category[static_cast<int>(flash::OpCategory::kMigrate)]
                .total_ops(),
            0u);
  rig.store.reset();

  auto recovered = RecoverDurableRig(rig, "PDL(256B)");
  EXPECT_EQ(recovered->router()->swaps_committed(), 1u);
  EXPECT_EQ(recovered->router()->bucket_shard(4), 1u);
  ExpectRigImages(recovered.get());
}

// Regression for the wear-seeding path: recovery must be idempotent. The
// legacy behavior re-seeded the router's erase-delta baseline from the
// chips' *current* cumulative counters on every Recover(), silently
// forgetting any imbalance accumulated since the last plan; with the journal
// the persisted baseline is restored instead, so repeated Format/Recover
// cycles leave bit-identical router state.
TEST(ShardRouterTest, RecoveryIsIdempotentAcrossCycles) {
  DurableRig rig = BuildDurableRig(/*migrate=*/true);
  const std::vector<uint64_t> persisted_baseline =
      rig.store->router()->erase_baseline();
  rig.store.reset();

  auto spec = methods::ParseMethodSpec("OPU");
  ASSERT_TRUE(spec.ok());
  std::vector<uint64_t> baselines[2];
  std::vector<uint64_t> swap_counts;
  for (int cycle = 0; cycle < 2; ++cycle) {
    auto rec = methods::CreateShardedStoreOverDevices(rig.device_ptrs, *spec);
    ASSERT_TRUE(rec->EnableMetaJournal().ok());
    ASSERT_TRUE(rec->Recover().ok());
    baselines[cycle] = rec->router()->erase_baseline();
    swap_counts.push_back(rec->router()->swaps_committed());
    // Recovery itself wears the chips (obsolete marks); the restored
    // baseline must come from the journal, not from the current counters.
    EXPECT_EQ(baselines[cycle], persisted_baseline) << "cycle " << cycle;
  }
  EXPECT_EQ(baselines[0], baselines[1]);
  EXPECT_EQ(swap_counts[0], swap_counts[1]);
}

// The per-chip recoveries are independent scans: dispatching them to the
// shard workers must produce bit-identical post-recovery state (contents,
// clocks, erase counts) to a sequential recovery of an identical crash
// image.
TEST(ShardRouterTest, ParallelRecoveryMatchesSequential) {
  constexpr uint32_t kShards = 4;
  DurableRig seq_rig = BuildDurableRig(/*migrate=*/true, kShards, 160);
  DurableRig par_rig = BuildDurableRig(/*migrate=*/true, kShards, 160);
  seq_rig.store.reset();
  par_rig.store.reset();

  auto spec = methods::ParseMethodSpec("OPU");
  ASSERT_TRUE(spec.ok());
  auto seq =
      methods::CreateShardedStoreOverDevices(seq_rig.device_ptrs, *spec);
  ASSERT_TRUE(seq->EnableMetaJournal().ok());
  ASSERT_TRUE(seq->Recover().ok());

  auto par =
      methods::CreateShardedStoreOverDevices(par_rig.device_ptrs, *spec);
  ASSERT_TRUE(par->EnableMetaJournal().ok());
  {
    ShardExecutor executor(kShards);
    ASSERT_TRUE(par->Recover(&executor).ok());
  }

  EXPECT_EQ(seq->shard_clocks(), par->shard_clocks());
  EXPECT_EQ(seq->shard_erases(), par->shard_erases());
  EXPECT_EQ(seq->router()->swaps_committed(),
            par->router()->swaps_committed());
  ByteBuffer a(seq_rig.devices[0]->geometry().data_size);
  ByteBuffer b(a.size());
  for (PageId pid = 0; pid < seq->num_logical_pages(); ++pid) {
    ASSERT_TRUE(seq->ReadPage(pid, a).ok());
    ASSERT_TRUE(par->ReadPage(pid, b).ok());
    EXPECT_TRUE(BytesEqual(a, b)) << "pid " << pid;
  }
}

// A journal-less store keeps the legacy contract: same-instance recovery
// after migrations is refused (the volatile table cannot be rebuilt).
TEST(ShardRouterTest, JournallessMigratedStoreStillRefusesRecovery) {
  auto spec = methods::ParseMethodSpec("OPU");
  ASSERT_TRUE(spec.ok());
  auto store = methods::CreateShardedStore(FlashConfig::Small(8), 2, *spec);
  ASSERT_TRUE(store->Format(64, nullptr, nullptr).ok());
  const std::vector<ShardRouter::Swap> swaps = {ShardRouter::Swap{0, 1}};
  ASSERT_TRUE(store->MigrateBuckets(swaps, nullptr).ok());
  EXPECT_FALSE(store->Recover().ok());
}

/// A shard running OPU on its own chip with `data_size`-byte pages.
ShardedStore::Shard OpuShard(uint32_t data_size) {
  FlashConfig cfg = FlashConfig::Small(8);
  cfg.geometry.data_size = data_size;
  ShardedStore::Shard shard;
  shard.owned_device = std::make_unique<flash::FlashDevice>(cfg);
  shard.device = shard.owned_device.get();
  auto spec = methods::ParseMethodSpec("OPU");
  EXPECT_TRUE(spec.ok());
  shard.store = methods::CreateStore(shard.device, *spec);
  return shard;
}

// The shard list is a constructor contract that holds in every build: an
// empty list (which would index shard 0), a shard without a device or
// store, or unequal page data sizes abort with a message.
TEST(ShardedStoreDeathTest, BadShardListsAbort) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  const auto build = [](std::vector<uint32_t> data_sizes, bool drop_store) {
    std::vector<ShardedStore::Shard> shards;
    for (uint32_t size : data_sizes) shards.push_back(OpuShard(size));
    if (drop_store) shards.back().store.reset();
    ShardedStore store(std::move(shards));
  };
  EXPECT_DEATH(build({}, false), "ShardedStore: needs at least one shard");
  EXPECT_DEATH(build({2048}, true), "every shard needs a device and a store");
  EXPECT_DEATH(build({2048, 4096}, false),
               "all shards must share the page data size");
}

}  // namespace
}  // namespace flashdb::ftl
