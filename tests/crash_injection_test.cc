// Crash-injection property tests: cut power at every k-th mutating flash
// operation (both before and after the fatal operation is applied), recover
// with a fresh store, and check the durability contract:
//   * every logical page reads back as SOME version it legitimately had;
//   * every version acknowledged before the last Flush() (write-through) is
//     not rolled back past;
//   * recovery itself can crash and be re-run (paper Section 4.5: "recovery
//     is normally performed even when a system failure repeatedly occurs").

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "common/random.h"
#include "ftl/page_store.h"
#include "ftl/sharded_store.h"
#include "methods/ipl_store.h"
#include "methods/method_factory.h"
#include "pdl/pdl_store.h"
#include "recording_store.h"
#include "storage/buffer_pool.h"
#include "workload/tpcc.h"

namespace flashdb {
namespace {

using flash::CountdownFaultInjector;
using flash::FlashConfig;
using flash::FlashDevice;
using flash::PowerLossError;

struct SeedArg {
  uint64_t seed;
};
void SeededImage(PageId pid, MutBytes page, void* arg) {
  Random r(static_cast<SeedArg*>(arg)->seed ^ (pid * 0x85EBCA6Bu));
  r.Fill(page);
}

/// Seed offset from the environment: the CI fault-matrix job re-runs this
/// suite with FLASHDB_TEST_SEED=1..8, shifting every workload (and with it
/// every cut point) into a different slice of the crash state space. Unset
/// -> 0, the canonical deterministic run.
uint64_t TestSeed(uint64_t base) {
  const char* s = std::getenv("FLASHDB_TEST_SEED");
  const uint64_t env = s != nullptr ? std::strtoull(s, nullptr, 10) : 0;
  return base + env * 1000003ULL;
}

uint32_t PageHash(ConstBytes page) { return Crc32c(page); }

/// Versioned shadow: every content a page ever had, and the version index
/// that was current at the last Flush.
struct VersionTracker {
  // pid -> list of content hashes, oldest first.
  std::map<PageId, std::vector<uint32_t>> versions;
  std::map<PageId, size_t> flushed_version;

  void Init(PageId pid, ConstBytes page) {
    versions[pid] = {PageHash(page)};
    flushed_version[pid] = 0;
  }
  void OnWriteBack(PageId pid, ConstBytes page) {
    versions[pid].push_back(PageHash(page));
  }
  void OnFlush() {
    for (auto& [pid, v] : versions) flushed_version[pid] = v.size() - 1;
  }
  /// True when `page` is an acceptable recovered state for pid.
  bool Acceptable(PageId pid, ConstBytes page) const {
    const uint32_t h = PageHash(page);
    const auto& v = versions.at(pid);
    const size_t min_idx = flushed_version.at(pid);
    for (size_t i = min_idx; i < v.size(); ++i) {
      if (v[i] == h) return true;
    }
    return false;
  }
};

class CrashInjectionTest
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(CrashInjectionTest, PdlRecoversToAcceptableState) {
  const auto& [cut_step, after_apply] = GetParam();
  FlashDevice dev(FlashConfig::Small(8));
  pdl::PdlConfig cfg;
  cfg.max_differential_size = 256;

  const uint32_t pages = 64;
  VersionTracker tracker;
  ByteBuffer buf(dev.geometry().data_size);
  {
    pdl::PdlStore store(&dev, cfg);
    SeedArg arg{TestSeed(11)};
    ASSERT_TRUE(store.Format(pages, &SeededImage, &arg).ok());
    for (PageId pid = 0; pid < pages; ++pid) {
      SeededImage(pid, buf, &arg);
      tracker.Init(pid, buf);
    }
    // Arm the injector only after format so cut_step counts workload ops.
    CountdownFaultInjector fi(static_cast<uint64_t>(cut_step), after_apply);
    dev.set_fault_injector(&fi);
    Random r(TestSeed(cut_step * 31 + (after_apply ? 7 : 0)));
    bool crashed = false;
    try {
      for (int op = 0; op < 4000; ++op) {
        const PageId pid = static_cast<PageId>(r.Uniform(pages));
        ASSERT_TRUE(store.ReadPage(pid, buf).ok());
        for (int m = 0; m < 25; ++m) buf[r.Uniform(buf.size())] ^= 0x6D;
        // Record the version BEFORE issuing the write: a crash mid-WriteBack
        // may legitimately leave the new version durable even though the
        // call never returned.
        tracker.OnWriteBack(pid, buf);
        Status st = store.WriteBack(pid, buf);
        if (!st.ok()) FAIL() << st.ToString();
        if (op % 25 == 24) {
          ASSERT_TRUE(store.Flush().ok());
          tracker.OnFlush();
        }
      }
    } catch (const PowerLossError&) {
      crashed = true;
    }
    dev.set_fault_injector(nullptr);
    ASSERT_TRUE(crashed) << "injector never fired; raise op count";
  }

  // Reboot: fresh store over the surviving flash contents.
  pdl::PdlStore recovered(&dev, cfg);
  ASSERT_TRUE(recovered.Recover().ok());
  ASSERT_EQ(recovered.num_logical_pages(), pages);
  for (PageId pid = 0; pid < pages; ++pid) {
    ASSERT_TRUE(recovered.ReadPage(pid, buf).ok()) << pid;
    EXPECT_TRUE(tracker.Acceptable(pid, buf))
        << "pid " << pid << " recovered to an impossible version (cut_step="
        << cut_step << ", after=" << after_apply << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(
    CutPoints, CrashInjectionTest,
    ::testing::Combine(::testing::Values(1, 3, 7, 15, 31, 63, 127, 255, 511),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<int, bool>>& info) {
      return "cut" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_after" : "_before");
    });

TEST(CrashDuringRecoveryTest, RecoveryRestartsSafely) {
  FlashDevice dev(FlashConfig::Small(8));
  pdl::PdlConfig cfg;
  cfg.max_differential_size = 256;
  const uint32_t pages = 64;
  ByteBuffer buf(dev.geometry().data_size);
  std::map<PageId, ByteBuffer> expected;
  {
    pdl::PdlStore store(&dev, cfg);
    SeedArg arg{TestSeed(13)};
    ASSERT_TRUE(store.Format(pages, &SeededImage, &arg).ok());
    Random r(TestSeed(17));
    for (int op = 0; op < 200; ++op) {
      const PageId pid = static_cast<PageId>(r.Uniform(pages));
      ASSERT_TRUE(store.ReadPage(pid, buf).ok());
      for (int m = 0; m < 20; ++m) buf[r.Uniform(buf.size())] ^= 0x2B;
      ASSERT_TRUE(store.WriteBack(pid, buf).ok());
      expected[pid] = buf;
    }
    ASSERT_TRUE(store.Flush().ok());
  }
  // Crash the recovery scan itself at several points. Recovery mutates flash
  // only by obsoleting useless pages, so a re-run must still succeed.
  for (uint64_t cut : {0ULL, 1ULL, 2ULL, 5ULL}) {
    pdl::PdlStore rec(&dev, cfg);
    CountdownFaultInjector fi(cut, /*cut_after_apply=*/true);
    dev.set_fault_injector(&fi);
    try {
      Status st = rec.Recover();
      (void)st;  // recovery may finish if fewer than `cut` mutations occur
    } catch (const PowerLossError&) {
    }
    dev.set_fault_injector(nullptr);
  }
  // Final, uninterrupted recovery.
  pdl::PdlStore rec(&dev, cfg);
  ASSERT_TRUE(rec.Recover().ok());
  for (const auto& [pid, page] : expected) {
    ASSERT_TRUE(rec.ReadPage(pid, buf).ok());
    EXPECT_TRUE(BytesEqual(buf, page)) << pid;
  }
}

TEST(CrashInjectionOpuTest, OpuRecoversToAcceptableState) {
  for (uint64_t cut : {2ULL, 10ULL, 50ULL, 200ULL}) {
    FlashDevice dev(FlashConfig::Small(8));
    const uint32_t pages = 64;
    VersionTracker tracker;
    ByteBuffer buf(dev.geometry().data_size);
    auto spec = methods::ParseMethodSpec("OPU");
    ASSERT_TRUE(spec.ok());
    {
      auto store = methods::CreateStore(&dev, *spec);
      SeedArg arg{TestSeed(19)};
      ASSERT_TRUE(store->Format(pages, &SeededImage, &arg).ok());
      for (PageId pid = 0; pid < pages; ++pid) {
        SeededImage(pid, buf, &arg);
        tracker.Init(pid, buf);
      }
      tracker.OnFlush();  // OPU WriteBack is immediately durable
      CountdownFaultInjector fi(cut, /*cut_after_apply=*/false);
      dev.set_fault_injector(&fi);
      Random r(TestSeed(cut));
      bool crashed = false;
      try {
        for (int op = 0; op < 300; ++op) {
          const PageId pid = static_cast<PageId>(r.Uniform(pages));
          ASSERT_TRUE(store->ReadPage(pid, buf).ok());
          buf[r.Uniform(buf.size())] ^= 0x99;
          tracker.OnWriteBack(pid, buf);  // possible outcome even if we crash
          ASSERT_TRUE(store->WriteBack(pid, buf).ok());
          tracker.OnFlush();  // acknowledged OPU write-backs are durable
        }
      } catch (const PowerLossError&) {
        crashed = true;
      }
      dev.set_fault_injector(nullptr);
      ASSERT_TRUE(crashed);
    }
    auto recovered = methods::CreateStore(&dev, *spec);
    ASSERT_TRUE(recovered->Recover().ok());
    for (PageId pid = 0; pid < pages; ++pid) {
      ASSERT_TRUE(recovered->ReadPage(pid, buf).ok());
      EXPECT_TRUE(tracker.Acceptable(pid, buf)) << "cut " << cut << " pid "
                                                << pid;
    }
  }
}

// --- IPL power cuts mid-merge ----------------------------------------------
//
// An IPL merge programs a logical block's originals into a block from the
// free list, then erases the old block, so a cut mid-merge leaves a torn
// target beside its complete source. The free list recycles erased blocks,
// so a target can sit below its source, and recovery's scan then meets the
// torn copy first. A fault-free dry run of the seeded workload logs every
// mutation; the cuts sample the original-page programs and erases of merges
// into recycled blocks, on both sides of the atomicity boundary.

/// Logs every mutation's kind and address; never cuts power.
class MutationLog : public flash::FaultInjector {
 public:
  void BeforeMutation(flash::OpKind kind, uint32_t addr) override {
    ops.emplace_back(kind, addr);
  }
  void AfterMutation(flash::OpKind, uint32_t) override {}

  std::vector<std::pair<flash::OpKind, uint32_t>> ops;
};

TEST(IplPowerCutTest, CutsDuringMergesIntoRecycledBlocksRecover) {
  // Four logical blocks of 55 originals on an 8-block chip leave four free
  // blocks, so the fifth of the workload's dozen merges is the first into a
  // recycled block.
  constexpr uint32_t kPages = 220;
  constexpr int kOps = 1800;
  constexpr int kSampledCuts = 12;
  const methods::IplConfig cfg{18 * 1024};
  SeedArg arg{TestSeed(43)};
  // Formats `dev`, arms `fi`, then runs the workload until it ends or power
  // is cut: each op is a 16-byte change announced through OnUpdate and
  // written back at once, so an acknowledged op is durable and an
  // interrupted one leaves its page at the old or the new version.
  auto run = [&](FlashDevice* dev, flash::FaultInjector* fi,
                 VersionTracker* tracker) {
    methods::IplStore store(dev, cfg);
    ByteBuffer page(dev->geometry().data_size);
    ASSERT_TRUE(store.Format(kPages, &SeededImage, &arg).ok());
    for (PageId pid = 0; pid < kPages; ++pid) {
      SeededImage(pid, page, &arg);
      tracker->Init(pid, page);
    }
    dev->set_fault_injector(fi);
    Random r(TestSeed(47));
    UpdateLog log;
    try {
      for (int op = 0; op < kOps; ++op) {
        const PageId pid = static_cast<PageId>(r.Uniform(kPages));
        ASSERT_TRUE(store.ReadPage(pid, page).ok());
        log.offset = static_cast<uint32_t>(r.Uniform(page.size() - 16));
        log.data.resize(16);
        r.Fill(log.data);
        std::copy(log.data.begin(), log.data.end(),
                  page.begin() + log.offset);
        ASSERT_TRUE(store.OnUpdate(pid, page, log).ok());
        tracker->OnWriteBack(pid, page);
        ASSERT_TRUE(store.WriteBack(pid, page).ok());
        tracker->OnFlush();
      }
    } catch (const PowerLossError&) {
    }
    dev->set_fault_injector(nullptr);
  };

  std::vector<uint64_t> candidates;
  {
    FlashDevice dev(FlashConfig::Small(8));
    MutationLog mutations;
    VersionTracker tracker;
    run(&dev, &mutations, &tracker);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    const uint32_t origs = methods::IplStore(&dev, cfg).orig_pages_per_block();
    // Only merges erase. A merge programs the target's originals, then
    // erases the old block, which the free list later hands out again.
    std::vector<bool> recycled(dev.geometry().num_blocks, false);
    for (size_t i = 0; i < mutations.ops.size(); ++i) {
      const auto& [kind, addr] = mutations.ops[i];
      if (kind == flash::OpKind::kProgram) {
        if (dev.PageInBlock(addr) < origs && recycled[dev.BlockOf(addr)]) {
          candidates.push_back(i);
        }
      } else if (kind == flash::OpKind::kErase) {
        const flash::PhysAddr target = mutations.ops[i - 1].second;
        if (recycled[dev.BlockOf(target)]) candidates.push_back(i);
        recycled[dev.BlockOf(addr)] = true;
      }
    }
  }
  ASSERT_GT(candidates.size(), 200u) << "too few merges into recycled blocks";

  Random pick(TestSeed(53));
  for (int sample = 0; sample < kSampledCuts; ++sample) {
    const uint64_t cut = candidates[pick.Uniform(candidates.size())];
    for (bool after_apply : {false, true}) {
      FlashDevice dev(FlashConfig::Small(8));
      CountdownFaultInjector fi(cut, after_apply);
      VersionTracker tracker;
      run(&dev, &fi, &tracker);
      ASSERT_FALSE(::testing::Test::HasFatalFailure());
      ASSERT_FALSE(fi.armed()) << "cut " << cut << " never fired";
      methods::IplStore recovered(&dev, cfg);
      ASSERT_TRUE(recovered.Recover().ok());
      ASSERT_EQ(recovered.num_logical_pages(), kPages);
      ByteBuffer page(dev.geometry().data_size);
      for (PageId pid = 0; pid < kPages; ++pid) {
        ASSERT_TRUE(recovered.ReadPage(pid, page).ok()) << pid;
        ASSERT_TRUE(tracker.Acceptable(pid, page))
            << "pid " << pid << " recovered to a version it never had (cut "
            << cut << (after_apply ? " after" : " before") << " apply)";
      }
    }
  }
}

// --- Torn meta-record injection: crash-atomic bucket migration -------------
//
// A journaled ShardedStore migrates a bucket pair while a countdown fault
// injector cuts power at every possible mutating operation: during the
// journal append (the record tears, the swap rolls back) and during the data
// copies (the record committed, the swap rolls forward via the redo
// payload). After every cut, a fresh store over the surviving devices must
// Recover() to a *committed epoch*: logical page contents bit-identical to
// the pre-migration shadow (migration never changes logical contents), and
// the swap count either the pre-swap or the fully-post-swap value -- never
// anything in between.

constexpr uint32_t kMigShards = 2;
constexpr uint32_t kMigPages = 64;

struct MigrationRig {
  std::vector<std::unique_ptr<flash::FlashDevice>> devices;
  std::vector<flash::FlashDevice*> device_ptrs;
  std::unique_ptr<ftl::ShardedStore> store;
};

/// Deterministically builds devices + journaled store, formats, applies a
/// fixed write workload (so buckets hold distinct post-format content), and
/// returns the rig. Two calls produce bit-identical flash images.
MigrationRig BuildMigrationRig(const methods::MethodSpec& spec) {
  MigrationRig rig;
  const FlashConfig cfg = FlashConfig::Small(12).WithMetaBlocks(4);
  for (uint32_t i = 0; i < kMigShards; ++i) {
    rig.devices.push_back(std::make_unique<FlashDevice>(cfg));
    rig.device_ptrs.push_back(rig.devices.back().get());
  }
  rig.store = methods::CreateShardedStoreOverDevices(rig.device_ptrs, spec);
  EXPECT_TRUE(rig.store->EnableMetaJournal().ok());
  SeedArg arg{TestSeed(23)};
  EXPECT_TRUE(rig.store->Format(kMigPages, &SeededImage, &arg).ok());
  ByteBuffer buf(cfg.geometry.data_size);
  Random r(TestSeed(71));
  for (int op = 0; op < 200; ++op) {
    const PageId pid = static_cast<PageId>(r.Uniform(kMigPages));
    EXPECT_TRUE(rig.store->ReadPage(pid, buf).ok());
    for (int m = 0; m < 10; ++m) buf[r.Uniform(buf.size())] ^= 0x4F;
    EXPECT_TRUE(rig.store->WriteBack(pid, buf).ok());
  }
  EXPECT_TRUE(rig.store->Flush().ok());
  return rig;
}

std::vector<ByteBuffer> SnapshotContents(ftl::ShardedStore* store) {
  std::vector<ByteBuffer> shadow(kMigPages);
  ByteBuffer buf(store->device()->geometry().data_size);
  for (PageId pid = 0; pid < kMigPages; ++pid) {
    EXPECT_TRUE(store->ReadPage(pid, buf).ok()) << pid;
    shadow[pid] = buf;
  }
  return shadow;
}

class TornMetaRecordTest : public ::testing::TestWithParam<const char*> {};

TEST_P(TornMetaRecordTest, MigrationPowerCutsRecoverToCommittedEpoch) {
  auto spec = methods::ParseMethodSpec(GetParam());
  ASSERT_TRUE(spec.ok());
  // Buckets 0 and 1 live on shards 0 and 1 under identity routing; swapping
  // them is a legal equal-size cross-shard migration (64 pages over 16
  // buckets: every bucket holds 4 pages).
  const std::vector<ftl::ShardRouter::Swap> plan = {{0, 1}};

  // Reference run: count the mutations an uninterrupted migration performs,
  // and capture the logical contents (which migration must not change).
  uint64_t total_mutations = 0;
  std::vector<ByteBuffer> shadow;
  {
    MigrationRig rig = BuildMigrationRig(*spec);
    shadow = SnapshotContents(rig.store.get());
    flash::FlashStats before[kMigShards];
    for (uint32_t i = 0; i < kMigShards; ++i) {
      before[i] = rig.devices[i]->stats();
    }
    ASSERT_TRUE(rig.store->MigrateBuckets(plan, nullptr).ok());
    for (uint32_t i = 0; i < kMigShards; ++i) {
      const flash::OpCounters d =
          rig.devices[i]->stats().total - before[i].total;
      total_mutations += d.writes + d.erases;
    }
    ASSERT_GT(total_mutations, 4u) << "migration did almost nothing";
    // Contents unchanged by a completed migration.
    const std::vector<ByteBuffer> after = SnapshotContents(rig.store.get());
    for (PageId pid = 0; pid < kMigPages; ++pid) {
      ASSERT_TRUE(BytesEqual(after[pid], shadow[pid])) << pid;
    }
  }

  // Cut at every mutation boundary. Early cuts land inside the journal
  // append (mid-journal-append tears the record -> rollback); later cuts
  // land inside the bucket copies (record committed -> roll-forward redo).
  uint64_t rollbacks = 0;
  uint64_t rollforwards = 0;
  for (uint64_t cut = 0; cut < total_mutations; ++cut) {
    // Cut each device in turn: shard 0 carries the journal and one side of
    // the copy, shard 1 the other side.
    for (uint32_t victim = 0; victim < kMigShards; ++victim) {
      MigrationRig run = BuildMigrationRig(*spec);
      CountdownFaultInjector fi(cut, /*cut_after_apply=*/(cut % 2) == 0);
      run.devices[victim]->set_fault_injector(&fi);
      bool crashed = false;
      try {
        const Status st = run.store->MigrateBuckets(plan, nullptr);
        (void)st;
      } catch (const PowerLossError&) {
        crashed = true;
      }
      run.devices[victim]->set_fault_injector(nullptr);
      if (!crashed) continue;  // countdown outlived this device's share

      // Reboot: fresh stores over the surviving flash.
      auto recovered =
          methods::CreateShardedStoreOverDevices(run.device_ptrs, *spec);
      ASSERT_TRUE(recovered->EnableMetaJournal().ok());
      const Status rst = recovered->Recover();
      ASSERT_TRUE(rst.ok()) << "cut=" << cut << " victim=" << victim << ": "
                            << rst.ToString();
      const uint64_t swaps = recovered->router()->swaps_committed();
      ASSERT_TRUE(swaps == 0 || swaps == 1)
          << "half-migrated swap count " << swaps;
      if (swaps == 0) {
        ++rollbacks;
      } else {
        ++rollforwards;
      }
      ByteBuffer buf(run.devices[0]->geometry().data_size);
      for (PageId pid = 0; pid < kMigPages; ++pid) {
        ASSERT_TRUE(recovered->ReadPage(pid, buf).ok())
            << "cut=" << cut << " victim=" << victim << " pid=" << pid;
        ASSERT_TRUE(BytesEqual(buf, shadow[pid]))
            << "cut=" << cut << " victim=" << victim << " pid=" << pid
            << ": recovered to a half-migrated image";
      }
    }
  }
  // Both crash phases must actually have been exercised.
  EXPECT_GT(rollbacks, 0u) << "no cut landed before the record committed";
  EXPECT_GT(rollforwards, 0u) << "no cut landed after the record committed";
}

INSTANTIATE_TEST_SUITE_P(Methods, TornMetaRecordTest,
                         ::testing::Values("OPU", "PDL(256B)"),
                         [](const ::testing::TestParamInfo<const char*>& i) {
                           std::string name = i.param;
                           for (char& c : name) {
                             if (!isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

TEST(TornMetaRecordTest, CrashDuringRecoveryRedoIsRestartable) {
  // Commit a migration record but crash before the copies finish; then crash
  // the *recovery redo* itself several times. Redo is idempotent full-page
  // writes, so recovery must succeed no matter how often it is interrupted.
  auto spec = methods::ParseMethodSpec("OPU");
  ASSERT_TRUE(spec.ok());
  const std::vector<ftl::ShardRouter::Swap> plan = {{0, 1}};
  MigrationRig rig = BuildMigrationRig(*spec);
  const std::vector<ByteBuffer> shadow = SnapshotContents(rig.store.get());

  // Crash the original migration late enough that the journal record is
  // durable (it is appended before any copy write): cut shard 1, whose first
  // mutation is already a copy write.
  CountdownFaultInjector fi(0, /*cut_after_apply=*/false);
  rig.devices[1]->set_fault_injector(&fi);
  bool crashed = false;
  try {
    (void)rig.store->MigrateBuckets(plan, nullptr);
  } catch (const PowerLossError&) {
    crashed = true;
  }
  rig.devices[1]->set_fault_injector(nullptr);
  ASSERT_TRUE(crashed);

  for (uint64_t cut : {1ULL, 3ULL, 9ULL, 27ULL}) {
    auto rec = methods::CreateShardedStoreOverDevices(rig.device_ptrs, *spec);
    ASSERT_TRUE(rec->EnableMetaJournal().ok());
    CountdownFaultInjector rfi(cut, /*cut_after_apply=*/true);
    rig.devices[0]->set_fault_injector(&rfi);
    try {
      const Status st = rec->Recover();
      (void)st;  // may finish when fewer than `cut` mutations occur
    } catch (const PowerLossError&) {
    }
    rig.devices[0]->set_fault_injector(nullptr);
  }

  auto rec = methods::CreateShardedStoreOverDevices(rig.device_ptrs, *spec);
  ASSERT_TRUE(rec->EnableMetaJournal().ok());
  ASSERT_TRUE(rec->Recover().ok());
  EXPECT_EQ(rec->router()->swaps_committed(), 1u);
  ByteBuffer buf(rig.devices[0]->geometry().data_size);
  for (PageId pid = 0; pid < kMigPages; ++pid) {
    ASSERT_TRUE(rec->ReadPage(pid, buf).ok()) << pid;
    EXPECT_TRUE(BytesEqual(buf, shadow[pid])) << pid;
  }
}


// --- Grown bad blocks: mid-workload remap and power-cut durability ---------
//
// A block whose erase fails mid-workload (EraseFailureInjector) must be
// taken out of service transparently: the store marks its OOB byte, routes
// allocation around it, and keeps serving the workload. The remap must then
// survive a power cut: a fresh store recovering over the surviving flash
// re-excludes the block, both from the durable OOB mark it re-reads during
// its normal spare scan and from the bad-block list in the meta journal's
// snapshot (which covers a cut landing between the in-RAM exclusion and the
// OOB program).

class GrownBadBlockTest : public ::testing::TestWithParam<const char*> {};

TEST_P(GrownBadBlockTest, WorkloadRoutesAroundGrownBadBlock) {
  const FlashConfig cfg = FlashConfig::Small(8);
  FlashDevice dev(cfg);
  flash::EraseFailureInjector fi(cfg.geometry.pages_per_block);
  auto spec = methods::ParseMethodSpec(GetParam());
  ASSERT_TRUE(spec.ok());
  auto store = methods::CreateStore(&dev, *spec);
  const uint32_t pages = 64;
  SeedArg arg{TestSeed(29)};
  ASSERT_TRUE(store->Format(pages, &SeededImage, &arg).ok());

  std::map<PageId, ByteBuffer> shadow;
  ByteBuffer buf(cfg.geometry.data_size);
  dev.set_fault_injector(&fi);
  fi.Arm();
  Random r(TestSeed(37));
  int op = 0;
  for (; op < 4000 && fi.failed_blocks().empty(); ++op) {
    const PageId pid = static_cast<PageId>(r.Uniform(pages));
    ASSERT_TRUE(store->ReadPage(pid, buf).ok());
    for (int m = 0; m < 15; ++m) buf[r.Uniform(buf.size())] ^= 0x5C;
    ASSERT_TRUE(store->WriteBack(pid, buf).ok()) << "op " << op;
    shadow[pid] = buf;
  }
  ASSERT_EQ(fi.failed_blocks().size(), 1u) << "GC never erased; raise ops";
  const uint32_t bad = fi.failed_blocks()[0];

  // The store absorbed the failure: block out of service, OOB marked, and
  // the workload keeps running with the remaining capacity.
  EXPECT_EQ(store->bad_blocks(), std::vector<uint32_t>{bad});
  EXPECT_TRUE(dev.HasBadBlockOob(bad));
  for (int more = 0; more < 500; ++more, ++op) {
    const PageId pid = static_cast<PageId>(r.Uniform(pages));
    ASSERT_TRUE(store->ReadPage(pid, buf).ok());
    for (int m = 0; m < 15; ++m) buf[r.Uniform(buf.size())] ^= 0x5C;
    ASSERT_TRUE(store->WriteBack(pid, buf).ok()) << "op " << op;
    shadow[pid] = buf;
  }
  ASSERT_TRUE(store->Flush().ok());
  dev.set_fault_injector(nullptr);
  for (const auto& [pid, page] : shadow) {
    ASSERT_TRUE(store->ReadPage(pid, buf).ok());
    EXPECT_TRUE(BytesEqual(buf, page)) << pid;
  }
}

INSTANTIATE_TEST_SUITE_P(Methods, GrownBadBlockTest,
                         ::testing::Values("OPU", "PDL(256B)"),
                         [](const ::testing::TestParamInfo<const char*>& i) {
                           std::string name = i.param;
                           for (char& c : name) {
                             if (!isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

TEST(GrownBadBlockTest, RemapSurvivesPowerCutAndJournaledRecovery) {
  auto spec = methods::ParseMethodSpec("OPU");
  ASSERT_TRUE(spec.ok());
  MigrationRig rig = BuildMigrationRig(*spec);
  ByteBuffer buf(rig.devices[0]->geometry().data_size);

  // Grow a bad block on shard 0 mid-workload.
  flash::EraseFailureInjector efi(
      rig.devices[0]->geometry().pages_per_block);
  rig.devices[0]->set_fault_injector(&efi);
  efi.Arm();
  Random r(TestSeed(41));
  int op = 0;
  for (; op < 20000 && efi.failed_blocks().empty(); ++op) {
    const PageId pid = static_cast<PageId>(r.Uniform(kMigPages));
    ASSERT_TRUE(rig.store->ReadPage(pid, buf).ok());
    for (int m = 0; m < 15; ++m) buf[r.Uniform(buf.size())] ^= 0x33;
    ASSERT_TRUE(rig.store->WriteBack(pid, buf).ok()) << "op " << op;
  }
  rig.devices[0]->set_fault_injector(nullptr);
  ASSERT_EQ(efi.failed_blocks().size(), 1u) << "GC never erased; raise ops";
  const uint32_t bad = efi.failed_blocks()[0];
  EXPECT_EQ(rig.store->shard(0)->bad_blocks(), std::vector<uint32_t>{bad});

  // A migration epoch appends a meta-journal snapshot, which now carries the
  // bad-block list (the belt to the OOB mark's braces).
  const std::vector<ftl::ShardRouter::Swap> plan = {{0, 1}};
  ASSERT_TRUE(rig.store->MigrateBuckets(plan, nullptr).ok());

  // More durable write-backs, then a power cut mid-workload on shard 0. A
  // cut mid-WriteBack may legitimately leave the new version durable even
  // though the call never returned, so track acceptable versions rather
  // than one exact image.
  VersionTracker tracker;
  for (PageId pid = 0; pid < kMigPages; ++pid) {
    ASSERT_TRUE(rig.store->ReadPage(pid, buf).ok());
    tracker.Init(pid, buf);
  }
  tracker.OnFlush();
  CountdownFaultInjector cfi(40, /*cut_after_apply=*/true);
  rig.devices[0]->set_fault_injector(&cfi);
  bool crashed = false;
  try {
    for (int i = 0; i < 2000; ++i, ++op) {
      const PageId pid = static_cast<PageId>(r.Uniform(kMigPages));
      if (!rig.store->ReadPage(pid, buf).ok()) break;
      for (int m = 0; m < 15; ++m) buf[r.Uniform(buf.size())] ^= 0x33;
      tracker.OnWriteBack(pid, buf);
      if (!rig.store->WriteBack(pid, buf).ok()) break;
      tracker.OnFlush();  // acknowledged OPU write-backs are durable
    }
  } catch (const PowerLossError&) {
    crashed = true;
  }
  rig.devices[0]->set_fault_injector(nullptr);
  ASSERT_TRUE(crashed) << "power cut never fired";

  // Reboot: the recovered store must re-exclude the grown bad block and
  // read back an acceptable version of every page.
  auto recovered =
      methods::CreateShardedStoreOverDevices(rig.device_ptrs, *spec);
  ASSERT_TRUE(recovered->EnableMetaJournal().ok());
  ASSERT_TRUE(recovered->Recover().ok());
  EXPECT_EQ(recovered->shard(0)->bad_blocks(), std::vector<uint32_t>{bad});
  for (PageId pid = 0; pid < kMigPages; ++pid) {
    ASSERT_TRUE(recovered->ReadPage(pid, buf).ok()) << pid;
    EXPECT_TRUE(tracker.Acceptable(pid, buf)) << pid;
  }

  // Deterministic remap: a second independent recovery over the same flash
  // reaches the identical bad-block list.
  auto again =
      methods::CreateShardedStoreOverDevices(rig.device_ptrs, *spec);
  ASSERT_TRUE(again->EnableMetaJournal().ok());
  ASSERT_TRUE(again->Recover().ok());
  EXPECT_EQ(again->shard(0)->bad_blocks(),
            recovered->shard(0)->bad_blocks());
}

// --- Scrub relocation under power cuts -------------------------------------
//
// A background scrub relocates live pages whose read-disturb exposure crossed
// the device limit. Relocation rides the stores' normal write-new-then-
// obsolete path, so a power cut at ANY mutating operation of the sweep must
// recover to the pre-scrub logical contents: the page either moved (newest
// timestamp wins) or it did not -- never a torn in-between. The journaled
// epoch appended after the sweep gets the same torn-tail treatment as a
// migration record.

/// BuildMigrationRig variant with a low read-disturb limit plus a read-heavy
/// tail that pushes a handful of pages over it, so the devices hold flagged
/// scrub candidates. Deterministic: two calls produce bit-identical rigs.
MigrationRig BuildScrubRig(const methods::MethodSpec& spec) {
  MigrationRig rig;
  FlashConfig cfg = FlashConfig::Small(12).WithMetaBlocks(4);
  cfg.read_disturb_limit = 24;
  for (uint32_t i = 0; i < kMigShards; ++i) {
    rig.devices.push_back(std::make_unique<FlashDevice>(cfg));
    rig.device_ptrs.push_back(rig.devices.back().get());
  }
  rig.store = methods::CreateShardedStoreOverDevices(rig.device_ptrs, spec);
  EXPECT_TRUE(rig.store->EnableMetaJournal().ok());
  SeedArg arg{TestSeed(31)};
  EXPECT_TRUE(rig.store->Format(kMigPages, &SeededImage, &arg).ok());
  ByteBuffer buf(cfg.geometry.data_size);
  Random r(TestSeed(83));
  for (int op = 0; op < 150; ++op) {
    const PageId pid = static_cast<PageId>(r.Uniform(kMigPages));
    EXPECT_TRUE(rig.store->ReadPage(pid, buf).ok());
    for (int m = 0; m < 10; ++m) buf[r.Uniform(buf.size())] ^= 0x5A;
    EXPECT_TRUE(rig.store->WriteBack(pid, buf).ok());
  }
  EXPECT_TRUE(rig.store->Flush().ok());
  // Hammer a few pages past the disturb limit so their physical homes get
  // flagged for scrub.
  for (int pass = 0; pass < 30; ++pass) {
    for (PageId pid = 0; pid < 8; ++pid) {
      EXPECT_TRUE(rig.store->ReadPage(pid, buf).ok());
    }
  }
  return rig;
}

class ScrubCrashTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ScrubCrashTest, ScrubPowerCutsRecoverPreScrubContents) {
  auto spec = methods::ParseMethodSpec(GetParam());
  ASSERT_TRUE(spec.ok());

  // Reference run: capture the logical contents (scrub must not change them)
  // and count the mutations an uninterrupted sweep performs. SnapshotContents
  // itself advances the disturb counters, so the cut runs below snapshot too,
  // keeping every rig bit-identical at the moment the sweep starts.
  uint64_t total_mutations = 0;
  std::vector<ByteBuffer> shadow;
  {
    MigrationRig rig = BuildScrubRig(*spec);
    shadow = SnapshotContents(rig.store.get());
    flash::FlashStats before[kMigShards];
    for (uint32_t i = 0; i < kMigShards; ++i) {
      before[i] = rig.devices[i]->stats();
    }
    ftl::ShardedStore::ScrubResult res;
    ASSERT_TRUE(rig.store->ScrubShards(&res).ok());
    ASSERT_GT(res.candidates, 0u) << "disturb limit never tripped";
    ASSERT_GT(res.relocated, 0u) << "no live page was relocated";
    for (uint32_t i = 0; i < kMigShards; ++i) {
      const flash::OpCounters d =
          rig.devices[i]->stats().total - before[i].total;
      total_mutations += d.writes + d.erases;
    }
    ASSERT_GT(total_mutations, 0u);
    const std::vector<ByteBuffer> after = SnapshotContents(rig.store.get());
    for (PageId pid = 0; pid < kMigPages; ++pid) {
      ASSERT_TRUE(BytesEqual(after[pid], shadow[pid]))
          << "scrub changed pid " << pid;
    }
  }

  // Cut at every mutation boundary of the sweep, on each device in turn
  // (shard 0 also carries the journal epoch appended after the relocations).
  uint64_t crashes = 0;
  for (uint64_t cut = 0; cut < total_mutations; ++cut) {
    for (uint32_t victim = 0; victim < kMigShards; ++victim) {
      MigrationRig run = BuildScrubRig(*spec);
      (void)SnapshotContents(run.store.get());  // mirror the reference reads
      CountdownFaultInjector fi(cut, /*cut_after_apply=*/(cut % 2) == 0);
      run.devices[victim]->set_fault_injector(&fi);
      bool crashed = false;
      try {
        ftl::ShardedStore::ScrubResult res;
        const Status st = run.store->ScrubShards(&res);
        (void)st;
      } catch (const PowerLossError&) {
        crashed = true;
      }
      run.devices[victim]->set_fault_injector(nullptr);
      if (!crashed) continue;  // countdown outlived this device's share
      ++crashes;

      // Reboot: fresh stores over the surviving flash. Logical contents must
      // be exactly the pre-scrub shadow -- relocation moves bits, it never
      // changes them.
      auto recovered =
          methods::CreateShardedStoreOverDevices(run.device_ptrs, *spec);
      ASSERT_TRUE(recovered->EnableMetaJournal().ok());
      const Status rst = recovered->Recover();
      ASSERT_TRUE(rst.ok()) << "cut=" << cut << " victim=" << victim << ": "
                            << rst.ToString();
      ByteBuffer buf(run.devices[0]->geometry().data_size);
      for (PageId pid = 0; pid < kMigPages; ++pid) {
        ASSERT_TRUE(recovered->ReadPage(pid, buf).ok())
            << "cut=" << cut << " victim=" << victim << " pid=" << pid;
        ASSERT_TRUE(BytesEqual(buf, shadow[pid]))
            << "cut=" << cut << " victim=" << victim << " pid=" << pid
            << ": recovered to a torn relocation";
      }
    }
  }
  EXPECT_GT(crashes, 0u) << "no cut landed inside the sweep";
}

INSTANTIATE_TEST_SUITE_P(Methods, ScrubCrashTest,
                         ::testing::Values("OPU", "PDL(256B)"),
                         [](const ::testing::TestParamInfo<const char*>& i) {
                           std::string name = i.param;
                           for (char& c : name) {
                             if (!isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

// --- OLTP power cuts: torn FlushAll batches vs the commit-order log ---------
//
// The serving layer commits a TPC-C transaction by handing the BufferPool's
// dirty frames to the store as one WriteBatch followed by a Flush (the
// write-through contract of flush-every-txn serving). A power cut can land
// on any mutating flash operation inside that commit. Against a recording of
// the reference run's write images and commit markers, recovery must honor:
//   * durability floor -- every transaction whose FlushAll was acknowledged
//     is fully durable: no page rolls back past the last commit marker;
//   * per-page write atomicity -- a page the in-flight commit touched reads
//     back as either its last-committed image or its recorded new image,
//     never a torn blend, and pages the in-flight commit did not touch are
//     untouched (no invented or resurrected writes). Durability order
//     *within* the batch is method-specific -- OPU programs pages in batch
//     order, PDL defers small differentials to Flush but merges oversized
//     ones into immediate full-page programs -- so the durable subset of
//     the in-flight batch is arbitrary; the guarantee is the bracket, not
//     an order;
//   * redo closure -- re-applying the in-flight commit's recorded batch
//     (idempotent full-page redo, the standard recovery move) lands the
//     store bit-exactly on the next commit marker. A recovery that replays
//     the commit-order log's write images therefore always surfaces a
//     commit-boundary state: the database equals the result of some prefix
//     of the commit-order log, and no torn transaction is visible through
//     the B-tree, because every logical page equals its post-commit image.

workload::TpccScale OltpCrashScale() {
  workload::TpccScale s;
  s.warehouses = 2;
  s.districts_per_warehouse = 2;
  s.customers_per_district = 30;
  s.items = 200;
  s.init_orders_per_district = 10;
  s.transaction_headroom = 400;
  return s;
}

constexpr uint32_t kOltpPageSize = 2048;  // FlashConfig::Small geometry

struct OltpRig {
  std::unique_ptr<FlashDevice> dev;
  std::unique_ptr<PageStore> store;
  std::unique_ptr<RecordingStore> rec;
  std::unique_ptr<storage::BufferPool> pool;
  std::unique_ptr<workload::TpccWorkload> wl;
};

/// Deterministically builds device + store + pool + loaded TPC-C instance and
/// flushes the load, so all further flash traffic comes from transaction
/// commits. The frame count covers every logical page: no evictions, so
/// flash mutates only inside FlushAll -- every cut lands inside a commit.
OltpRig BuildOltpRig(const methods::MethodSpec& spec) {
  OltpRig rig;
  const workload::TpccScale scale = OltpCrashScale();
  const uint32_t pages =
      workload::TpccWorkload::RequiredPages(scale, kOltpPageSize);
  const uint32_t blocks = (pages * 2) / 64 + 8;
  rig.dev = std::make_unique<FlashDevice>(FlashConfig::Small(blocks));
  rig.store = methods::CreateStore(rig.dev.get(), spec);
  EXPECT_TRUE(rig.store->Format(pages, nullptr, nullptr).ok());
  rig.rec = std::make_unique<RecordingStore>(rig.store.get());
  rig.pool = std::make_unique<storage::BufferPool>(rig.rec.get(), pages);
  rig.wl = std::make_unique<workload::TpccWorkload>(rig.pool.get(), scale,
                                                    TestSeed(47));
  EXPECT_TRUE(rig.wl->Load().ok());
  EXPECT_TRUE(rig.pool->FlushAll().ok());
  return rig;
}

class OltpCrashTest : public ::testing::TestWithParam<const char*> {};

TEST_P(OltpCrashTest, FlushAllPowerCutsRecoverToCommitLogPrefix) {
  auto spec = methods::ParseMethodSpec(GetParam());
  ASSERT_TRUE(spec.ok());
  const workload::TpccScale scale = OltpCrashScale();
  const uint32_t pages =
      workload::TpccWorkload::RequiredPages(scale, kOltpPageSize);
  constexpr uint64_t kTxns = 40;

  // Reference run: base state after load, every page image the commit path
  // writes (in order), the commit markers, and the mutation count that
  // bounds the cut sweep.
  uint64_t total_mutations = 0;
  std::vector<uint32_t> base_hashes;
  std::vector<RecordingStore::Write> wlog;
  std::vector<size_t> marks;
  {
    OltpRig rig = BuildOltpRig(*spec);
    ByteBuffer buf(rig.dev->geometry().data_size);
    for (PageId pid = 0; pid < pages; ++pid) {
      ASSERT_TRUE(rig.store->ReadPage(pid, buf).ok()) << pid;
      base_hashes.push_back(PageHash(buf));
    }
    const flash::OpCounters before = rig.dev->stats().total;
    rig.rec->StartRecording();
    for (uint64_t t = 0; t < kTxns; ++t) {
      workload::TpccTxnType type;
      uint32_t w = 0;
      ASSERT_TRUE(rig.wl->RunTransactionDrawing(&type, &w).ok()) << t;
      ASSERT_TRUE(rig.pool->FlushAll().ok()) << t;
      marks.push_back(rig.rec->writes().size());
    }
    const flash::OpCounters d = rig.dev->stats().total - before;
    total_mutations = d.writes + d.erases;
    wlog = rig.rec->writes();
  }
  ASSERT_EQ(marks.size(), kTxns);
  ASSERT_GT(wlog.size(), 0u);
  ASSERT_GT(total_mutations, 16u) << "too few mutations to sweep cuts over";

  // Cut sweep spanning the whole serving phase, alternating before/after the
  // fatal operation.
  uint64_t boundary_hits = 0;
  uint64_t torn_hits = 0;
  constexpr int kCuts = 12;
  for (int i = 0; i < kCuts; ++i) {
    const uint64_t cut = 1 + (total_mutations - 2) * i / (kCuts - 1);
    const bool after_apply = (i % 2) == 0;
    OltpRig run = BuildOltpRig(*spec);
    ByteBuffer buf(run.dev->geometry().data_size);
    // Mirror the reference's base reads so the device histories stay
    // bit-identical up to the cut.
    for (PageId pid = 0; pid < pages; ++pid) {
      ASSERT_TRUE(run.store->ReadPage(pid, buf).ok()) << pid;
    }
    CountdownFaultInjector fi(cut, after_apply);
    run.dev->set_fault_injector(&fi);
    uint64_t completed = 0;
    bool crashed = false;
    Status run_error;
    try {
      for (uint64_t t = 0; t < kTxns; ++t) {
        workload::TpccTxnType type;
        uint32_t w = 0;
        run_error = run.wl->RunTransactionDrawing(&type, &w);
        if (!run_error.ok()) break;
        run_error = run.pool->FlushAll();
        if (!run_error.ok()) break;
        ++completed;
      }
    } catch (const PowerLossError&) {
      crashed = true;
    }
    run.dev->set_fault_injector(nullptr);
    ASSERT_TRUE(run_error.ok())
        << "cut=" << cut << ": " << run_error.ToString();
    ASSERT_TRUE(crashed) << "cut=" << cut << " never fired";
    ASSERT_LT(completed, kTxns);

    // Reboot: abandon the RAM state, recover a fresh store over the
    // surviving flash, and hash every logical page.
    run.wl.reset();
    run.pool.reset();
    run.rec.reset();
    run.store.reset();
    auto recovered = methods::CreateStore(run.dev.get(), *spec);
    ASSERT_TRUE(recovered->Recover().ok()) << "cut=" << cut;
    std::vector<uint32_t> got;
    for (PageId pid = 0; pid < pages; ++pid) {
      ASSERT_TRUE(recovered->ReadPage(pid, buf).ok())
          << "cut=" << cut << " pid=" << pid;
      got.push_back(PageHash(buf));
    }

    // Durability floor + per-page write atomicity: every page must read as
    // its image at the last acked commit, or -- for pages the in-flight
    // commit touched -- its recorded new image. Anything else is a rollback
    // past an acknowledged commit, a torn page, or an invented write.
    const size_t lo = completed == 0 ? 0 : marks[completed - 1];
    const size_t hi = marks[completed];
    std::vector<uint32_t> committed = base_hashes;
    for (size_t m = 0; m < lo; ++m) {
      committed[wlog[m].pid] = PageHash(wlog[m].image);
    }
    std::map<PageId, uint32_t> inflight;  // pid -> recorded new image hash
    for (size_t m = lo; m < hi; ++m) {
      inflight[wlog[m].pid] = PageHash(wlog[m].image);
    }
    uint64_t applied = 0;
    uint64_t pending = 0;
    for (PageId pid = 0; pid < pages; ++pid) {
      const auto it = inflight.find(pid);
      if (it != inflight.end() && got[pid] == it->second) {
        if (it->second != committed[pid]) ++applied;
        continue;
      }
      ASSERT_EQ(got[pid], committed[pid])
          << "cut=" << cut << " pid=" << pid << ": neither the image at "
          << "commit " << completed << " nor the in-flight commit's write";
      if (it != inflight.end() && it->second != committed[pid]) ++pending;
    }
    if (applied == 0 || pending == 0) {
      ++boundary_hits;
    } else {
      ++torn_hits;
    }

    // Redo closure: idempotent full-page redo of the in-flight commit's
    // recorded batch must land bit-exactly on the next commit marker.
    std::vector<PageWrite> redo;
    for (size_t m = lo; m < hi; ++m) {
      redo.push_back({wlog[m].pid, ConstBytes(wlog[m].image)});
    }
    ASSERT_TRUE(recovered->WriteBatch(redo).ok()) << "cut=" << cut;
    ASSERT_TRUE(recovered->Flush().ok()) << "cut=" << cut;
    std::vector<uint32_t> want = base_hashes;
    for (size_t m = 0; m < hi; ++m) {
      want[wlog[m].pid] = PageHash(wlog[m].image);
    }
    for (PageId pid = 0; pid < pages; ++pid) {
      ASSERT_TRUE(recovered->ReadPage(pid, buf).ok())
          << "cut=" << cut << " pid=" << pid;
      ASSERT_EQ(PageHash(buf), want[pid])
          << "cut=" << cut << " pid=" << pid
          << ": redo did not close the torn transaction (commit "
          << completed + 1 << " of " << kTxns << ")";
    }
  }
  // Every cut resolved to either a clean commit boundary or a redo-closable
  // torn batch; both flavours are expected across a 12-point sweep, but only
  // their sum is guaranteed (PDL can make small batches atomic by packing
  // all differentials into one program).
  EXPECT_EQ(boundary_hits + torn_hits, static_cast<uint64_t>(kCuts));
}

INSTANTIATE_TEST_SUITE_P(Methods, OltpCrashTest,
                         ::testing::Values("OPU", "PDL(256B)"),
                         [](const ::testing::TestParamInfo<const char*>& i) {
                           std::string name = i.param;
                           for (char& c : name) {
                             if (!isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

}  // namespace

}  // namespace flashdb
