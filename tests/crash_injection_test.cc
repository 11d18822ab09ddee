// Crash-injection property tests, all driven by the power-cut explorer
// (crash_explorer.h): cut power at chosen mutations of a workload, on either
// side of the fatal one, recover a fresh store over the surviving flash, and
// check the durability contract:
//   * every logical page reads back as SOME version it legitimately had;
//   * every version acknowledged before the last Flush() (write-through) is
//     not rolled back past;
//   * recovery itself can crash and be re-run (paper Section 4.5: "recovery
//     is normally performed even when a system failure repeatedly occurs").

#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "crash_explorer.h"
#include "ftl/sharded_store.h"
#include "methods/ipl_store.h"
#include "methods/method_factory.h"
#include "recording_store.h"
#include "storage/buffer_pool.h"
#include "test_seed.h"
#include "workload/tpcc.h"

namespace flashdb {
namespace {

using flash::FlashConfig;
using flash::FlashDevice;

struct SeedArg {
  uint64_t seed;
};
void SeededImage(PageId pid, MutBytes page, void* arg) {
  Random r(static_cast<SeedArg*>(arg)->seed ^ (pid * 0x85EBCA6Bu));
  r.Fill(page);
}

methods::MethodSpec Spec(const std::string& method) {
  auto spec = methods::ParseMethodSpec(method);
  EXPECT_TRUE(spec.ok()) << method;
  return *spec;
}

/// A test name from a method name: "PDL(256B)" -> "PDL_256B_".
std::string TestName(std::string name) {
  for (char& c : name) {
    if (!isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}
std::string MethodName(const ::testing::TestParamInfo<const char*>& i) {
  return TestName(i.param);
}

/// Notes pages [0, pages)' current contents as their acceptable versions.
void SnapshotPages(PageStore& store, uint32_t pages, VersionTracker& tracker) {
  ByteBuffer buf(store.device()->geometry().data_size);
  for (PageId pid = 0; pid < pages; ++pid) {
    ASSERT_TRUE(store.ReadPage(pid, buf).ok()) << pid;
    tracker.Init(pid, buf);
  }
}

// --- Update workloads: every method cut mid-update -------------------------
//
// One chip formatted with seeded pages, then random read-modify-write-backs.
// PDL flushes every 25th op; the other methods' acknowledged write-backs are
// durable. IPL takes each change as one 16-byte logged update (a change
// spanning several log slots is programmed slot by slot and may tear).

struct ChipRig {
  std::unique_ptr<FlashDevice> dev;
  std::vector<FlashDevice*> chips;
  std::unique_ptr<PageStore> store;
  Random rng;
};

struct UpdateCase {
  const char* method;
  uint32_t pages;
  int ops;
  uint64_t format_seed;
  int flips;        ///< Bytes XORed with `mask` per op; 0: a logged update.
  uint8_t mask;
  int flush_every;  ///< Flush after every n-th op; 0: write-backs durable.
  uint64_t (*seed)(const Cut&);  ///< The workload's RNG seed.
  void (*cuts)(ChipRig&, const std::vector<Mutation>&, std::vector<Cut>*);
};
void PrintTo(const UpdateCase& c, std::ostream* os) { *os << c.method; }

/// The update scenario of `c`, which must outlive it.
Scenario<ChipRig> UpdateScenario(const UpdateCase& c) {
  Scenario<ChipRig> s;
  s.build = [&c](const Cut& cut) {
    ChipRig rig;
    rig.dev = std::make_unique<FlashDevice>(FlashConfig::Small(8));
    rig.chips = {rig.dev.get()};
    rig.store = methods::CreateStore(rig.dev.get(), Spec(c.method));
    SeedArg arg{TestSeed(c.format_seed)};
    EXPECT_TRUE(rig.store->Format(c.pages, &SeededImage, &arg).ok());
    rig.rng.Seed(c.seed(cut));
    return rig;
  };
  s.workload = [&c](ChipRig& rig, VersionTracker& tracker) {
    ByteBuffer page(rig.dev->geometry().data_size);
    SeedArg arg{TestSeed(c.format_seed)};
    for (PageId pid = 0; pid < c.pages; ++pid) {
      SeededImage(pid, page, &arg);
      tracker.Init(pid, page);
    }
    Random& r = rig.rng;
    UpdateLog log;
    for (int op = 0; op < c.ops; ++op) {
      const PageId pid = static_cast<PageId>(r.Uniform(c.pages));
      ASSERT_TRUE(rig.store->ReadPage(pid, page).ok()) << pid;
      if (c.flips == 0) {
        log.offset = static_cast<uint32_t>(r.Uniform(page.size() - 16));
        log.data.resize(16);
        r.Fill(log.data);
        std::copy(log.data.begin(), log.data.end(),
                  page.begin() + log.offset);
        ASSERT_TRUE(rig.store->OnUpdate(pid, page, log).ok());
      }
      for (int m = 0; m < c.flips; ++m) page[r.Uniform(page.size())] ^= c.mask;
      tracker.OnWriteBack(pid, page);
      const Status st = rig.store->WriteBack(pid, page);
      ASSERT_TRUE(st.ok()) << st.ToString();
      const bool flush =
          c.flush_every != 0 && op % c.flush_every == c.flush_every - 1;
      if (flush) {
        ASSERT_TRUE(rig.store->Flush().ok());
      }
      if (flush || c.flush_every == 0) tracker.OnFlush();
    }
  };
  s.mount = [&c](ChipRig& rig) {
    return methods::CreateStore(rig.dev.get(), Spec(c.method));
  };
  return s;
}

// Each case's workload seed, given the cut, and its cut selection, given
// the dry-run rig and its chip's mutations.

uint64_t PdlSeed(const Cut& cut) {
  return TestSeed(cut.index * 31 + (cut.after ? 7 : 0));
}
uint64_t OpuSeed(const Cut& cut) { return TestSeed(cut.index); }
uint64_t Seed47(const Cut&) { return TestSeed(47); }

void PdlCuts(ChipRig&, const std::vector<Mutation>&, std::vector<Cut>* cuts) {
  *cuts = CutsAt({1, 3, 7, 15, 31, 63, 127, 255, 511}, Side::kBoth);
}

void OpuCuts(ChipRig&, const std::vector<Mutation>&, std::vector<Cut>* cuts) {
  *cuts = CutsAt({2, 10, 50, 200}, Side::kBefore);
}

/// Four logical blocks of 55 originals on an 8-block chip leave four free
/// blocks, so the fifth of the workload's dozen merges is the first into a
/// recycled block. A merge programs its target's originals, then erases the
/// old block, which the free list later hands out again; a target below its
/// source is scanned first on recovery. The cuts sample the original-page
/// programs and erases of merges into recycled blocks.
void IplMergeCuts(ChipRig& rig, const std::vector<Mutation>& ops,
                  std::vector<Cut>* cuts) {
  const FlashDevice& dev = *rig.dev;
  const uint32_t origs =
      static_cast<methods::IplStore&>(*rig.store).orig_pages_per_block();
  std::vector<bool> recycled(dev.geometry().num_blocks, false);
  const std::vector<uint64_t> merges = Where(ops, [&](size_t i) {
    const uint32_t block = dev.BlockOf(ops[i].addr);
    if (ops[i].kind == flash::OpKind::kProgram) {
      return dev.PageInBlock(ops[i].addr) < origs && recycled[block];
    }
    if (ops[i].kind != flash::OpKind::kErase) return false;
    const bool into_recycled = recycled[dev.BlockOf(ops[i - 1].addr)];
    recycled[block] = true;
    return into_recycled;
  });
  ASSERT_GT(merges.size(), 200u) << "too few merges into recycled blocks";
  *cuts = CutsAt(Sample(merges, 12, TestSeed(53)), Side::kBoth);
}

/// 100 IPU pages span block 0 and, with the 36 highest pids, block 1. The
/// cuts land after every erase (the whole block lost) and at seeded points
/// of the rewrites.
void IpuCuts(ChipRig&, const std::vector<Mutation>& ops,
             std::vector<Cut>* cuts) {
  const auto erase = [&](size_t i) {
    return ops[i].kind == flash::OpKind::kErase;
  };
  *cuts = CutsAt(Where(ops, erase), Side::kAfter);
  const std::vector<Cut> sampled =
      CutsAt(Sample(Where(ops), 24, TestSeed(61)), Side::kAlternate);
  cuts->insert(cuts->end(), sampled.begin(), sampled.end());
}

// method, pages, ops, format seed, flips, mask, flush period, seed, cuts
const UpdateCase kUpdateCases[] = {
    {"PDL(256B)", 64, 4000, 11, 25, 0x6D, 25, PdlSeed, PdlCuts},
    {"OPU", 64, 300, 19, 1, 0x99, 0, OpuSeed, OpuCuts},
    {"IPL(18KB)", 220, 1800, 43, 0, 0, 0, Seed47, IplMergeCuts},
    {"IPU", 100, 30, 59, 1, 0xA5, 0, Seed47, IpuCuts},
};

class UpdateCutTest : public ::testing::TestWithParam<UpdateCase> {};

TEST_P(UpdateCutTest, RecoversAnAcceptableVersionOfEveryPage) {
  const UpdateCase& c = GetParam();
  Scenario<ChipRig> s = UpdateScenario(c);
  MutationStream log;
  ChipRig ref = DryRun(s, &log);
  ASSERT_FALSE(HasFatalFailure());
  std::vector<Cut> cuts;
  c.cuts(ref, log[0], &cuts);
  ASSERT_FALSE(HasFatalFailure());
  // IPU's contract: a cut mid-rewrite may lose pages of the block being
  // rewritten, and only those; reading one is a typed error, NotFound when
  // the lost pages were the highest pids (the page count shrinks).
  const bool ipu = c.method == std::string("IPU");
  uint64_t corrupt = 0, not_found = 0;
  s.oracle = [&](ChipRig& rig, PageStore& store, VersionTracker& tracker,
                 const Cut& cut) {
    if (!ipu) {
      ASSERT_EQ(store.num_logical_pages(), c.pages);
      return CheckPages(store, tracker);
    }
    const uint32_t block = rig.dev->BlockOf(log[0][cut.index].addr);
    ByteBuffer page(rig.dev->geometry().data_size);
    for (PageId pid = 0; pid < c.pages; ++pid) {
      const Status st = store.ReadPage(pid, page);
      if (st.ok()) {
        ASSERT_TRUE(tracker.Acceptable(pid, page)) << "pid " << pid;
        continue;
      }
      ASSERT_EQ(rig.dev->BlockOf(pid), block) << pid << ": " << st.ToString();
      ASSERT_TRUE(st.IsCorruption() || st.IsNotFound()) << st.ToString();
      ++(st.IsCorruption() ? corrupt : not_found);
    }
  };
  Explore(s, cuts);
  if (ipu) {
    EXPECT_GT(corrupt, 0u) << "no cut lost a page below the page count";
    EXPECT_GT(not_found, 0u) << "no cut lost the highest pids";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Methods, UpdateCutTest, ::testing::ValuesIn(kUpdateCases),
    [](const ::testing::TestParamInfo<UpdateCase>& i) {
      return TestName(i.param.method);
    });

TEST(CrashDuringRecoveryTest, RecoveryRestartsSafely) {
  // 200 PDL updates and a Flush, then the recovery scan itself crashes at
  // several points in a row over the same flash. Recovery mutates flash
  // only by obsoleting useless pages, so the final run must still succeed.
  const UpdateCase c{"PDL(256B)", 64, 200, 13, 20, 0x2B, 200,
                     [](const Cut&) { return TestSeed(17); }, nullptr};
  Scenario<ChipRig> s = UpdateScenario(c);
  s.recovery_cuts = CutsAt({0, 1, 2, 5}, Side::kAfter);
  Explore(s, {Cut{Cut::kNever}});
}

// --- Sharded scenarios: migration, grown bad blocks, scrub ------------------

constexpr uint32_t kShards = 2;
constexpr uint32_t kShardPages = 64;

struct ShardRig {
  std::vector<std::unique_ptr<FlashDevice>> devices;
  std::vector<FlashDevice*> chips;
  std::unique_ptr<ftl::ShardedStore> store;
  Random rng;
  uint32_t bad = flash::kNullAddr;  ///< The grown bad block, if any.
};

/// Two journaled shards of `cfg`: formats 64 seeded pages, then applies
/// `ops` updates (so buckets hold distinct post-format content) and a
/// Flush. Two calls produce bit-identical flash images.
ShardRig BuildShardRig(const char* method, const FlashConfig& cfg,
                       uint64_t format_seed, int ops, uint64_t seed,
                       uint8_t mask) {
  ShardRig rig;
  for (uint32_t i = 0; i < kShards; ++i) {
    rig.devices.push_back(std::make_unique<FlashDevice>(cfg));
    rig.chips.push_back(rig.devices.back().get());
  }
  rig.store = methods::CreateShardedStoreOverDevices(rig.chips, Spec(method));
  SeedArg arg{TestSeed(format_seed)};
  EXPECT_TRUE(rig.store->Format(kShardPages, &SeededImage, &arg).ok());
  ByteBuffer buf(cfg.geometry.data_size);
  Random r(TestSeed(seed));
  for (int op = 0; op < ops; ++op) {
    const PageId pid = static_cast<PageId>(r.Uniform(kShardPages));
    EXPECT_TRUE(rig.store->ReadPage(pid, buf).ok());
    for (int m = 0; m < 10; ++m) buf[r.Uniform(buf.size())] ^= mask;
    EXPECT_TRUE(rig.store->WriteBack(pid, buf).ok());
  }
  EXPECT_TRUE(rig.store->Flush().ok());
  return rig;
}

ShardRig BuildMigrationRig(const char* method) {
  return BuildShardRig(method, FlashConfig::Small(12).WithMetaBlocks(4), 23,
                       200, 71, 0x4F);
}

Scenario<ShardRig, ftl::ShardedStore> ShardScenario(const char* method) {
  Scenario<ShardRig, ftl::ShardedStore> s;
  s.mount = [method](ShardRig& rig) {
    return methods::CreateShardedStoreOverDevices(rig.chips, Spec(method));
  };
  return s;
}

/// Every index of every chip's dry-run stream, cut after the mutation at
/// even indices and before it at odd ones.
std::vector<Cut> EveryCut(const MutationStream& log) {
  std::vector<Cut> cuts;
  for (uint32_t victim = 0; victim < log.size(); ++victim) {
    const std::vector<Cut> c = CutsAt(Where(log[victim]), Side::kAlternate,
                                      victim);
    cuts.insert(cuts.end(), c.begin(), c.end());
  }
  return cuts;
}

// Torn meta records: a journaled ShardedStore migrates a bucket pair while
// the cuts land in the journal append (the record tears, the swap rolls
// back) and in the data copies (the record committed, the swap rolls
// forward via the redo payload). Migration never changes logical contents,
// so a recovery must land on a committed epoch: every page bit-identical to
// the pre-migration snapshot, and the swap count the pre-swap or the
// post-swap value, never anything in between.

/// Buckets 0 and 1 live on shards 0 and 1 under identity routing; swapping
/// them is a legal equal-size cross-shard migration (64 pages over 16
/// buckets: every bucket holds 4 pages).
const ftl::ShardRouter::Swap kSwap01[] = {{0, 1}};

Scenario<ShardRig, ftl::ShardedStore> MigrationScenario(const char* method) {
  Scenario<ShardRig, ftl::ShardedStore> s = ShardScenario(method);
  s.build = [method](const Cut&) { return BuildMigrationRig(method); };
  s.workload = [](ShardRig& rig, VersionTracker& tracker) {
    SnapshotPages(*rig.store, kShardPages, tracker);
    ASSERT_TRUE(rig.store->MigrateBuckets(kSwap01, nullptr).ok());
    CheckPages(*rig.store, tracker);  // contents unchanged when completed
  };
  return s;
}

class TornMetaRecordTest : public ::testing::TestWithParam<const char*> {};

TEST_P(TornMetaRecordTest, MigrationPowerCutsRecoverToCommittedEpoch) {
  Scenario<ShardRig, ftl::ShardedStore> s = MigrationScenario(GetParam());
  MutationStream log;
  DryRun(s, &log);
  ASSERT_FALSE(HasFatalFailure());
  ASSERT_GT(log[0].size() + log[1].size(), 4u)
      << "migration did almost nothing";
  uint64_t rollbacks = 0;
  uint64_t rollforwards = 0;
  s.oracle = [&](ShardRig&, ftl::ShardedStore& store, VersionTracker& tracker,
                 const Cut&) {
    const uint64_t swaps = store.router()->swaps_committed();
    ASSERT_TRUE(swaps == 0 || swaps == 1)
        << "half-migrated swap count " << swaps;
    ++(swaps == 0 ? rollbacks : rollforwards);
    CheckPages(store, tracker);
  };
  // Shard 0 carries the journal and one side of the copy, shard 1 the other
  // side: early cuts on shard 0 tear the append, later ones the copies.
  Explore(s, EveryCut(log));
  // Both crash phases must actually have been exercised.
  EXPECT_GT(rollbacks, 0u) << "no cut landed before the record committed";
  EXPECT_GT(rollforwards, 0u) << "no cut landed after the record committed";
}

INSTANTIATE_TEST_SUITE_P(Methods, TornMetaRecordTest,
                         ::testing::Values("OPU", "PDL(256B)"), MethodName);

TEST(TornMetaRecordTest, CrashDuringRecoveryRedoIsRestartable) {
  // Cut shard 1 at its first mutation, already a copy write, so the journal
  // record is durable; then crash the recovery redo itself several times.
  // Redo is idempotent full-page writes, so recovery must succeed no matter
  // how often it is interrupted.
  Scenario<ShardRig, ftl::ShardedStore> s = MigrationScenario("OPU");
  s.recovery_cuts = CutsAt({1, 3, 9, 27}, Side::kAfter);
  s.oracle = [](ShardRig&, ftl::ShardedStore& store, VersionTracker& tracker,
                const Cut&) {
    EXPECT_EQ(store.router()->swaps_committed(), 1u);
    CheckPages(store, tracker);
  };
  Explore(s, {Cut{0, /*after=*/false, /*victim=*/1}});
}

// Grown bad blocks: a block whose erase fails mid-workload
// (EraseFailureInjector) must be taken out of service transparently: the
// store marks its OOB byte, routes allocation around it, and keeps serving
// the workload. The remap must then survive a power cut: a fresh store
// recovering over the surviving flash re-excludes the block, both from the
// durable OOB mark it re-reads during its normal spare scan and from the
// bad-block list in the meta journal's snapshot (which covers a cut landing
// between the in-RAM exclusion and the OOB program).

class GrownBadBlockTest : public ::testing::TestWithParam<const char*> {};

TEST_P(GrownBadBlockTest, WorkloadRoutesAroundGrownBadBlock) {
  const FlashConfig cfg = FlashConfig::Small(8);
  FlashDevice dev(cfg);
  flash::EraseFailureInjector fi(cfg.geometry.pages_per_block);
  auto store = methods::CreateStore(&dev, Spec(GetParam()));
  const uint32_t pages = 64;
  SeedArg arg{TestSeed(29)};
  ASSERT_TRUE(store->Format(pages, &SeededImage, &arg).ok());

  std::map<PageId, ByteBuffer> shadow;
  ByteBuffer buf(cfg.geometry.data_size);
  dev.set_fault_injector(&fi);
  fi.Arm();
  Random r(TestSeed(37));
  int op = 0;
  const auto update = [&] {
    const PageId pid = static_cast<PageId>(r.Uniform(pages));
    ASSERT_TRUE(store->ReadPage(pid, buf).ok());
    for (int m = 0; m < 15; ++m) buf[r.Uniform(buf.size())] ^= 0x5C;
    ASSERT_TRUE(store->WriteBack(pid, buf).ok()) << "op " << op;
    shadow[pid] = buf;
  };
  for (; op < 4000 && fi.failed_blocks().empty(); ++op) update();
  ASSERT_EQ(fi.failed_blocks().size(), 1u) << "GC never erased; raise ops";
  const uint32_t bad = fi.failed_blocks()[0];

  // The store absorbed the failure: block out of service, OOB marked, and
  // the workload keeps running with the remaining capacity.
  EXPECT_EQ(store->bad_blocks(), std::vector<uint32_t>{bad});
  EXPECT_TRUE(dev.HasBadBlockOob(bad));
  for (int more = 0; more < 500; ++more, ++op) update();
  ASSERT_TRUE(store->Flush().ok());
  dev.set_fault_injector(nullptr);
  for (const auto& [pid, page] : shadow) {
    ASSERT_TRUE(store->ReadPage(pid, buf).ok());
    EXPECT_TRUE(BytesEqual(buf, page)) << pid;
  }
}

INSTANTIATE_TEST_SUITE_P(Methods, GrownBadBlockTest,
                         ::testing::Values("OPU", "PDL(256B)"), MethodName);

TEST(GrownBadBlockTest, RemapSurvivesPowerCutAndJournaledRecovery) {
  Scenario<ShardRig, ftl::ShardedStore> s = ShardScenario("OPU");
  // The rig grows a bad block on shard 0 mid-workload, then runs a
  // migration epoch, whose meta-journal snapshot now carries the bad-block
  // list (the belt to the OOB mark's braces).
  s.build = [](const Cut&) {
    ShardRig rig = BuildMigrationRig("OPU");
    ByteBuffer buf(rig.chips[0]->geometry().data_size);
    flash::EraseFailureInjector efi(rig.chips[0]->geometry().pages_per_block);
    rig.chips[0]->set_fault_injector(&efi);
    efi.Arm();
    rig.rng.Seed(TestSeed(41));
    for (int op = 0; op < 20000 && efi.failed_blocks().empty(); ++op) {
      const PageId pid = static_cast<PageId>(rig.rng.Uniform(kShardPages));
      EXPECT_TRUE(rig.store->ReadPage(pid, buf).ok());
      for (int m = 0; m < 15; ++m) buf[rig.rng.Uniform(buf.size())] ^= 0x33;
      EXPECT_TRUE(rig.store->WriteBack(pid, buf).ok()) << "op " << op;
    }
    rig.chips[0]->set_fault_injector(nullptr);
    EXPECT_EQ(efi.failed_blocks().size(), 1u) << "GC never erased; raise ops";
    if (!efi.failed_blocks().empty()) rig.bad = efi.failed_blocks()[0];
    EXPECT_EQ(rig.store->shard(0)->bad_blocks(),
              std::vector<uint32_t>{rig.bad});
    EXPECT_TRUE(rig.store->MigrateBuckets(kSwap01, nullptr).ok());
    return rig;
  };
  // More write-backs, each durable once acknowledged; the cut lands on
  // shard 0 mid-workload.
  s.workload = [](ShardRig& rig, VersionTracker& tracker) {
    SnapshotPages(*rig.store, kShardPages, tracker);
    ByteBuffer buf(rig.chips[0]->geometry().data_size);
    for (int i = 0; i < 2000; ++i) {
      const PageId pid = static_cast<PageId>(rig.rng.Uniform(kShardPages));
      ASSERT_TRUE(rig.store->ReadPage(pid, buf).ok());
      for (int m = 0; m < 15; ++m) buf[rig.rng.Uniform(buf.size())] ^= 0x33;
      tracker.OnWriteBack(pid, buf);
      ASSERT_TRUE(rig.store->WriteBack(pid, buf).ok());
      tracker.OnFlush();
    }
  };
  // The recovered store re-excludes the grown bad block, and a second
  // independent recovery over the same flash reaches the identical list.
  s.oracle = [&s](ShardRig& rig, ftl::ShardedStore& store,
                  VersionTracker& tracker, const Cut&) {
    EXPECT_EQ(store.shard(0)->bad_blocks(), std::vector<uint32_t>{rig.bad});
    CheckPages(store, tracker);
    auto again = s.mount(rig);
    ASSERT_TRUE(again->Recover().ok());
    EXPECT_EQ(again->shard(0)->bad_blocks(), store.shard(0)->bad_blocks());
  };
  Explore(s, {Cut{40, /*after=*/true}});
}

// Scrub relocation under power cuts: a background scrub relocates live
// pages whose read-disturb exposure crossed the device limit. Relocation
// rides the stores' normal write-new-then-obsolete path, so a cut at ANY
// mutation of the sweep must recover the pre-scrub logical contents: the
// page either moved (newest timestamp wins) or it did not -- never a torn
// in-between. The journaled epoch appended after the sweep gets the same
// torn-tail treatment as a migration record.

class ScrubCrashTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ScrubCrashTest, ScrubPowerCutsRecoverPreScrubContents) {
  const char* method = GetParam();
  Scenario<ShardRig, ftl::ShardedStore> s = ShardScenario(method);
  // A low read-disturb limit plus a read-heavy tail that pushes a handful
  // of pages over it, so the chips hold flagged scrub candidates.
  s.build = [method](const Cut&) {
    FlashConfig cfg = FlashConfig::Small(12).WithMetaBlocks(4);
    cfg.read_disturb_limit = 24;
    ShardRig rig = BuildShardRig(method, cfg, 31, 150, 83, 0x5A);
    ByteBuffer buf(cfg.geometry.data_size);
    for (int pass = 0; pass < 30; ++pass) {
      for (PageId pid = 0; pid < 8; ++pid) {
        EXPECT_TRUE(rig.store->ReadPage(pid, buf).ok());
      }
    }
    return rig;
  };
  // Scrub must not change logical contents. The snapshot's reads advance
  // the disturb counters in every run alike.
  s.workload = [](ShardRig& rig, VersionTracker& tracker) {
    SnapshotPages(*rig.store, kShardPages, tracker);
    ftl::ShardedStore::ScrubResult res;
    ASSERT_TRUE(rig.store->ScrubShards(&res).ok());
    EXPECT_GT(res.candidates, 0u) << "disturb limit never tripped";
    EXPECT_GT(res.relocated, 0u) << "no live page was relocated";
    CheckPages(*rig.store, tracker);  // scrub changed no page
  };
  MutationStream log;
  DryRun(s, &log);
  ASSERT_FALSE(HasFatalFailure());
  ASSERT_GT(log[0].size() + log[1].size(), 0u);
  uint64_t crashes = 0;
  s.oracle = [&](ShardRig&, ftl::ShardedStore& store, VersionTracker& tracker,
                 const Cut&) {
    ++crashes;
    CheckPages(store, tracker);
  };
  // Shard 0 also carries the journal epoch appended after the relocations.
  Explore(s, EveryCut(log));
  EXPECT_GT(crashes, 0u) << "no cut landed inside the sweep";
}

INSTANTIATE_TEST_SUITE_P(Methods, ScrubCrashTest,
                         ::testing::Values("OPU", "PDL(256B)"), MethodName);

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

constexpr uint32_t kOltpPageSize = 2048;  // FlashConfig::Small geometry
constexpr uint64_t kTxns = 40;

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

struct OltpRig : ChipRig {
  std::unique_ptr<RecordingStore> rec;
  std::unique_ptr<storage::BufferPool> pool;
  std::unique_ptr<workload::TpccWorkload> wl;
  std::vector<size_t> marks;  ///< Recorded writes at each commit.
};

class OltpCrashTest : public ::testing::TestWithParam<const char*> {};

TEST_P(OltpCrashTest, FlushAllPowerCutsRecoverToCommitLogPrefix) {
  const char* method = GetParam();
  const uint32_t pages =
      workload::TpccWorkload::RequiredPages(OltpCrashScale(), kOltpPageSize);
  Scenario<OltpRig> s;
  // Device + store + pool + loaded TPC-C instance, with the load flushed.
  // The frame count covers every logical page: no evictions, so flash
  // mutates only inside FlushAll -- every cut lands inside a commit.
  s.build = [&](const Cut&) {
    OltpRig rig;
    rig.dev = std::make_unique<FlashDevice>(
        FlashConfig::Small((pages * 2) / 64 + 8));
    rig.chips = {rig.dev.get()};
    rig.store = methods::CreateStore(rig.dev.get(), Spec(method));
    EXPECT_TRUE(rig.store->Format(pages, nullptr, nullptr).ok());
    rig.rec = std::make_unique<RecordingStore>(rig.store.get());
    rig.pool = std::make_unique<storage::BufferPool>(rig.rec.get(), pages);
    rig.wl = std::make_unique<workload::TpccWorkload>(
        rig.pool.get(), OltpCrashScale(), TestSeed(47));
    EXPECT_TRUE(rig.wl->Load().ok());
    EXPECT_TRUE(rig.pool->FlushAll().ok());
    return rig;
  };
  // Base state after load, then the transactions, recording every page
  // image the commit path writes and a marker per acknowledged commit.
  s.workload = [&](OltpRig& rig, VersionTracker& tracker) {
    SnapshotPages(*rig.store, pages, tracker);
    rig.rec->StartRecording();
    for (uint64_t t = 0; t < kTxns; ++t) {
      ASSERT_TRUE(rig.wl->RunTransaction().ok()) << t;
      ASSERT_TRUE(rig.pool->FlushAll().ok()) << t;
      for (size_t m = rig.marks.empty() ? 0 : rig.marks.back();
           m < rig.rec->writes().size(); ++m) {
        tracker.OnWriteBack(rig.rec->writes()[m].pid,
                            rig.rec->writes()[m].image);
      }
      tracker.OnFlush();
      rig.marks.push_back(rig.rec->writes().size());
    }
  };
  s.mount = [method](OltpRig& rig) {
    return methods::CreateStore(rig.dev.get(), Spec(method));
  };
  MutationStream log;
  const OltpRig ref = DryRun(s, &log);
  ASSERT_FALSE(HasFatalFailure());
  const std::vector<RecordingStore::Write>& wlog = ref.rec->writes();
  ASSERT_EQ(ref.marks.size(), kTxns);
  ASSERT_GT(wlog.size(), 0u);
  ASSERT_GT(log[0].size(), 16u) << "too few mutations to sweep cuts over";

  uint64_t boundary_hits = 0;
  uint64_t torn_hits = 0;
  s.oracle = [&](OltpRig& rig, PageStore& store, VersionTracker& tracker,
                 const Cut&) {
    const size_t completed = rig.marks.size();
    ASSERT_LT(completed, kTxns);
    // Durability floor + per-page write atomicity: the in-flight commit's
    // writes may each have landed or not; anything else is a rollback past
    // an acknowledged commit, a torn page, or an invented write.
    const size_t lo = completed == 0 ? 0 : ref.marks[completed - 1];
    const size_t hi = ref.marks[completed];
    for (size_t m = lo; m < hi; ++m) {
      tracker.OnWriteBack(wlog[m].pid, wlog[m].image);
    }
    ASSERT_NO_FATAL_FAILURE(CheckPages(store, tracker));
    uint64_t applied = 0;
    uint64_t pending = 0;
    ByteBuffer page(kOltpPageSize);
    for (size_t m = lo; m < hi; ++m) {
      const ByteBuffer& committed = tracker.Flushed(wlog[m].pid);
      if (BytesEqual(wlog[m].image, committed)) continue;
      ASSERT_TRUE(store.ReadPage(wlog[m].pid, page).ok());
      ++(BytesEqual(page, committed) ? pending : applied);
    }
    ++(applied == 0 || pending == 0 ? boundary_hits : torn_hits);
    // Redo closure: idempotent full-page redo of the in-flight commit's
    // recorded batch must land bit-exactly on the next commit marker.
    std::vector<PageWrite> redo;
    for (size_t m = lo; m < hi; ++m) {
      redo.push_back({wlog[m].pid, wlog[m].image});
    }
    ASSERT_TRUE(store.WriteBatch(redo).ok());
    ASSERT_TRUE(store.Flush().ok());
    tracker.OnFlush();
    SCOPED_TRACE("redo did not close the torn transaction");
    CheckPages(store, tracker);
  };
  // A 12-point sweep spanning the whole serving phase, alternating before
  // and after the fatal mutation.
  constexpr size_t kCuts = 12;
  Explore(s, CutsAt(Spread(Where(log[0]), kCuts), Side::kAlternate));
  // Every cut resolved to either a clean commit boundary or a redo-closable
  // torn batch; both flavours are expected across the sweep, but only their
  // sum is guaranteed (PDL can make small batches atomic by packing all
  // differentials into one program).
  EXPECT_EQ(boundary_hits + torn_hits, kCuts);
}

INSTANTIATE_TEST_SUITE_P(Methods, OltpCrashTest,
                         ::testing::Values("OPU", "PDL(256B)"), MethodName);

}  // namespace

}  // namespace flashdb
