// Tests for the garbage collection that keeps PDL stable at the paper's 50%
// utilization: byte-scored victim selection (ftl/gc_policy.h), GC-time
// merging of large differentials, sustained-load endurance, and accounting
// invariants (device op counters vs. category breakdown; wear counters).

#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "flash/fault_injector.h"
#include "ftl/block_manager.h"
#include "ftl/gc_policy.h"
#include "ftl/mapping_table.h"
#include "methods/method_factory.h"
#include "methods/opu_store.h"
#include "pdl/pdl_store.h"
#include "workload/update_driver.h"

namespace flashdb {
namespace {

using flash::FlashConfig;
using flash::FlashDevice;
using flash::PhysAddr;

struct SeedArg {
  uint64_t seed;
};
void SeededImage(PageId pid, MutBytes page, void* arg) {
  Random r(static_cast<SeedArg*>(arg)->seed ^ (pid * 0xA24BAED4963EE407ULL));
  r.Fill(page);
}

// --- Unit tests of the victim scoring ---------------------------------------

/// The page walk ScoreBlock replaced: a page per obsolete page, plus each
/// valid differential page's dead bytes (a page less its live bytes,
/// clamped at 0). ScoreBlock must equal it on every block at every point
/// where GC picks.
uint64_t WalkScore(const ftl::BlockManager& bm, const ftl::MappingTable& map,
                   uint32_t block) {
  const uint64_t page = bm.data_size();
  uint64_t score = bm.block_obsolete(block) * page;
  if (!map.track_diffs()) return score;
  for (uint32_t p = 0; p < bm.pages_per_block(); ++p) {
    const PhysAddr addr = bm.AddrOf(block, p);
    if (bm.state(addr) != ftl::PageState::kValid || map.vdct(addr) == 0) {
      continue;
    }
    const uint64_t live = map.diff_live_bytes(addr);
    score += live >= page ? 0 : page - live;
  }
  return score;
}

class VictimScoreTest : public ::testing::Test {
 protected:
  VictimScoreTest()
      : dev_(FlashConfig::Small(4)),
        bm_(&dev_),
        opu_map_(/*track_diffs=*/false, dev_.geometry().pages_per_block),
        pdl_map_(/*track_diffs=*/true, dev_.geometry().pages_per_block) {
    pdl_map_.Reset(dev_.geometry().total_pages(),
                   dev_.geometry().total_pages());
  }

  /// Fills `blocks` whole blocks with programmed, valid pages and closes
  /// them (an open block is never a legal victim).
  void FillBlocks(uint32_t blocks) {
    ByteBuffer page(dev_.geometry().data_size, 0x00);
    for (uint32_t i = 0; i < blocks * dev_.geometry().pages_per_block; ++i) {
      auto r = bm_.AllocatePage(false);
      ASSERT_TRUE(r.ok());
      ASSERT_TRUE(dev_.ProgramPage(*r, page, {}).ok());
    }
    bm_.CloseOpenBlocks();
  }

  /// Holds ScoreBlock to the page walk on every block.
  void ExpectScoresMatchTheWalk() {
    for (uint32_t b = 0; b < bm_.num_blocks(); ++b) {
      EXPECT_EQ(ftl::ScoreBlock(bm_, pdl_map_, b), WalkScore(bm_, pdl_map_, b))
          << "block " << b;
    }
  }

  FlashDevice dev_;
  ftl::BlockManager bm_;
  ftl::MappingTable opu_map_;  ///< No differentials (OPU's mapping).
  ftl::MappingTable pdl_map_;  ///< Differentials tracked (PDL's mapping).
};

TEST_F(VictimScoreTest, ObsoletePagesScoreAFullPageEach) {
  FillBlocks(2);
  const uint32_t ppb = dev_.geometry().pages_per_block;
  // Block 0: 3 obsolete pages. Block 1: 8 obsolete pages.
  for (uint32_t p = 0; p < 3; ++p) ASSERT_TRUE(bm_.MarkObsolete(p).ok());
  for (uint32_t p = 0; p < 8; ++p) ASSERT_TRUE(bm_.MarkObsolete(ppb + p).ok());
  const uint64_t page_bytes = dev_.geometry().data_size;
  EXPECT_EQ(ftl::ScoreBlock(bm_, opu_map_, 0), 3 * page_bytes);
  EXPECT_EQ(ftl::ScoreBlock(bm_, opu_map_, 1), 8 * page_bytes);
  EXPECT_EQ(ftl::PickVictimGroup(bm_, opu_map_), std::vector<uint32_t>{1});
}

TEST_F(VictimScoreTest, DeadDifferentialBytesAddToTheScore) {
  FillBlocks(2);
  const uint32_t ppb = dev_.geometry().pages_per_block;
  const uint32_t page_bytes = dev_.geometry().data_size;
  // Block 0: 2 obsolete pages, everything else scores 0.
  for (uint32_t p = 0; p < 2; ++p) ASSERT_TRUE(bm_.MarkObsolete(p).ok());
  // Block 1: 1 obsolete page, but its valid pages are almost-dead
  // differential pages, each holding one live half-page differential -- the
  // byte score dwarfs block 0 even though obsolete pages alone prefer
  // block 0.
  ASSERT_TRUE(bm_.MarkObsolete(ppb).ok());
  for (uint32_t p = 1; p < ppb; ++p) {
    pdl_map_.AttachDiff(/*pid=*/p, ppb + p, page_bytes / 2);
  }
  EXPECT_EQ(ftl::ScoreBlock(bm_, pdl_map_, 1),
            page_bytes + (ppb - 1) * (page_bytes / 2));
  ExpectScoresMatchTheWalk();
  EXPECT_EQ(ftl::PickVictimGroup(bm_, pdl_map_), std::vector<uint32_t>{1});
  EXPECT_EQ(ftl::PickVictimGroup(bm_, opu_map_), std::vector<uint32_t>{0});
}

TEST_F(VictimScoreTest, VictimMustReclaimAtLeastOnePage) {
  FillBlocks(2);
  const uint32_t ppb = dev_.geometry().pages_per_block;
  const uint32_t page_bytes = dev_.geometry().data_size;
  // Dead bytes adding up to less than a page do not justify an erase: every
  // valid page holds a differential one byte short of a page.
  for (uint32_t addr = 0; addr < 2 * ppb; ++addr) {
    pdl_map_.AttachDiff(/*pid=*/addr, addr, page_bytes - 1);
  }
  EXPECT_EQ(ftl::ScoreBlock(bm_, pdl_map_, 0), ppb);
  EXPECT_TRUE(ftl::PickVictimGroup(bm_, pdl_map_).empty());
  EXPECT_TRUE(ftl::PickVictimGroup(bm_, opu_map_).empty());
  // One obsolete page does.
  ASSERT_TRUE(bm_.MarkObsolete(ppb).ok());
  EXPECT_EQ(ftl::PickVictimGroup(bm_, opu_map_), std::vector<uint32_t>{1});
}

// Every MappingTable call that moves a page's valid-differential count or
// live bytes moves its block's sums with it.
TEST_F(VictimScoreTest, BlockSumsFollowEveryMappingUpdate) {
  FillBlocks(2);
  const uint32_t ppb = dev_.geometry().pages_per_block;
  const PhysAddr dp = ppb + 5;  // a differential page in block 1
  pdl_map_.AttachDiff(/*pid=*/0, dp, 100);
  pdl_map_.AttachDiff(/*pid=*/1, dp, 300);
  EXPECT_EQ(pdl_map_.block_diff_pages(1), 1u);
  EXPECT_EQ(pdl_map_.block_diff_live_bytes(1), 400u);
  ExpectScoresMatchTheWalk();
  // pid 0's record moves to page 3 of block 0.
  EXPECT_EQ(pdl_map_.DetachDiff(0), dp);
  ASSERT_FALSE(*pdl_map_.ReleaseDiffRef(dp));
  pdl_map_.AttachDiff(/*pid=*/0, 3, 120);
  EXPECT_EQ(pdl_map_.block_diff_live_bytes(1), 300u);
  EXPECT_EQ(pdl_map_.block_diff_pages(0), 1u);
  ExpectScoresMatchTheWalk();
  // pid 1's record leaves too: the page holds no live differential.
  EXPECT_EQ(pdl_map_.DetachDiff(1), dp);
  ASSERT_TRUE(*pdl_map_.ReleaseDiffRef(dp));
  EXPECT_EQ(pdl_map_.block_diff_pages(1), 0u);
  EXPECT_EQ(pdl_map_.block_diff_live_bytes(1), 0u);
  ExpectScoresMatchTheWalk();
  // An erase forgets block 0's page with its record still attached.
  for (uint32_t p = 0; p < ppb; ++p) pdl_map_.ForgetPhysPage(p);
  EXPECT_EQ(pdl_map_.block_diff_pages(0), 0u);
  EXPECT_EQ(pdl_map_.block_diff_live_bytes(0), 0u);
  // Reset clears every sum.
  pdl_map_.AttachDiff(/*pid=*/2, dp, 50);
  pdl_map_.Reset(dev_.geometry().total_pages(), dev_.geometry().total_pages());
  EXPECT_EQ(pdl_map_.block_diff_pages(1), 0u);
  EXPECT_EQ(pdl_map_.block_diff_live_bytes(1), 0u);
}

// --- The O(1) score on live PDL stores --------------------------------------

/// Holds every data block's ScoreBlock to the page walk. Runs as a fault
/// injector's BeforeMutation on each erase issued under OpCategory::kGc: the
/// end of every GC round, after its relocations, compaction and
/// ForgetPhysPage calls, right where the next round will pick.
class ScoreAuditor : public flash::FaultInjector {
 public:
  explicit ScoreAuditor(const FlashDevice* dev) : dev_(dev) {}

  void set_store(const ftl::OutPlaceStore* store) { store_ = store; }
  uint32_t gc_erases_audited() const { return gc_erases_audited_; }

  /// Audits every data block now, failing the test on each that disagrees;
  /// returns how many did.
  uint32_t Audit() {
    const ftl::BlockManager& bm = store_->block_manager();
    const ftl::MappingTable& map = store_->mapping();
    uint32_t mismatches = 0;
    for (uint32_t b = 0; b < dev_->geometry().num_data_blocks(); ++b) {
      const uint64_t fast = ftl::ScoreBlock(bm, map, b);
      const uint64_t walk = WalkScore(bm, map, b);
      if (fast != walk) {
        ADD_FAILURE() << "block " << b << ": ScoreBlock " << fast
                      << ", page walk " << walk;
        ++mismatches;
      }
    }
    return mismatches;
  }

  void BeforeMutation(flash::OpKind kind, uint32_t) override {
    if (kind != flash::OpKind::kErase ||
        dev_->category() != flash::OpCategory::kGc) {
      return;
    }
    ++gc_erases_audited_;
    Audit();
  }
  void AfterMutation(flash::OpKind, uint32_t) override {}

 private:
  const FlashDevice* dev_;
  const ftl::OutPlaceStore* store_ = nullptr;
  uint32_t gc_erases_audited_ = 0;
};

struct ScoreCase {
  uint32_t max_differential_size;
  uint32_t dies;
  uint32_t planes_per_die;
};

class GcScoreTest : public ::testing::TestWithParam<ScoreCase> {};

// ScoreBlock's per-block sums equal the page walk after every GC round and
// after Recover(), with one remount mid-run, so every victim is the block
// the walk would pick, ties included.
TEST_P(GcScoreTest, EveryBlockScoresItsPageWalk) {
  const ScoreCase& c = GetParam();
  FlashConfig cfg = FlashConfig::Small(64);
  cfg.geometry.dies_per_chip = c.dies;
  cfg.geometry.planes_per_die = c.planes_per_die;
  FlashDevice dev(cfg);
  ScoreAuditor auditor(&dev);
  dev.set_fault_injector(&auditor);
  pdl::PdlConfig pcfg;
  pcfg.max_differential_size = c.max_differential_size;
  auto store = std::make_unique<pdl::PdlStore>(&dev, pcfg);
  auditor.set_store(store.get());
  // The benches' database: half the chip less two blocks of headroom.
  const uint32_t pages = (64 - 2) * cfg.geometry.pages_per_block / 2;
  SeedArg arg{41};
  ASSERT_TRUE(store->Format(pages, &SeededImage, &arg).ok());
  Random r(42);
  ByteBuffer buf(cfg.geometry.data_size);
  constexpr int kOps = 40000;
  for (int op = 0; op < kOps; ++op) {
    if (op == kOps / 2) {
      // Remount: a new store rebuilds its sums from the spare scan.
      ASSERT_TRUE(store->Flush().ok());
      const uint32_t before = auditor.gc_erases_audited();
      store = std::make_unique<pdl::PdlStore>(&dev, pcfg);
      auditor.set_store(store.get());
      ASSERT_TRUE(store->Recover().ok());
      EXPECT_EQ(auditor.Audit(), 0u) << "after Recover()";
      EXPECT_GT(before, 0u) << "no GC erase before the remount";
    }
    const PageId pid = static_cast<PageId>(r.Uniform(pages));
    ASSERT_TRUE(store->ReadPage(pid, buf).ok());
    // One to three runs of 8-128 changed bytes: differentials of every size,
    // some past PDL(256B)'s limit (new base pages).
    const uint64_t runs = 1 + r.Uniform(3);
    for (uint64_t i = 0; i < runs; ++i) {
      const uint32_t len = 8 + static_cast<uint32_t>(r.Uniform(121));
      const uint32_t off = static_cast<uint32_t>(r.Uniform(buf.size() - len));
      for (uint32_t k = 0; k < len; ++k) buf[off + k] ^= 0x6D;
    }
    const Status st = store->WriteBack(pid, buf);
    ASSERT_TRUE(st.ok()) << "op " << op << ": " << st.ToString();
  }
  EXPECT_EQ(auditor.Audit(), 0u) << "at the end";
  EXPECT_GT(auditor.gc_erases_audited(), 100u);
  dev.set_fault_injector(nullptr);
}

INSTANTIATE_TEST_SUITE_P(
    PdlSizesAndGeometries, GcScoreTest,
    ::testing::Values(ScoreCase{256, 1, 1}, ScoreCase{2048, 1, 1},
                      ScoreCase{256, 2, 4}, ScoreCase{2048, 2, 4}),
    [](const ::testing::TestParamInfo<ScoreCase>& info) {
      return "PDL" + std::to_string(info.param.max_differential_size) +
             "B_" + std::to_string(info.param.dies) + "x" +
             std::to_string(info.param.planes_per_die);
    });

// --- Store-level behavior ---------------------------------------------------

TEST(GcPolicyTest, OpuSurvivesSustainedGc) {
  FlashDevice dev(FlashConfig::Small(16));
  methods::OpuStore store(&dev);
  const uint32_t pages = 16 * 64 / 2;
  SeedArg arg{21};
  ASSERT_TRUE(store.Format(pages, &SeededImage, &arg).ok());
  Random r(22);
  ByteBuffer buf(dev.geometry().data_size);
  std::map<PageId, ByteBuffer> shadow;
  for (int op = 0; op < 4000; ++op) {
    const PageId pid = static_cast<PageId>(r.Uniform(pages));
    ASSERT_TRUE(store.ReadPage(pid, buf).ok());
    buf[r.Uniform(buf.size())] ^= 0xA5;
    ASSERT_TRUE(store.WriteBack(pid, buf).ok()) << "op " << op;
    shadow[pid] = buf;
  }
  EXPECT_GT(store.gc_runs(), 0u);
  for (const auto& [pid, expected] : shadow) {
    ASSERT_TRUE(store.ReadPage(pid, buf).ok());
    ASSERT_TRUE(BytesEqual(buf, expected)) << "pid " << pid;
  }
}

TEST(GcPolicyTest, LargeDifferentialsGetMergedIntoBases) {
  FlashDevice dev(FlashConfig::Small(16));
  pdl::PdlConfig cfg;
  cfg.max_differential_size = 2048;  // PDL(2KB): differentials can grow big
  pdl::PdlStore store(&dev, cfg);
  const uint32_t pages = 16 * 64 / 2 - 64;
  SeedArg arg{3};
  ASSERT_TRUE(store.Format(pages, &SeededImage, &arg).ok());
  Random r(4);
  ByteBuffer buf(dev.geometry().data_size);
  // Repeated 2%-updates grow every page's cumulative differential well past
  // the merge threshold (data_size/4), so GC must merge.
  for (int op = 0; op < 12000; ++op) {
    const PageId pid = static_cast<PageId>(r.Uniform(pages));
    ASSERT_TRUE(store.ReadPage(pid, buf).ok());
    const uint32_t off = static_cast<uint32_t>(r.Uniform(buf.size() - 41));
    for (int i = 0; i < 41; ++i) buf[off + i] ^= 0x99;
    Status st = store.WriteBack(pid, buf);
    ASSERT_TRUE(st.ok()) << "op " << op << ": " << st.ToString();
  }
  EXPECT_GT(store.gc_runs(), 0u);
  EXPECT_GT(store.counters().gc_diffs_merged, 0u);
}

TEST(GcPolicyTest, SustainedLoadNeverRunsOutOfSpace) {
  // The regression that motivated byte-scored victims + merging: PDL(2KB)
  // under deep update workloads at 50% utilization must keep serving
  // indefinitely instead of livelocking or reporting NoSpace.
  for (uint32_t n_updates : {1u, 4u}) {
    FlashDevice dev(FlashConfig::Small(32));
    pdl::PdlConfig cfg;
    cfg.max_differential_size = 2048;
    pdl::PdlStore store(&dev, cfg);
    const uint32_t pages = (32 * 64 - 2 * 64) / 2;
    SeedArg arg{9};
    ASSERT_TRUE(store.Format(pages, &SeededImage, &arg).ok());
    Random r(n_updates);
    ByteBuffer buf(dev.geometry().data_size);
    for (int op = 0; op < 30000; ++op) {
      const PageId pid = static_cast<PageId>(r.Uniform(pages));
      ASSERT_TRUE(store.ReadPage(pid, buf).ok());
      for (uint32_t u = 0; u < n_updates; ++u) {
        const uint32_t off = static_cast<uint32_t>(r.Uniform(buf.size() - 41));
        for (int i = 0; i < 41; ++i) buf[off + i] ^= 0x5B;
      }
      Status st = store.WriteBack(pid, buf);
      ASSERT_TRUE(st.ok()) << "N=" << n_updates << " op " << op << ": "
                           << st.ToString();
    }
  }
}

// Every method reaches a deep steady state on multi-plane chips. One GC
// round can open a fresh block on every (stream, plane) pair, so a reserve
// that ignores the plane count runs dry: both PDL sizes then fail with
// NoSpace on each of these geometries within the 40,000 warm-up updates.
struct PlaneCase {
  const char* method;
  uint32_t dies;
  uint32_t planes_per_die;
};

class MultiPlaneGcTest : public ::testing::TestWithParam<PlaneCase> {};

TEST_P(MultiPlaneGcTest, WarmsUpAndRunsVerified) {
  const PlaneCase& c = GetParam();
  FlashConfig cfg = FlashConfig::Small(64);
  cfg.geometry.dies_per_chip = c.dies;
  cfg.geometry.planes_per_die = c.planes_per_die;
  FlashDevice dev(cfg);
  auto spec = methods::ParseMethodSpec(c.method);
  ASSERT_TRUE(spec.ok());
  auto store = methods::CreateStore(&dev, *spec);
  workload::WorkloadParams params;
  params.verify = true;
  workload::UpdateDriver driver(store.get(), params);
  // The benches' database: half the chip less two blocks of headroom.
  const uint32_t ppb = cfg.geometry.pages_per_block;
  ASSERT_TRUE(driver.LoadDatabase((64 - 2) * ppb / 2).ok());
  Status st = driver.Warmup(/*erases_per_block=*/10.0, /*max_ops=*/40000);
  ASSERT_TRUE(st.ok()) << st.ToString();
  workload::RunStats stats;
  st = driver.Run(500, &stats);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(stats.operations, 500u);
  EXPECT_GT(dev.stats().total.erases, 0u);
}

std::vector<PlaneCase> PlaneCases() {
  std::vector<PlaneCase> cases;
  for (const char* method : {"OPU", "PDL(256B)", "PDL(2048B)"}) {
    cases.push_back({method, 1, 4});
    cases.push_back({method, 2, 4});
    cases.push_back({method, 1, 8});
  }
  return cases;
}

std::string PlaneCaseName(const ::testing::TestParamInfo<PlaneCase>& info) {
  std::string name;
  for (const char* ch = info.param.method; *ch != '\0'; ++ch) {
    if (std::isalnum(static_cast<unsigned char>(*ch))) name += *ch;
  }
  return name + "_" + std::to_string(info.param.dies) + "x" +
         std::to_string(info.param.planes_per_die);
}

INSTANTIATE_TEST_SUITE_P(Geometries, MultiPlaneGcTest,
                         ::testing::ValuesIn(PlaneCases()), PlaneCaseName);

TEST(GcPolicyTest, MergedPagesRemainReadableAndRecoverable) {
  FlashDevice dev(FlashConfig::Small(16));
  pdl::PdlConfig cfg;
  cfg.max_differential_size = 2048;
  pdl::PdlStore store(&dev, cfg);
  const uint32_t pages = 16 * 64 / 2 - 64;
  SeedArg arg{5};
  ASSERT_TRUE(store.Format(pages, &SeededImage, &arg).ok());
  Random r(6);
  ByteBuffer buf(dev.geometry().data_size);
  std::map<PageId, ByteBuffer> shadow;
  for (int op = 0; op < 10000; ++op) {
    const PageId pid = static_cast<PageId>(r.Uniform(pages));
    ASSERT_TRUE(store.ReadPage(pid, buf).ok());
    const uint32_t off = static_cast<uint32_t>(r.Uniform(buf.size() - 80));
    for (int i = 0; i < 80; ++i) buf[off + i] ^= 0x37;
    ASSERT_TRUE(store.WriteBack(pid, buf).ok());
    shadow[pid] = buf;
  }
  ASSERT_GT(store.counters().gc_diffs_merged, 0u);
  for (const auto& [pid, expected] : shadow) {
    ASSERT_TRUE(store.ReadPage(pid, buf).ok());
    ASSERT_TRUE(BytesEqual(buf, expected)) << pid;
  }
  // And across a remount.
  ASSERT_TRUE(store.Flush().ok());
  pdl::PdlStore rec(&dev, cfg);
  ASSERT_TRUE(rec.Recover().ok());
  for (const auto& [pid, expected] : shadow) {
    ASSERT_TRUE(rec.ReadPage(pid, buf).ok());
    ASSERT_TRUE(BytesEqual(buf, expected)) << pid;
  }
}

TEST(AccountingInvariantsTest, CategoryCountersSumToTotals) {
  FlashDevice dev(FlashConfig::Small(16));
  auto spec = methods::ParseMethodSpec("PDL(256B)");
  auto store = methods::CreateStore(&dev, *spec);
  workload::WorkloadParams params;
  params.pct_update_ops = 60.0;
  workload::UpdateDriver driver(store.get(), params);
  ASSERT_TRUE(driver.LoadDatabase((16 * 64 - 2 * 64) / 2).ok());
  ASSERT_TRUE(driver.Warmup(2.0, 20000).ok());
  workload::RunStats stats;
  ASSERT_TRUE(driver.Run(2000, &stats).ok());

  const flash::FlashStats& fs = dev.stats();
  flash::OpCounters sum;
  for (const auto& c : fs.by_category) sum += c;
  EXPECT_EQ(sum.reads, fs.total.reads);
  EXPECT_EQ(sum.writes, fs.total.writes);
  EXPECT_EQ(sum.erases, fs.total.erases);
  EXPECT_EQ(sum.total_us(), fs.total.total_us());
  // Virtual clock equals the accounted total.
  EXPECT_EQ(dev.clock().now_us(), fs.total.total_us());
  // Erase counters match per-block wear.
  uint64_t wear = 0;
  for (uint32_t e : fs.block_erase_counts) wear += e;
  EXPECT_EQ(wear, fs.total.erases);
}

TEST(AccountingInvariantsTest, ReadOnlyPagesNeedOneReadAfterMerge) {
  // After GC merges a page's differential into a fresh base, reads of that
  // page drop back to a single flash read (the paper's read-only advantage).
  FlashDevice dev(FlashConfig::Small(16));
  pdl::PdlConfig cfg;
  cfg.max_differential_size = 2048;
  pdl::PdlStore store(&dev, cfg);
  const uint32_t pages = 16 * 64 / 2 - 64;
  SeedArg arg{7};
  ASSERT_TRUE(store.Format(pages, &SeededImage, &arg).ok());
  ByteBuffer buf(dev.geometry().data_size);
  uint32_t single_read_pages = 0;
  for (PageId pid = 0; pid < pages; ++pid) {
    const uint64_t before = dev.stats().total.reads;
    ASSERT_TRUE(store.ReadPage(pid, buf).ok());
    single_read_pages += (dev.stats().total.reads - before) == 1;
  }
  EXPECT_EQ(single_read_pages, pages);  // freshly formatted: no differentials
}

}  // namespace
}  // namespace flashdb
