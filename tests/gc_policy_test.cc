// Tests for the garbage collection that keeps PDL stable at the paper's 50%
// utilization: byte-scored victim selection (ftl/gc_policy.h), GC-time
// merging of large differentials, sustained-load endurance, and accounting
// invariants (device op counters vs. category breakdown; wear counters).

#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "ftl/block_manager.h"
#include "ftl/gc_policy.h"
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

class VictimScoreTest : public ::testing::Test {
 protected:
  VictimScoreTest() : dev_(FlashConfig::Small(4)), bm_(&dev_) {}

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

  FlashDevice dev_;
  ftl::BlockManager bm_;
};

TEST_F(VictimScoreTest, ObsoletePagesScoreAFullPageEach) {
  FillBlocks(2);
  const uint32_t ppb = dev_.geometry().pages_per_block;
  // Block 0: 3 obsolete pages. Block 1: 8 obsolete pages.
  for (uint32_t p = 0; p < 3; ++p) ASSERT_TRUE(bm_.MarkObsolete(p).ok());
  for (uint32_t p = 0; p < 8; ++p) ASSERT_TRUE(bm_.MarkObsolete(ppb + p).ok());
  const uint64_t page_bytes = dev_.geometry().data_size;
  EXPECT_EQ(ftl::ScoreBlock(bm_, nullptr, 0), 3 * page_bytes);
  EXPECT_EQ(ftl::ScoreBlock(bm_, nullptr, 1), 8 * page_bytes);
  EXPECT_EQ(ftl::PickVictimGroup(bm_, nullptr), std::vector<uint32_t>{1});
}

TEST_F(VictimScoreTest, ValidPageScoreAddsDeadBytes) {
  FillBlocks(2);
  const uint32_t ppb = dev_.geometry().pages_per_block;
  const uint32_t page_bytes = dev_.geometry().data_size;
  // Block 0: 2 obsolete pages, everything else scores 0.
  for (uint32_t p = 0; p < 2; ++p) ASSERT_TRUE(bm_.MarkObsolete(p).ok());
  // Block 1: 1 obsolete page, but its valid pages are almost-dead
  // differential pages worth half a page each -- the byte score dwarfs
  // block 0 even though obsolete pages alone prefer block 0.
  ASSERT_TRUE(bm_.MarkObsolete(ppb).ok());
  const ftl::ValidPageScore half_dead = [&](PhysAddr addr) -> uint64_t {
    return dev_.BlockOf(addr) == 1 ? page_bytes / 2 : 0;
  };
  EXPECT_EQ(ftl::ScoreBlock(bm_, half_dead, 1),
            page_bytes + (ppb - 1) * (page_bytes / 2));
  EXPECT_EQ(ftl::PickVictimGroup(bm_, half_dead), std::vector<uint32_t>{1});
  EXPECT_EQ(ftl::PickVictimGroup(bm_, nullptr), std::vector<uint32_t>{0});
}

TEST_F(VictimScoreTest, VictimMustReclaimAtLeastOnePage) {
  FillBlocks(2);
  // Dead bytes adding up to less than a page do not justify an erase.
  const ftl::ValidPageScore one_byte = [](PhysAddr) -> uint64_t { return 1; };
  EXPECT_TRUE(ftl::PickVictimGroup(bm_, one_byte).empty());
  EXPECT_TRUE(ftl::PickVictimGroup(bm_, nullptr).empty());
  // One obsolete page does.
  ASSERT_TRUE(bm_.MarkObsolete(dev_.geometry().pages_per_block).ok());
  EXPECT_EQ(ftl::PickVictimGroup(bm_, nullptr), std::vector<uint32_t>{1});
}

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
