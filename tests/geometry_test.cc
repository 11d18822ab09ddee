// Geometry property sweep: every method must behave correctly across page
// sizes and block shapes (the paper also evaluates 8 KB logical pages), and
// the allocator streams must respect NAND ordering in all of them.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "common/random.h"
#include "ftl/block_manager.h"
#include "ftl/gc_policy.h"
#include "methods/method_factory.h"

namespace flashdb {
namespace {

using flash::FlashConfig;
using flash::FlashDevice;

struct SeedArg {
  uint64_t seed;
};
void SeededImage(PageId pid, MutBytes page, void* arg) {
  Random r(static_cast<SeedArg*>(arg)->seed ^ (pid * 0xD1B54A32D192ED03ULL));
  r.Fill(page);
}

struct Geometry {
  uint32_t blocks;
  uint32_t pages_per_block;
  uint32_t data_size;
};

class GeometrySweepTest
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(GeometrySweepTest, ReadWriteVerifyAcrossGeometries) {
  const auto& [method, geom_idx] = GetParam();
  static const Geometry kGeometries[] = {
      {16, 64, 2048},   // paper default shape
      {64, 16, 8192},   // 8 KB logical pages (Fig. 13b), 128 KB blocks
      {32, 32, 4096},   // intermediate
  };
  const Geometry& g = kGeometries[geom_idx];
  FlashConfig cfg;
  cfg.geometry.num_blocks = g.blocks;
  cfg.geometry.pages_per_block = g.pages_per_block;
  cfg.geometry.data_size = g.data_size;
  FlashDevice dev(cfg);

  auto spec = methods::ParseMethodSpec(method);
  ASSERT_TRUE(spec.ok());
  auto store = methods::CreateStore(&dev, *spec);
  const uint32_t pages = cfg.geometry.total_pages() * 2 / 5;
  SeedArg arg{77};
  ASSERT_TRUE(store->Format(pages, &SeededImage, &arg).ok());

  std::vector<ByteBuffer> shadow(pages);
  for (PageId pid = 0; pid < pages; ++pid) {
    shadow[pid].resize(g.data_size);
    SeededImage(pid, shadow[pid], &arg);
  }
  Random r(geom_idx * 100 + 5);
  ByteBuffer buf(g.data_size);
  for (int op = 0; op < 400; ++op) {
    const PageId pid = static_cast<PageId>(r.Uniform(pages));
    ASSERT_TRUE(store->ReadPage(pid, buf).ok()) << op;
    ASSERT_TRUE(BytesEqual(buf, shadow[pid])) << method << " op " << op;
    const uint32_t len = 1 + static_cast<uint32_t>(r.Uniform(200));
    const uint32_t off = static_cast<uint32_t>(r.Uniform(buf.size() - len));
    UpdateLog log;
    log.offset = off;
    log.data.resize(len);
    r.Fill(log.data);
    std::memcpy(buf.data() + off, log.data.data(), len);
    ASSERT_TRUE(store->OnUpdate(pid, buf, log).ok());
    ASSERT_TRUE(store->WriteBack(pid, buf).ok()) << method << " op " << op;
    shadow[pid] = buf;
  }
  for (PageId pid = 0; pid < pages; ++pid) {
    ASSERT_TRUE(store->ReadPage(pid, buf).ok());
    ASSERT_TRUE(BytesEqual(buf, shadow[pid])) << method << " pid " << pid;
  }
}

INSTANTIATE_TEST_SUITE_P(
    MethodsXGeometries, GeometrySweepTest,
    ::testing::Combine(::testing::Values("PDL(256B)", "PDL(2KB)", "OPU",
                                         "IPL(18KB)", "IPL(64KB)"),
                       ::testing::Values(0, 1, 2)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, int>>& info) {
      std::string name = std::get<0>(info.param);
      for (char& c : name) {
        if (!isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name + "_geom" + std::to_string(std::get<1>(info.param));
    });

TEST(BlockManagerStreamsTest, StreamsUseDisjointOpenBlocks) {
  FlashDevice dev(FlashConfig::Small(8));
  ftl::BlockManager bm(&dev, /*num_streams=*/2);
  auto a = bm.AllocatePage(false, 0);
  auto b = bm.AllocatePage(false, 1);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(dev.BlockOf(*a), dev.BlockOf(*b));
  // Each stream fills its own block sequentially.
  auto a2 = bm.AllocatePage(false, 0);
  auto b2 = bm.AllocatePage(false, 1);
  EXPECT_EQ(dev.BlockOf(*a2), dev.BlockOf(*a));
  EXPECT_EQ(dev.BlockOf(*b2), dev.BlockOf(*b));
  EXPECT_EQ(dev.PageInBlock(*a2), dev.PageInBlock(*a) + 1);
}

TEST(MetaGeometryTest, MetaRegionHelpersAndExclusion) {
  FlashConfig cfg = FlashConfig::Small(16).WithMetaBlocks(4);
  const auto& g = cfg.geometry;
  EXPECT_EQ(g.num_data_blocks(), 12u);
  EXPECT_EQ(g.data_pages(), 12u * g.pages_per_block);
  EXPECT_EQ(g.first_meta_page(), g.data_pages());
  EXPECT_EQ(g.total_pages(), 16u * g.pages_per_block);
  EXPECT_EQ(g.data_capacity_bytes(),
            static_cast<uint64_t>(g.data_pages()) * g.data_size);

  // The allocator never hands out meta-region pages, even when exhausted:
  // normal allocation stops at the GC reserve (derived from the 12 data
  // blocks alone: min(1 + 2, max(2, 12 / 8))), and GC allocation drains the
  // reserve up to the data boundary.
  FlashDevice dev(cfg);
  ftl::BlockManager bm(&dev);
  ASSERT_EQ(bm.gc_reserve_blocks(), 2u);
  for (const bool for_gc : {false, true}) {
    uint64_t allocated = 0;
    while (true) {
      auto a = bm.AllocatePage(for_gc, 0);
      if (!a.ok()) break;
      EXPECT_LT(*a, g.data_pages());
      ++allocated;
    }
    EXPECT_EQ(allocated, for_gc ? 2u * g.pages_per_block
                                : (12u - 2u) * g.pages_per_block);
  }

  // A journal-less store formatted on a meta-reserving chip sees only the
  // data region (capacity checks, erase sweep, recovery scan).
  auto spec = methods::ParseMethodSpec("OPU");
  ASSERT_TRUE(spec.ok());
  auto store = methods::CreateStore(&dev, *spec);
  ASSERT_TRUE(store->Format(64, nullptr, nullptr).ok());
  ByteBuffer buf(g.data_size);
  ASSERT_TRUE(store->WriteBack(7, buf).ok());
  ASSERT_TRUE(store->Recover().ok());
  EXPECT_EQ(store->num_logical_pages(), 64u);
  // Meta pages stayed erased through format, workload, and recovery.
  for (uint32_t p = g.first_meta_page(); p < g.total_pages(); ++p) {
    ASSERT_TRUE(dev.IsErased(p)) << "meta page " << p << " touched";
  }
}

TEST(BlockManagerStreamsTest, InvalidStreamRejected) {
  FlashDevice dev(FlashConfig::Small(4));
  ftl::BlockManager bm(&dev, /*num_streams=*/2);
  EXPECT_FALSE(bm.AllocatePage(false, bm.num_streams()).ok());
}

TEST(BlockManagerStreamsTest, CloseOpenBlocksMakesThemVictims) {
  FlashDevice dev(FlashConfig::Small(4));
  ftl::BlockManager bm(&dev);
  ByteBuffer page(dev.geometry().data_size, 0x00);
  for (int i = 0; i < 8; ++i) {
    auto a = bm.AllocatePage(false, 0);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(dev.ProgramPage(*a, page, {}).ok());
    ASSERT_TRUE(bm.MarkObsolete(*a).ok());
  }
  // Open block excluded from victim selection.
  EXPECT_TRUE(ftl::PickVictimGroup(bm, nullptr).empty());
  // The GC round preamble closes the open blocks and picks again.
  Result<std::vector<uint32_t>> victims =
      ftl::PickGcVictims(&dev, &bm, nullptr);
  ASSERT_TRUE(victims.ok());
  EXPECT_EQ(*victims, std::vector<uint32_t>{0});
}

TEST(BlockManagerStreamsTest, NothingReclaimableIsNoSpace) {
  FlashDevice dev(FlashConfig::Small(4));
  ftl::BlockManager bm(&dev);
  ByteBuffer page(dev.geometry().data_size, 0x00);
  for (int i = 0; i < 8; ++i) {
    auto a = bm.AllocatePage(false, 0);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(dev.ProgramPage(*a, page, {}).ok());
  }
  // Every page is valid: even with the open block closed there is nothing
  // to reclaim.
  EXPECT_TRUE(ftl::PickGcVictims(&dev, &bm, nullptr).status().IsNoSpace());
}

// Format keeps factory bad-block marks on every method. OPU and PDL remap:
// the marked block leaves service and Format succeeds. IPU and IPL map pages
// to fixed blocks, so they refuse to format rather than erase the mark.
TEST(FactoryBadBlockTest, FormatNeverErasesTheMark) {
  for (const char* method : {"OPU", "PDL(256B)", "IPU", "IPL(18KB)"}) {
    FlashConfig cfg = FlashConfig::Small(16);
    cfg.scan_bad_blocks = true;
    FlashDevice dev(cfg);
    ASSERT_TRUE(dev.MarkBadBlockOob(1).ok());
    auto spec = methods::ParseMethodSpec(method);
    ASSERT_TRUE(spec.ok());
    auto store = methods::CreateStore(&dev, *spec);
    const Status st = store->Format(64, nullptr, nullptr);
    const bool remaps = spec->kind == methods::MethodKind::kOpu ||
                        spec->kind == methods::MethodKind::kPdl;
    if (remaps) {
      EXPECT_TRUE(st.ok()) << method << ": " << st.ToString();
      EXPECT_EQ(store->bad_blocks(), std::vector<uint32_t>{1}) << method;
    } else {
      EXPECT_TRUE(st.IsInvalidArgument()) << method << ": " << st.ToString();
      EXPECT_NE(st.ToString().find("block 1"), std::string::npos) << method;
      EXPECT_EQ(dev.stats().total.erases, 0u) << method;
    }
    EXPECT_TRUE(dev.HasBadBlockOob(1)) << method;
  }
}

// Format refuses a database that leaves no free page beside the GC reserve
// (an out-of-place write needs one) before it programs any page; one that
// fits formats as before, one program per page, and takes a WriteBack. On a
// 32-block 2-die x 4-plane chip OPU withholds min(3, 32 / 8) + 1 x 7 = 10
// blocks and PDL min(4, 32 / 8) + 2 x 7 = 18.
TEST(FormatCapacityTest, RefusesADatabaseThatCannotFitBeforeProgramming) {
  FlashConfig cfg = FlashConfig::Small(32);
  cfg.geometry.dies_per_chip = 2;
  cfg.geometry.planes_per_die = 4;
  const uint32_t ppb = cfg.geometry.pages_per_block;
  struct Case {
    const char* method;
    uint32_t reserve;
  };
  for (const Case& c : {Case{"OPU", 10}, Case{"PDL(256B)", 18}}) {
    auto spec = methods::ParseMethodSpec(c.method);
    ASSERT_TRUE(spec.ok());
    const uint32_t usable = (32 - c.reserve) * ppb;
    FlashDevice dev(cfg);
    auto store = methods::CreateStore(&dev, *spec);
    ASSERT_TRUE(store->Format(usable - 1, nullptr, nullptr).ok()) << c.method;
    EXPECT_EQ(dev.stats().total.writes, usable - 1) << c.method;
    EXPECT_EQ(dev.stats().total.reads, 0u) << c.method;
    EXPECT_EQ(dev.stats().total.erases, 0u) << c.method;
    ByteBuffer buf(cfg.geometry.data_size, 0x5A);
    if (std::string(c.method) == "OPU") {
      EXPECT_TRUE(store->WriteBack(7, buf).ok()) << c.method;
    }
    const uint64_t writes = dev.stats().total.writes;
    // Every usable page: the erase sweep runs, then Format stops short of
    // any program and leaves the store unformatted.
    const Status st = store->Format(usable, nullptr, nullptr);
    ASSERT_TRUE(st.IsNoSpace()) << c.method << ": " << st.ToString();
    const std::string msg = st.ToString();
    for (const std::string& part :
         {std::to_string(usable) + " pages",
          std::to_string(usable) + " usable pages",
          "GC reserve " + std::to_string(c.reserve) + " blocks"}) {
      EXPECT_NE(msg.find(part), std::string::npos) << msg;
    }
    EXPECT_EQ(dev.stats().total.writes, writes) << c.method;
    EXPECT_TRUE(store->ReadPage(0, buf).IsInvalidArgument()) << c.method;
  }
}


TEST(MetaBlocksTest, ReservationRoundsUpToWholePlaneStripes) {
  FlashConfig cfg = FlashConfig::Small(32);
  cfg.geometry.dies_per_chip = 2;
  cfg.geometry.planes_per_die = 2;  // stripe width 4
  // 5 requested meta blocks round up to 8 (two whole stripes), so the
  // data/meta boundary never splits a stripe across planes.
  FlashConfig meta = cfg.WithMetaBlocks(5);
  EXPECT_EQ(meta.geometry.meta_blocks, 8u);
  EXPECT_EQ(meta.geometry.num_data_blocks(), 24u);
  // An exact multiple is untouched, and 1-plane rounding is a no-op.
  EXPECT_EQ(cfg.WithMetaBlocks(8).geometry.meta_blocks, 8u);
  FlashConfig flat = FlashConfig::Small(32);
  EXPECT_EQ(flat.WithMetaBlocks(5).geometry.meta_blocks, 5u);
}

TEST(MetaBlocksTest, AllocatorNeverEntersMetaRegionOnFourPlaneChip) {
  FlashConfig cfg = FlashConfig::Small(16);
  cfg.geometry.planes_per_die = 4;
  cfg = cfg.WithMetaBlocks(4);
  FlashDevice dev(cfg);
  ftl::BlockManager bm(&dev);
  const uint32_t data_blocks = cfg.geometry.num_data_blocks();
  ASSERT_EQ(data_blocks, 12u);
  // Every plane holds exactly data_blocks / 4 allocatable blocks; drain the
  // allocator completely and verify no page ever lands past the boundary.
  uint32_t allocated = 0;
  while (true) {
    Result<flash::PhysAddr> r = bm.AllocatePage(/*for_gc=*/true);
    if (!r.ok()) break;
    EXPECT_LT(dev.BlockOf(*r), data_blocks);
    ++allocated;
  }
  EXPECT_EQ(allocated, data_blocks * cfg.geometry.pages_per_block);
}

}  // namespace
}  // namespace flashdb
