// Unit tests for the BlockManager (allocation, streams, reserve) and its
// interplay with GC victim selection (ftl/gc_policy.h).

#include <gtest/gtest.h>

#include "flash/fault_injector.h"
#include "ftl/block_manager.h"
#include "ftl/gc_policy.h"
#include "ftl/mapping_table.h"
#include "ftl/spare_codec.h"

namespace flashdb::ftl {
namespace {

using flash::FlashConfig;
using flash::FlashDevice;
using flash::PhysAddr;

class BlockManagerTest : public ::testing::Test {
 protected:
  BlockManagerTest()
      : dev_(FlashConfig::Small(4)),
        bm_(&dev_),
        no_diffs_(/*track_diffs=*/false, dev_.geometry().pages_per_block) {}

  Status ProgramAt(PhysAddr addr) {
    ByteBuffer data(dev_.geometry().data_size, 0x00);
    return dev_.ProgramPage(addr, data, {});
  }

  /// The victim chosen by obsolete-page count alone (OPU's scoring).
  std::optional<uint32_t> PickGreedyVictim() {
    const std::vector<uint32_t> group = PickVictimGroup(bm_, no_diffs_);
    if (group.empty()) return std::nullopt;
    return group.front();
  }

  FlashDevice dev_;
  BlockManager bm_;
  MappingTable no_diffs_;  ///< OPU's mapping: no differential pages.
};

TEST_F(BlockManagerTest, SequentialAllocation) {
  for (uint32_t i = 0; i < dev_.geometry().pages_per_block + 3; ++i) {
    Result<PhysAddr> r = bm_.AllocatePage(false);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, i);  // linear order across blocks
    EXPECT_EQ(bm_.state(*r), PageState::kValid);
  }
}

TEST_F(BlockManagerTest, ReserveBlocksAreWithheld) {
  const uint32_t usable_blocks =
      dev_.geometry().num_blocks - bm_.gc_reserve_blocks();
  const uint32_t usable_pages =
      usable_blocks * dev_.geometry().pages_per_block;
  for (uint32_t i = 0; i < usable_pages; ++i) {
    ASSERT_TRUE(bm_.AllocatePage(false).ok()) << i;
  }
  Result<PhysAddr> r = bm_.AllocatePage(false);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNoSpace());
  // GC-mode allocation may dip into the reserve.
  EXPECT_TRUE(bm_.AllocatePage(true).ok());
}

TEST_F(BlockManagerTest, MarkObsoleteWritesSpareAndCounts) {
  Result<PhysAddr> r = bm_.AllocatePage(false);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(ProgramAt(*r).ok());
  const uint64_t writes_before = dev_.stats().total.writes;
  ASSERT_TRUE(bm_.MarkObsolete(*r).ok());
  EXPECT_EQ(dev_.stats().total.writes, writes_before + 1);
  EXPECT_EQ(bm_.state(*r), PageState::kObsolete);
  // Double marking is a caller bug.
  EXPECT_FALSE(bm_.MarkObsolete(*r).ok());
}

TEST_F(BlockManagerTest, PickGcVictimPrefersMostObsolete) {
  const uint32_t ppb = dev_.geometry().pages_per_block;
  // Fill two blocks; make block 0 mostly obsolete, block 1 slightly.
  for (uint32_t i = 0; i < 2 * ppb; ++i) {
    Result<PhysAddr> r = bm_.AllocatePage(false);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(ProgramAt(*r).ok());
  }
  for (uint32_t p = 0; p < 10; ++p) ASSERT_TRUE(bm_.MarkObsolete(p).ok());
  ASSERT_TRUE(bm_.MarkObsolete(ppb + 1).ok());
  auto victim = PickGreedyVictim();
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(*victim, 0u);
}

TEST_F(BlockManagerTest, NoVictimWhenNothingObsolete) {
  for (uint32_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(bm_.AllocatePage(false).ok());
  }
  EXPECT_FALSE(PickGreedyVictim().has_value());
}

TEST_F(BlockManagerTest, VictimNeverTheOpenBlock) {
  // Allocate half a block and obsolete everything in it; the open block must
  // still not be chosen.
  for (uint32_t i = 0; i < 10; ++i) {
    Result<PhysAddr> r = bm_.AllocatePage(false);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(ProgramAt(*r).ok());
    ASSERT_TRUE(bm_.MarkObsolete(*r).ok());
  }
  EXPECT_FALSE(PickGreedyVictim().has_value());
}

TEST_F(BlockManagerTest, EraseAndFreeRecyclesBlock) {
  const uint32_t ppb = dev_.geometry().pages_per_block;
  for (uint32_t i = 0; i < ppb; ++i) {
    Result<PhysAddr> r = bm_.AllocatePage(false);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(ProgramAt(*r).ok());
    ASSERT_TRUE(bm_.MarkObsolete(*r).ok());
  }
  // Open a second block so block 0 is closed.
  ASSERT_TRUE(bm_.AllocatePage(false).ok());
  const uint32_t free_before = bm_.free_blocks();
  ASSERT_TRUE(bm_.EraseAndFree(0).ok());
  EXPECT_EQ(bm_.free_blocks(), free_before + 1);
  for (uint32_t p = 0; p < ppb; ++p) {
    EXPECT_EQ(bm_.state(p), PageState::kFree);
  }
}

TEST_F(BlockManagerTest, LowOnSpaceSignals) {
  EXPECT_FALSE(bm_.LowOnSpace());
  const uint32_t usable_blocks =
      dev_.geometry().num_blocks - bm_.gc_reserve_blocks();
  for (uint32_t i = 0; i < usable_blocks * dev_.geometry().pages_per_block;
       ++i) {
    ASSERT_TRUE(bm_.AllocatePage(false).ok());
  }
  EXPECT_TRUE(bm_.LowOnSpace());
}

TEST_F(BlockManagerTest, RecoveryReplayRebuildsCounts) {
  const uint32_t ppb = dev_.geometry().pages_per_block;
  bm_.Reset();
  // Simulate a scan: block 0 fully programmed (half obsolete), block 1
  // partially programmed, blocks 2..3 free.
  for (uint32_t p = 0; p < ppb; ++p) {
    if (p % 2 == 0) {
      bm_.SetValidForRecovery(p);
    } else {
      bm_.SetObsoleteForRecovery(p);
    }
  }
  for (uint32_t p = 0; p < 5; ++p) bm_.SetValidForRecovery(ppb + p);
  bm_.FinalizeRecovery();
  EXPECT_EQ(bm_.free_blocks(), 2u);
  EXPECT_EQ(bm_.CountValidPages(), ppb / 2 + 5);
  // The half-obsolete block should be the GC victim.
  auto victim = PickGreedyVictim();
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(*victim, 0u);
}

TEST_F(BlockManagerTest, StreamsFillSeparateBlocks) {
  // An 8-block chip has room for three streams' open blocks beside the
  // derived reserve, min(3 + 2, max(2, 8 / 8)) = 2.
  FlashDevice dev(FlashConfig::Small(8));
  BlockManager bm(&dev, /*num_streams=*/3);
  EXPECT_EQ(bm.num_streams(), 3u);
  ASSERT_EQ(bm.gc_reserve_blocks(), 2u);
  Result<PhysAddr> a = bm.AllocatePage(false, 0);
  Result<PhysAddr> b = bm.AllocatePage(false, 1);
  Result<PhysAddr> c = bm.AllocatePage(false, 2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(c.ok());
  // Each stream opens its own block; allocations never interleave.
  EXPECT_NE(dev.BlockOf(*a), dev.BlockOf(*b));
  EXPECT_NE(dev.BlockOf(*b), dev.BlockOf(*c));
  EXPECT_NE(dev.BlockOf(*a), dev.BlockOf(*c));
  Result<PhysAddr> a2 = bm.AllocatePage(false, 0);
  ASSERT_TRUE(a2.ok());
  EXPECT_EQ(dev.BlockOf(*a2), dev.BlockOf(*a));
  EXPECT_EQ(*a2, *a + 1);
  // Out-of-range streams are rejected.
  EXPECT_FALSE(bm.AllocatePage(false, 3).ok());
}


// --- Plane-striped allocation and bad-block handling ----------------------

FlashConfig TwoPlaneConfig(uint32_t blocks = 8) {
  FlashConfig cfg = FlashConfig::Small(blocks);
  cfg.geometry.planes_per_die = 2;
  return cfg;
}

TEST(BlockManagerPlaneTest, AllocationStripesAcrossPlanes) {
  FlashDevice dev(TwoPlaneConfig());
  BlockManager bm(&dev);
  // One stream, two planes: consecutive allocations alternate between the
  // open blocks of plane 0 (block 0) and plane 1 (block 1), page by page.
  for (uint32_t i = 0; i < 6; ++i) {
    Result<PhysAddr> r = bm.AllocatePage(false);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(dev.BlockOf(*r), i % 2);
    EXPECT_EQ(dev.PageInBlock(*r), i / 2);
  }
}

TEST(BlockManagerPlaneTest, StreamsGetDisjointStripes) {
  FlashDevice dev(TwoPlaneConfig());
  BlockManager bm(&dev, /*num_streams=*/2);
  Result<PhysAddr> a = bm.AllocatePage(false, 0);
  Result<PhysAddr> b = bm.AllocatePage(false, 1);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Each stream opens its own block; the second stream must not share the
  // first stream's open block even though both start at plane 0.
  EXPECT_NE(dev.BlockOf(*a), dev.BlockOf(*b));
}

TEST(BlockManagerPlaneTest, BadBlockExcludedFromAllocation) {
  FlashDevice dev(TwoPlaneConfig());
  BlockManager bm(&dev);
  bm.MarkBadForRecovery(0);
  EXPECT_TRUE(bm.is_bad_block(0));
  EXPECT_EQ(bm.num_bad_blocks(), 1u);
  EXPECT_EQ(bm.bad_blocks(), std::vector<uint32_t>{0});
  // Plane 0's next free block is 2; plane 1 still starts at block 1.
  Result<PhysAddr> a = bm.AllocatePage(false);
  Result<PhysAddr> b = bm.AllocatePage(false);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(dev.BlockOf(*a), 2u);
  EXPECT_EQ(dev.BlockOf(*b), 1u);
}

TEST(BlockManagerPlaneTest, EraseAndFreeGroupUsesOneMultiPlaneCommand) {
  FlashDevice dev(TwoPlaneConfig());
  BlockManager bm(&dev);
  const uint32_t ppb = dev.geometry().pages_per_block;
  for (uint32_t i = 0; i < 2 * ppb; ++i) {
    ASSERT_TRUE(bm.AllocatePage(false).ok());
  }
  bm.CloseOpenBlocks();
  const uint32_t free_before = bm.free_blocks();
  const uint64_t clock_before = dev.clock().now_us();
  ASSERT_TRUE(bm.EraseAndFreeGroup({0, 1}).ok());
  // Two block erases for wear accounting, one command's worth of time.
  EXPECT_EQ(dev.stats().total.erases, 2u);
  EXPECT_EQ(dev.clock().now_us(), clock_before + dev.config().timing.erase_us);
  EXPECT_EQ(bm.free_blocks(), free_before + 2);
}

TEST(BlockManagerPlaneTest, GroupEraseFailureIsolatesGrownBadBlock) {
  FlashConfig cfg = TwoPlaneConfig();
  FlashDevice dev(cfg);
  flash::EraseFailureInjector fi(cfg.geometry.pages_per_block);
  dev.set_fault_injector(&fi);
  BlockManager bm(&dev);
  const uint32_t ppb = dev.geometry().pages_per_block;
  for (uint32_t i = 0; i < 2 * ppb; ++i) {
    ASSERT_TRUE(bm.AllocatePage(false).ok());
  }
  bm.CloseOpenBlocks();
  fi.Arm();
  // The multi-plane command fails as a whole; the per-block retry marks the
  // grown bad block out of service and still reclaims the good one.
  ASSERT_TRUE(bm.EraseAndFreeGroup({0, 1}).ok());
  ASSERT_EQ(fi.failed_blocks(), std::vector<uint32_t>{0});
  EXPECT_TRUE(bm.is_bad_block(0));
  EXPECT_FALSE(bm.is_bad_block(1));
  EXPECT_TRUE(dev.HasBadBlockOob(0));
  EXPECT_TRUE(dev.IsErased(dev.AddrOf(1, 0)));
}

TEST(BlockManagerPlaneTest, ScanFactoryBadBlocksFindsOobMarks) {
  FlashDevice dev(TwoPlaneConfig());
  ASSERT_TRUE(dev.MarkBadBlockOob(3).ok());
  ASSERT_TRUE(dev.MarkBadBlockOob(5).ok());
  Result<std::vector<uint32_t>> bad = ScanFactoryBadBlocks(&dev);
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(*bad, (std::vector<uint32_t>{3, 5}));
  // The scan pays one spare read per data block.
  EXPECT_EQ(dev.stats().total.reads, dev.geometry().num_data_blocks());
}

TEST(BlockManagerPlaneTest, PickVictimGroupPairsPlanesOfOneDie) {
  FlashDevice dev(TwoPlaneConfig());
  BlockManager bm(&dev);
  const uint32_t ppb = dev.geometry().pages_per_block;
  std::vector<PhysAddr> pages;
  for (uint32_t i = 0; i < 2 * ppb; ++i) {
    Result<PhysAddr> r = bm.AllocatePage(false);
    ASSERT_TRUE(r.ok());
    pages.push_back(*r);
  }
  bm.CloseOpenBlocks();
  // Block 0 fully obsolete (the lead victim); block 1 (plane 1) half
  // obsolete -- exactly at the half-score threshold, so it joins the group.
  for (PhysAddr a : pages) {
    const bool in_lead = dev.BlockOf(a) == 0;
    const bool in_secondary =
        dev.BlockOf(a) == 1 && dev.PageInBlock(a) < ppb / 2;
    if (in_lead || in_secondary) {
      ASSERT_TRUE(bm.MarkObsolete(a).ok());
    }
  }
  const MappingTable no_diffs(/*track_diffs=*/false, ppb);
  std::vector<uint32_t> group = PickVictimGroup(bm, no_diffs);
  EXPECT_EQ(group, (std::vector<uint32_t>{0, 1}));
}

TEST(BlockManagerPlaneTest, PickVictimGroupSkipsWeakSecondaries) {
  FlashDevice dev(TwoPlaneConfig());
  BlockManager bm(&dev);
  const uint32_t ppb = dev.geometry().pages_per_block;
  std::vector<PhysAddr> pages;
  for (uint32_t i = 0; i < 2 * ppb; ++i) {
    Result<PhysAddr> r = bm.AllocatePage(false);
    ASSERT_TRUE(r.ok());
    pages.push_back(*r);
  }
  bm.CloseOpenBlocks();
  // A secondary scoring under half the lead would cost nearly a block of
  // valid-page relocation to save one erase command: not worth it.
  for (PhysAddr a : pages) {
    const bool in_lead = dev.BlockOf(a) == 0;
    const bool in_secondary = dev.BlockOf(a) == 1 && dev.PageInBlock(a) < 3;
    if (in_lead || in_secondary) {
      ASSERT_TRUE(bm.MarkObsolete(a).ok());
    }
  }
  const MappingTable no_diffs(/*track_diffs=*/false, ppb);
  std::vector<uint32_t> group = PickVictimGroup(bm, no_diffs);
  EXPECT_EQ(group, std::vector<uint32_t>{0});
}

TEST_F(BlockManagerTest, UsablePagesAccounting) {
  // The fixture's 4-block chip clamps OPU's one-stream reserve, 1 + 2, to 2.
  const auto& g = dev_.geometry();
  ASSERT_EQ(bm_.gc_reserve_blocks(), 2u);
  EXPECT_EQ(bm_.usable_pages(),
            static_cast<uint64_t>(g.num_blocks - 2) * g.pages_per_block);
  // A bad block leaves service and takes its pages with it.
  bm_.MarkBadForRecovery(3);
  EXPECT_EQ(bm_.usable_pages(),
            static_cast<uint64_t>(g.num_blocks - 3) * g.pages_per_block);
}

// The GC reserve is streams x planes + 2, with only the one-plane share,
// streams + 2, clamped to max(2, data blocks / 8) on small chips.
TEST(BlockManagerReserveTest, DerivedFromStreamsAndPlanes) {
  struct Case {
    uint32_t blocks, dies, planes_per_die, streams, reserve;
  };
  // On 16 blocks the one-plane share clamps to 2; on 32 and 256 it does not.
  const Case cases[] = {
      {256, 1, 1, 1, 3},   // OPU, 1x1: the historical 3
      {256, 1, 1, 2, 4},   // PDL, 1x1: the historical 4
      {16, 1, 1, 1, 2},    // OPU, 1x1, clamped
      {16, 1, 1, 2, 2},    // PDL, 1x1, clamped
      {256, 1, 4, 1, 6},   // OPU, 1x4: 3 + 1 x 3
      {256, 1, 4, 2, 10},  // PDL, 1x4: 4 + 2 x 3
      {16, 1, 4, 1, 5},    // OPU, 1x4, clamped: 2 + 1 x 3
      {16, 1, 4, 2, 8},    // PDL, 1x4, clamped: 2 + 2 x 3
      {256, 2, 4, 1, 10},  // OPU, 2x4: 3 + 1 x 7
      {256, 2, 4, 2, 18},  // PDL, 2x4: 4 + 2 x 7
      {16, 2, 4, 1, 9},    // OPU, 2x4, clamped: 2 + 1 x 7
      {16, 2, 4, 2, 16},   // PDL, 2x4, clamped: 2 + 2 x 7
      {32, 2, 4, 2, 18},   // PDL, 2x4: 18 of 32 blocks withheld
  };
  for (const Case& c : cases) {
    FlashConfig cfg = FlashConfig::Small(c.blocks);
    cfg.geometry.dies_per_chip = c.dies;
    cfg.geometry.planes_per_die = c.planes_per_die;
    FlashDevice dev(cfg);
    BlockManager bm(&dev, c.streams);
    EXPECT_EQ(bm.gc_reserve_blocks(), c.reserve)
        << c.blocks << " blocks, " << c.dies << "x" << c.planes_per_die
        << ", " << c.streams << " stream(s)";
  }
}

}  // namespace
}  // namespace flashdb::ftl
