// Unit tests for the NAND flash emulator: bit semantics, erase, sequential
// programming, partial-program budgets, timing/statistics, fault injection.

#include <gtest/gtest.h>

#include "flash/fault_injector.h"
#include "flash/flash_device.h"

namespace flashdb::flash {
namespace {

FlashConfig TinyConfig() {
  FlashConfig cfg = FlashConfig::Small(4);  // 4 blocks x 64 pages
  return cfg;
}

class FlashDeviceTest : public ::testing::Test {
 protected:
  FlashDeviceTest() : dev_(TinyConfig()) {}

  ByteBuffer Page(uint8_t fill) const {
    return ByteBuffer(dev_.geometry().data_size, fill);
  }
  ByteBuffer Spare(uint8_t fill) const {
    return ByteBuffer(dev_.geometry().spare_size, fill);
  }

  FlashDevice dev_;
};

TEST_F(FlashDeviceTest, FreshChipReadsAllOnes) {
  ByteBuffer data = Page(0);
  ByteBuffer spare = Spare(0);
  ASSERT_TRUE(dev_.ReadPage(0, data, spare).ok());
  for (uint8_t b : data) EXPECT_EQ(b, 0xFF);
  for (uint8_t b : spare) EXPECT_EQ(b, 0xFF);
}

TEST_F(FlashDeviceTest, ProgramThenReadBack) {
  ByteBuffer data = Page(0xAB);
  ByteBuffer spare = Spare(0x5A);
  ASSERT_TRUE(dev_.ProgramPage(3, data, spare).ok());
  ByteBuffer rdata = Page(0);
  ByteBuffer rspare = Spare(0);
  ASSERT_TRUE(dev_.ReadPage(3, rdata, rspare).ok());
  EXPECT_TRUE(BytesEqual(rdata, data));
  EXPECT_TRUE(BytesEqual(rspare, spare));
}

TEST_F(FlashDeviceTest, ProgramCannotFlipZeroToOne) {
  ASSERT_TRUE(dev_.ProgramPage(0, Page(0x0F), {}).ok());
  // 0xF0 would need 0->1 transitions on the low nibble bits already cleared.
  Status s = dev_.ProgramPage(0, Page(0xFF), {});
  EXPECT_TRUE(s.IsFlashConstraint());
}

TEST_F(FlashDeviceTest, RepeatedProgramAndsBits) {
  ASSERT_TRUE(dev_.ProgramPage(0, Page(0xF3), {}).ok());
  ASSERT_TRUE(dev_.ProgramPage(0, Page(0x33), {}).ok());  // only clears bits
  ByteBuffer rdata = Page(0);
  ASSERT_TRUE(dev_.ReadPage(0, rdata, {}).ok());
  for (uint8_t b : rdata) EXPECT_EQ(b, 0x33);
}

TEST_F(FlashDeviceTest, EraseResetsBlockToOnes) {
  ASSERT_TRUE(dev_.ProgramPage(0, Page(0x00), {}).ok());
  ASSERT_TRUE(dev_.EraseBlock(0).ok());
  ByteBuffer rdata = Page(0);
  ASSERT_TRUE(dev_.ReadPage(0, rdata, {}).ok());
  for (uint8_t b : rdata) EXPECT_EQ(b, 0xFF);
  EXPECT_TRUE(dev_.IsErased(0));
  EXPECT_EQ(dev_.stats().block_erase_counts[0], 1u);
}

TEST_F(FlashDeviceTest, SequentialProgrammingEnforced) {
  ASSERT_TRUE(dev_.ProgramPage(5, Page(0xAA), {}).ok());
  // First-programming page 3 after page 5 violates NAND order.
  Status s = dev_.ProgramPage(3, Page(0xAA), {});
  EXPECT_TRUE(s.IsFlashConstraint());
  // But re-programming page 5 (partial program) remains legal.
  EXPECT_TRUE(dev_.ProgramPage(5, Page(0xAA), {}).ok());
  // And later pages are fine.
  EXPECT_TRUE(dev_.ProgramPage(6, Page(0xAA), {}).ok());
}

TEST_F(FlashDeviceTest, SequentialRuleIsPerBlock) {
  ASSERT_TRUE(dev_.ProgramPage(5, Page(0xAA), {}).ok());
  const PhysAddr other_block = dev_.AddrOf(1, 0);
  EXPECT_TRUE(dev_.ProgramPage(other_block, Page(0xAA), {}).ok());
}

TEST_F(FlashDeviceTest, SpareProgramBudget) {
  ByteBuffer spare = Spare(0xFF);
  for (uint32_t i = 0; i < FlashDevice::kMaxSparePrograms; ++i) {
    spare[i] = 0x00;  // clear a different byte each time
    ASSERT_TRUE(dev_.ProgramSpare(7, spare).ok()) << i;
  }
  Status s = dev_.ProgramSpare(7, spare);
  EXPECT_TRUE(s.IsFlashConstraint());
  // An erase restores the budget.
  ASSERT_TRUE(dev_.EraseBlock(0).ok());
  EXPECT_TRUE(dev_.ProgramSpare(dev_.AddrOf(0, 7), Spare(0x0F)).ok());
}

TEST_F(FlashDeviceTest, DataProgramBudget) {
  ByteBuffer data = Page(0xFF);
  data[0] = 0xFE;
  ASSERT_TRUE(dev_.ProgramPage(0, data, {}).ok());
  for (uint32_t i = 1; i < FlashDevice::kMaxDataPrograms; ++i) {
    data[i] = 0xFE;  // clear a different byte each time
    ASSERT_TRUE(dev_.PartialProgramPage(0, data).ok()) << i;
  }
  EXPECT_TRUE(dev_.PartialProgramPage(0, data).IsFlashConstraint());
  EXPECT_EQ(dev_.DataProgramCount(0), FlashDevice::kMaxDataPrograms);
  // An erase restores the budget.
  ASSERT_TRUE(dev_.EraseBlock(0).ok());
  EXPECT_TRUE(dev_.ProgramPage(0, data, {}).ok());
}

TEST_F(FlashDeviceTest, PartialProgramKeepsOneBitsUntouched) {
  // Program slot-style: first image fills bytes 0..3, second fills 4..7 with
  // 0xFF ("keep") elsewhere; both regions must coexist afterwards.
  ByteBuffer img1 = Page(0xFF);
  for (int i = 0; i < 4; ++i) img1[i] = 0x11;
  ASSERT_TRUE(dev_.ProgramPage(0, img1, {}).ok());
  ByteBuffer img2 = Page(0xFF);
  for (int i = 4; i < 8; ++i) img2[i] = 0x22;
  ASSERT_TRUE(dev_.PartialProgramPage(0, img2).ok());
  ByteBuffer rdata = Page(0);
  ASSERT_TRUE(dev_.ReadPage(0, rdata, {}).ok());
  for (int i = 0; i < 4; ++i) EXPECT_EQ(rdata[i], 0x11);
  for (int i = 4; i < 8; ++i) EXPECT_EQ(rdata[i], 0x22);
  EXPECT_EQ(rdata[9], 0xFF);
}

// --- The first program of an area copies its image ------------------------
// An area whose program count since its erase is 0 holds only 1s, so the
// emulator copies the image instead of checking and AND-ing it. These tests
// hold each path to the AND rule's result.

/// A page image with every byte value, so a copy and an AND differ wherever
/// a cell is not all 1s.
ByteBuffer PatternPage(const FlashDevice& dev, uint8_t salt) {
  ByteBuffer page(dev.geometry().data_size);
  for (size_t i = 0; i < page.size(); ++i) {
    page[i] = static_cast<uint8_t>(i * 37 + salt);
  }
  return page;
}

TEST_F(FlashDeviceTest, FirstProgramLeavesCellsEqualToTheImage) {
  const ByteBuffer data = PatternPage(dev_, 1);
  ByteBuffer spare = Spare(0xFF);
  for (size_t i = 0; i < spare.size(); ++i) {
    spare[i] = static_cast<uint8_t>(i * 11);
  }
  ASSERT_TRUE(dev_.ProgramPage(2, data, spare).ok());
  EXPECT_TRUE(BytesEqual(dev_.RawData(2), data));
  EXPECT_TRUE(BytesEqual(dev_.RawSpare(2), spare));
  EXPECT_EQ(dev_.DataProgramCount(2), 1u);
}

TEST_F(FlashDeviceTest, SpareProgrammedFirstStillCopiesTheData) {
  // An obsolete mark programmed into an erased page's spare.
  ByteBuffer mark = Spare(0xFF);
  mark[3] = 0x00;
  ASSERT_TRUE(dev_.ProgramSpare(0, mark).ok());
  // The bad-block OOB mark on page 0 of block 1.
  ASSERT_TRUE(dev_.MarkBadBlockOob(1).ok());
  for (PhysAddr addr : {PhysAddr{0}, dev_.AddrOf(1, 0)}) {
    ASSERT_EQ(dev_.DataProgramCount(addr), 0u);
    const ByteBuffer data = PatternPage(dev_, static_cast<uint8_t>(addr));
    ASSERT_TRUE(dev_.ProgramPage(addr, data, {}).ok()) << addr;
    EXPECT_TRUE(BytesEqual(dev_.RawData(addr), data)) << addr;
    EXPECT_EQ(dev_.DataProgramCount(addr), 1u);
  }
  EXPECT_EQ(dev_.RawSpare(0)[3], 0x00);
  EXPECT_TRUE(dev_.HasBadBlockOob(1));
}

TEST_F(FlashDeviceTest, StrictReprogramNeedingZeroToOneLeavesCellsUnchanged) {
  const ByteBuffer first = PatternPage(dev_, 0);
  ASSERT_TRUE(dev_.ProgramPage(0, first, {}).ok());
  // Setting every bit back needs a 0->1 transition wherever `first` has a 0.
  const Status s = dev_.ProgramPage(0, Page(0xFF), {});
  EXPECT_TRUE(s.IsFlashConstraint()) << s.ToString();
  EXPECT_TRUE(BytesEqual(dev_.RawData(0), first));
  EXPECT_EQ(dev_.DataProgramCount(0), 1u);
  // So does a strict spare re-program (ProgramSpare is a partial program).
  ASSERT_TRUE(dev_.ProgramPage(1, {}, Spare(0x0F)).ok());
  EXPECT_TRUE(dev_.ProgramPage(1, {}, Spare(0xF0)).IsFlashConstraint());
  EXPECT_TRUE(BytesEqual(dev_.RawSpare(1), Spare(0x0F)));
}

TEST_F(FlashDeviceTest, PartialProgramAfterTheFirstAnds) {
  const ByteBuffer first = PatternPage(dev_, 0);
  const ByteBuffer second = PatternPage(dev_, 85);
  ASSERT_TRUE(dev_.ProgramPage(0, first, {}).ok());
  ASSERT_TRUE(dev_.PartialProgramPage(0, second).ok());
  ByteBuffer anded(first.size());
  for (size_t i = 0; i < anded.size(); ++i) anded[i] = first[i] & second[i];
  ASSERT_FALSE(BytesEqual(anded, second));
  EXPECT_TRUE(BytesEqual(dev_.RawData(0), anded));
  EXPECT_EQ(dev_.DataProgramCount(0), 2u);
}

TEST_F(FlashDeviceTest, EraseMakesTheNextProgramACopyAgain) {
  ASSERT_TRUE(dev_.ProgramPage(0, PatternPage(dev_, 0), Spare(0x00)).ok());
  ASSERT_TRUE(dev_.EraseBlock(0).ok());
  // Either image would fail a strict check against the old cells.
  const ByteBuffer data = PatternPage(dev_, 200);
  const ByteBuffer spare = Spare(0xA5);
  ASSERT_TRUE(dev_.ProgramPage(0, data, spare).ok());
  EXPECT_TRUE(BytesEqual(dev_.RawData(0), data));
  EXPECT_TRUE(BytesEqual(dev_.RawSpare(0), spare));
}

/// Fails every program of one page with a grown-bad-block IOError.
class ProgramFailureInjector : public FaultInjector {
 public:
  explicit ProgramFailureInjector(PhysAddr addr) : addr_(addr) {}
  void BeforeMutation(OpKind, uint32_t) override {}
  void AfterMutation(OpKind, uint32_t) override {}
  bool FailMutation(OpKind kind, uint32_t addr) override {
    return kind != OpKind::kErase && addr == addr_;
  }

 private:
  PhysAddr addr_;
};

TEST_F(FlashDeviceTest, FailedFirstProgramLeavesThePageErased) {
  ProgramFailureInjector fi(3);
  dev_.set_fault_injector(&fi);
  EXPECT_EQ(dev_.ProgramPage(3, PatternPage(dev_, 0), Spare(0x00)).code(),
            StatusCode::kIOError);
  dev_.set_fault_injector(nullptr);
  EXPECT_TRUE(dev_.IsErased(3));
  EXPECT_EQ(dev_.DataProgramCount(3), 0u);
  EXPECT_TRUE(BytesEqual(dev_.RawData(3), Page(0xFF)));
  EXPECT_TRUE(BytesEqual(dev_.RawSpare(3), Spare(0xFF)));
  // The retry is a first program, so it copies.
  const ByteBuffer data = PatternPage(dev_, 9);
  ASSERT_TRUE(dev_.ProgramPage(3, data, {}).ok());
  EXPECT_TRUE(BytesEqual(dev_.RawData(3), data));
}

TEST_F(FlashDeviceTest, TimingChargesVirtualClock) {
  const auto& t = dev_.config().timing;
  ASSERT_TRUE(dev_.ProgramPage(0, Page(0xAA), {}).ok());
  ByteBuffer rdata = Page(0);
  ASSERT_TRUE(dev_.ReadPage(0, rdata, {}).ok());
  ASSERT_TRUE(dev_.EraseBlock(0).ok());
  EXPECT_EQ(dev_.clock().now_us(),
            static_cast<uint64_t>(t.read_us) + t.write_us + t.erase_us);
  EXPECT_EQ(dev_.stats().total.reads, 1u);
  EXPECT_EQ(dev_.stats().total.writes, 1u);
  EXPECT_EQ(dev_.stats().total.erases, 1u);
}

TEST_F(FlashDeviceTest, CategoryAccounting) {
  {
    CategoryScope scope(&dev_, OpCategory::kReadStep);
    ByteBuffer rdata = Page(0);
    ASSERT_TRUE(dev_.ReadPage(0, rdata, {}).ok());
  }
  {
    CategoryScope scope(&dev_, OpCategory::kWriteStep);
    ASSERT_TRUE(dev_.ProgramPage(0, Page(0xAA), {}).ok());
    {
      CategoryScope inner(&dev_, OpCategory::kGc);
      ASSERT_TRUE(dev_.EraseBlock(1).ok());
    }
    // Category restored after the inner scope.
    ASSERT_TRUE(dev_.ProgramPage(1, Page(0xAA), {}).ok());
  }
  const auto& cats = dev_.stats().by_category;
  EXPECT_EQ(cats[static_cast<int>(OpCategory::kReadStep)].reads, 1u);
  EXPECT_EQ(cats[static_cast<int>(OpCategory::kWriteStep)].writes, 2u);
  EXPECT_EQ(cats[static_cast<int>(OpCategory::kGc)].erases, 1u);
  EXPECT_EQ(cats[static_cast<int>(OpCategory::kDefault)].total_ops(), 0u);
}

TEST_F(FlashDeviceTest, OutOfRangeAddressesRejected) {
  const uint32_t total = dev_.geometry().total_pages();
  ByteBuffer rdata = Page(0);
  EXPECT_FALSE(dev_.ReadPage(total, rdata, {}).ok());
  EXPECT_FALSE(dev_.ProgramPage(total, Page(0), {}).ok());
  EXPECT_FALSE(dev_.EraseBlock(dev_.geometry().num_blocks).ok());
}

TEST_F(FlashDeviceTest, BufferSizeValidation) {
  ByteBuffer small(16);
  EXPECT_FALSE(dev_.ReadPage(0, small, {}).ok());
  EXPECT_FALSE(dev_.ProgramPage(0, small, {}).ok());
  EXPECT_FALSE(dev_.ProgramPage(0, {}, {}).ok());
}

TEST_F(FlashDeviceTest, ResetAccountingKeepsContents) {
  ASSERT_TRUE(dev_.ProgramPage(0, Page(0x12), {}).ok());
  dev_.ResetAccounting();
  EXPECT_EQ(dev_.clock().now_us(), 0u);
  EXPECT_EQ(dev_.stats().total.writes, 0u);
  ByteBuffer rdata = Page(0);
  ASSERT_TRUE(dev_.ReadPage(0, rdata, {}).ok());
  for (uint8_t b : rdata) EXPECT_EQ(b, 0x12);
}

TEST_F(FlashDeviceTest, AddressArithmetic) {
  const auto& g = dev_.geometry();
  EXPECT_EQ(dev_.BlockOf(0), 0u);
  EXPECT_EQ(dev_.BlockOf(g.pages_per_block), 1u);
  EXPECT_EQ(dev_.PageInBlock(g.pages_per_block + 3), 3u);
  EXPECT_EQ(dev_.AddrOf(2, 5), 2 * g.pages_per_block + 5);
}

TEST(FaultInjectorTest, CutBeforeApplySuppressesProgram) {
  FlashDevice dev(TinyConfig());
  CountdownFaultInjector fi(1, /*cut_after_apply=*/false);
  dev.set_fault_injector(&fi);
  ByteBuffer page(dev.geometry().data_size, 0xAA);
  ASSERT_TRUE(dev.ProgramPage(0, page, {}).ok());  // survives op #1
  EXPECT_THROW(dev.ProgramPage(1, page, {}), PowerLossError);
  dev.set_fault_injector(nullptr);
  EXPECT_TRUE(dev.IsErased(1));  // the op was never applied
}

TEST(FaultInjectorTest, CutAfterApplyKeepsProgram) {
  FlashDevice dev(TinyConfig());
  CountdownFaultInjector fi(0, /*cut_after_apply=*/true);
  dev.set_fault_injector(&fi);
  ByteBuffer page(dev.geometry().data_size, 0xAA);
  EXPECT_THROW(dev.ProgramPage(0, page, {}), PowerLossError);
  dev.set_fault_injector(nullptr);
  EXPECT_FALSE(dev.IsErased(0));
  ByteBuffer rdata(dev.geometry().data_size);
  ASSERT_TRUE(dev.ReadPage(0, rdata, {}).ok());
  EXPECT_TRUE(BytesEqual(rdata, page));
}

TEST(FaultInjectorTest, ReadsDoNotConsumeCountdown) {
  FlashDevice dev(TinyConfig());
  CountdownFaultInjector fi(1, /*cut_after_apply=*/false);
  dev.set_fault_injector(&fi);
  ByteBuffer page(dev.geometry().data_size, 0xAA);
  ByteBuffer rdata(dev.geometry().data_size);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(dev.ReadPage(0, rdata, {}).ok());
  }
  ASSERT_TRUE(dev.ProgramPage(0, page, {}).ok());
  EXPECT_THROW(dev.EraseBlock(0), PowerLossError);
}


// --- Die/plane virtual-time model -----------------------------------------

FlashConfig PlaneConfig(uint32_t dies, uint32_t planes_per_die) {
  FlashConfig cfg = FlashConfig::Small(8);
  cfg.geometry.dies_per_chip = dies;
  cfg.geometry.planes_per_die = planes_per_die;
  return cfg;
}

TEST(FlashPlaneTest, DistinctPlaneProgramsOverlap) {
  FlashDevice dev(PlaneConfig(1, 2));
  const uint32_t twrite = dev.config().timing.write_us;
  ByteBuffer page(dev.geometry().data_size, 0xAA);
  // Blocks 0 and 1 interleave onto planes 0 and 1: the two programs occupy
  // different planes and the chip clock advances by one Twrite, not two.
  ASSERT_TRUE(dev.ProgramPage(dev.AddrOf(0, 0), page, {}).ok());
  ASSERT_TRUE(dev.ProgramPage(dev.AddrOf(1, 0), page, {}).ok());
  EXPECT_EQ(dev.clock().now_us(), twrite);
  EXPECT_EQ(dev.stats().plane_stall_us(), 0u);
  EXPECT_EQ(dev.stats().plane[0].busy_us, twrite);
  EXPECT_EQ(dev.stats().plane[1].busy_us, twrite);
}

TEST(FlashPlaneTest, SamePlaneProgramsSerializeAndStall) {
  FlashDevice dev(PlaneConfig(1, 2));
  const uint32_t twrite = dev.config().timing.write_us;
  ByteBuffer page(dev.geometry().data_size, 0xAA);
  // Blocks 0 and 2 both live on plane 0: the second program queues behind
  // the first while plane 1 sits idle, so it stalls for one Twrite.
  ASSERT_TRUE(dev.ProgramPage(dev.AddrOf(0, 0), page, {}).ok());
  ASSERT_TRUE(dev.ProgramPage(dev.AddrOf(2, 0), page, {}).ok());
  EXPECT_EQ(dev.clock().now_us(), 2ull * twrite);
  EXPECT_EQ(dev.stats().plane[0].stall_us, twrite);
  EXPECT_EQ(dev.stats().plane[1].busy_us, 0u);
}

TEST(FlashPlaneTest, SinglePlaneGeometryMatchesSerialClock) {
  // The 1 x 1 identity geometry must reproduce the historical serial clock
  // exactly: every operation's latency adds up, nothing stalls.
  FlashDevice dev(PlaneConfig(1, 1));
  const auto& t = dev.config().timing;
  ByteBuffer page(dev.geometry().data_size, 0xAA);
  ByteBuffer rdata(dev.geometry().data_size);
  ASSERT_TRUE(dev.ProgramPage(dev.AddrOf(0, 0), page, {}).ok());
  ASSERT_TRUE(dev.ProgramPage(dev.AddrOf(1, 0), page, {}).ok());
  ASSERT_TRUE(dev.ReadPage(dev.AddrOf(0, 0), rdata, {}).ok());
  ASSERT_TRUE(dev.EraseBlock(0).ok());
  EXPECT_EQ(dev.clock().now_us(),
            2ull * t.write_us + t.read_us + t.erase_us);
  EXPECT_EQ(dev.stats().plane_stall_us(), 0u);
}

TEST(FlashPlaneTest, MultiPlaneEraseChargesOneCommand) {
  FlashDevice dev(PlaneConfig(2, 2));
  ByteBuffer page(dev.geometry().data_size, 0xAA);
  // Blocks 0 and 1: die 0, planes 0 and 1 (4-plane chip, round-robin).
  ASSERT_TRUE(dev.ProgramPage(dev.AddrOf(0, 0), page, {}).ok());
  ASSERT_TRUE(dev.ProgramPage(dev.AddrOf(1, 0), page, {}).ok());
  const uint64_t before = dev.clock().now_us();
  ASSERT_TRUE(dev.EraseBlocksMultiPlane({0, 1}).ok());
  EXPECT_EQ(dev.clock().now_us(), before + dev.config().timing.erase_us);
  // Both blocks really erased, and wear accounting counts two block erases.
  EXPECT_TRUE(dev.IsErased(dev.AddrOf(0, 0)));
  EXPECT_TRUE(dev.IsErased(dev.AddrOf(1, 0)));
  EXPECT_EQ(dev.stats().total.erases, 2u);
}

TEST(FlashPlaneTest, MultiPlaneEraseRejectsBadGroups) {
  FlashDevice dev(PlaneConfig(2, 2));
  // Blocks 0 (die 0) and 2 (die 1) span dies.
  EXPECT_TRUE(dev.EraseBlocksMultiPlane({0, 2}).IsInvalidArgument());
  // Blocks 0 and 4 share plane 0.
  EXPECT_TRUE(dev.EraseBlocksMultiPlane({0, 4}).IsInvalidArgument());
  // More blocks than planes on a die.
  EXPECT_TRUE(dev.EraseBlocksMultiPlane({0, 1, 4}).IsInvalidArgument());
  EXPECT_TRUE(dev.EraseBlocksMultiPlane({}).IsInvalidArgument());
}

TEST(FlashPlaneTest, MultiPlaneEraseIsAllOrNothingOnGrownBad) {
  FlashConfig cfg = PlaneConfig(1, 2);
  FlashDevice dev(cfg);
  EraseFailureInjector fi(cfg.geometry.pages_per_block);
  dev.set_fault_injector(&fi);
  ByteBuffer page(dev.geometry().data_size, 0xAA);
  ASSERT_TRUE(dev.ProgramPage(dev.AddrOf(0, 0), page, {}).ok());
  ASSERT_TRUE(dev.ProgramPage(dev.AddrOf(1, 0), page, {}).ok());
  fi.Arm();
  Status s = dev.EraseBlocksMultiPlane({0, 1});
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  // Nothing was erased: the FTL retries per block to isolate the bad one.
  EXPECT_FALSE(dev.IsErased(dev.AddrOf(0, 0)));
  EXPECT_FALSE(dev.IsErased(dev.AddrOf(1, 0)));
  ASSERT_EQ(fi.failed_blocks().size(), 1u);
  EXPECT_EQ(fi.failed_blocks()[0], 0u);
}

TEST(FlashPlaneTest, CacheProgramExtendsChainAtReducedCost) {
  FlashConfig cfg = PlaneConfig(1, 2);
  cfg.timing.cache_write_us = 300;
  FlashDevice dev(cfg);
  const uint32_t twrite = cfg.timing.write_us;
  ByteBuffer page(dev.geometry().data_size, 0xAA);
  // First program of a block pays full Twrite; the next page of the same
  // block directly extends the plane's program chain at the cache latency.
  ASSERT_TRUE(dev.ProgramPage(dev.AddrOf(0, 0), page, {}).ok());
  ASSERT_TRUE(dev.ProgramPage(dev.AddrOf(0, 1), page, {}).ok());
  EXPECT_EQ(dev.clock().now_us(), twrite + 300ull);
  // A program on another plane does not break plane 0's chain...
  ASSERT_TRUE(dev.ProgramPage(dev.AddrOf(1, 0), page, {}).ok());
  ASSERT_TRUE(dev.ProgramPage(dev.AddrOf(0, 2), page, {}).ok());
  EXPECT_EQ(dev.stats().plane[0].busy_us, twrite + 2ull * 300);
  // ...but an erase on the plane does.
  ASSERT_TRUE(dev.EraseBlock(2).ok());
  const uint64_t busy0 = dev.stats().plane[0].busy_us;
  ASSERT_TRUE(dev.ProgramPage(dev.AddrOf(0, 3), page, {}).ok());
  EXPECT_EQ(dev.stats().plane[0].busy_us, busy0 + twrite);
}

TEST(FlashPlaneTest, MarkBadBlockOobSetsAndReportsMark) {
  FlashDevice dev(PlaneConfig(1, 2));
  EXPECT_FALSE(dev.HasBadBlockOob(3));
  ASSERT_TRUE(dev.MarkBadBlockOob(3).ok());
  EXPECT_TRUE(dev.HasBadBlockOob(3));
  // Marking survives even when the page-0 spare already spent its partial
  // program budget (a worn-out block must still be markable).
  ByteBuffer spare(dev.geometry().spare_size, 0xFF);
  for (uint32_t i = 0; i < FlashDevice::kMaxSparePrograms; ++i) {
    spare[0] = static_cast<uint8_t>(~(1u << i));
    ASSERT_TRUE(dev.ProgramSpare(dev.AddrOf(5, 0), spare).ok());
  }
  ASSERT_TRUE(dev.MarkBadBlockOob(5).ok());
  EXPECT_TRUE(dev.HasBadBlockOob(5));
}

TEST(FlashConfigTest, PaperDefaultsMatchTable1) {
  FlashConfig cfg = FlashConfig::Paper();
  EXPECT_EQ(cfg.geometry.num_blocks, 32768u);
  EXPECT_EQ(cfg.geometry.pages_per_block, 64u);
  EXPECT_EQ(cfg.geometry.data_size, 2048u);
  EXPECT_EQ(cfg.geometry.spare_size, 64u);
  EXPECT_EQ(cfg.timing.read_us, 110u);
  EXPECT_EQ(cfg.timing.write_us, 1010u);
  EXPECT_EQ(cfg.timing.erase_us, 1500u);
  // 2 GB data capacity.
  EXPECT_EQ(cfg.geometry.data_capacity_bytes(), 4294967296ULL);
}

}  // namespace
}  // namespace flashdb::flash
