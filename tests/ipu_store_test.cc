// Unit tests for the in-place update baseline (IPU).

#include <gtest/gtest.h>

#include "common/random.h"
#include "methods/ipu_store.h"

namespace flashdb::methods {
namespace {

using flash::FlashConfig;
using flash::FlashDevice;

struct SeedArg {
  uint64_t seed;
};
void SeededImage(PageId pid, MutBytes page, void* arg) {
  Random r(static_cast<SeedArg*>(arg)->seed ^ (pid * 69069u));
  r.Fill(page);
}

class IpuStoreTest : public ::testing::Test {
 protected:
  IpuStoreTest() : dev_(FlashConfig::Small(8)), store_(&dev_) {}

  void Format(uint32_t pages) {
    SeedArg arg{11};
    ASSERT_TRUE(store_.Format(pages, &SeededImage, &arg).ok());
  }

  ByteBuffer Read(PageId pid) {
    ByteBuffer out(dev_.geometry().data_size);
    EXPECT_TRUE(store_.ReadPage(pid, out).ok());
    return out;
  }

  FlashDevice dev_;
  IpuStore store_;
};

TEST_F(IpuStoreTest, LogicalPageLivesAtFixedAddress) {
  Format(100);
  ByteBuffer page = Read(42);
  page[0] ^= 1;
  ASSERT_TRUE(store_.WriteBack(42, page).ok());
  // Still readable directly from physical page 42.
  ByteBuffer raw(dev_.geometry().data_size);
  ASSERT_TRUE(dev_.ReadPage(42, raw, {}).ok());
  EXPECT_TRUE(BytesEqual(raw, page));
}

TEST_F(IpuStoreTest, WriteBackRewritesWholeBlock) {
  const uint32_t ppb = dev_.geometry().pages_per_block;
  Format(3 * ppb);  // three full blocks
  ByteBuffer page = Read(ppb + 5);  // page in block 1
  page[9] ^= 9;
  const auto before = dev_.stats().total;
  ASSERT_TRUE(store_.WriteBack(ppb + 5, page).ok());
  const auto delta = dev_.stats().total - before;
  // Paper's in-place steps: read the 63 sibling pages, erase, rewrite all 64.
  EXPECT_EQ(delta.reads, ppb - 1);
  EXPECT_EQ(delta.writes, ppb);
  EXPECT_EQ(delta.erases, 1u);
}

TEST_F(IpuStoreTest, PartialTailBlockOnlyRewritesLivePages) {
  const uint32_t ppb = dev_.geometry().pages_per_block;
  Format(ppb + 10);  // second block holds only 10 live pages
  ByteBuffer page = Read(ppb + 3);
  page[1] ^= 1;
  const auto before = dev_.stats().total;
  ASSERT_TRUE(store_.WriteBack(ppb + 3, page).ok());
  const auto delta = dev_.stats().total - before;
  EXPECT_EQ(delta.reads, 9u);
  EXPECT_EQ(delta.writes, 10u);
  EXPECT_EQ(delta.erases, 1u);
}

TEST_F(IpuStoreTest, SiblingsSurviveBlockRewrite) {
  const uint32_t ppb = dev_.geometry().pages_per_block;
  Format(2 * ppb);
  ByteBuffer sibling_before = Read(3);
  ByteBuffer page = Read(7);
  page[100] ^= 0xFF;
  ASSERT_TRUE(store_.WriteBack(7, page).ok());
  EXPECT_TRUE(BytesEqual(Read(3), sibling_before));
  EXPECT_TRUE(BytesEqual(Read(7), page));
}

TEST_F(IpuStoreTest, RepeatedUpdatesKeepWorking) {
  Format(70);
  ByteBuffer page = Read(0);
  for (int i = 0; i < 10; ++i) {
    page[i] ^= 0xFF;
    ASSERT_TRUE(store_.WriteBack(0, page).ok());
  }
  EXPECT_TRUE(BytesEqual(Read(0), page));
  EXPECT_GE(dev_.stats().block_erase_counts[0], 10u);
}

TEST_F(IpuStoreTest, CapacityBound) {
  IpuStore s(&dev_);
  SeedArg arg{1};
  EXPECT_TRUE(
      s.Format(dev_.geometry().total_pages() + 1, &SeededImage, &arg)
          .IsNoSpace());
}

// A cut between a rewrite's erase and its re-programs loses the block's
// pages: reading one is a typed error naming the pid, never erased bytes
// served as data. Other blocks are untouched.
TEST_F(IpuStoreTest, PageLostToCutMidRewriteReadsAsCorruption) {
  Format(100);
  const ByteBuffer intact = Read(70);
  ByteBuffer page = Read(3);
  page[0] ^= 1;
  flash::CountdownFaultInjector cut(0, /*cut_after_apply=*/true);
  dev_.set_fault_injector(&cut);  // the rewrite's first mutation: its erase
  EXPECT_THROW((void)store_.WriteBack(3, page), flash::PowerLossError);
  dev_.set_fault_injector(nullptr);
  IpuStore recovered(&dev_);
  ASSERT_TRUE(recovered.Recover().ok());
  ByteBuffer out(dev_.geometry().data_size);
  for (PageId pid : {0u, 3u, 10u}) {
    const Status st = recovered.ReadPage(pid, out);
    EXPECT_TRUE(st.IsCorruption()) << pid << ": " << st.ToString();
    EXPECT_NE(st.ToString().find("pid " + std::to_string(pid) + " "),
              std::string::npos);
  }
  ASSERT_TRUE(recovered.ReadPage(70, out).ok());
  EXPECT_TRUE(BytesEqual(out, intact));
}

TEST_F(IpuStoreTest, RecoverRestoresPageCount) {
  Format(123);
  IpuStore recovered(&dev_);
  ASSERT_TRUE(recovered.Recover().ok());
  EXPECT_EQ(recovered.num_logical_pages(), 123u);
  ByteBuffer a(dev_.geometry().data_size), b(dev_.geometry().data_size);
  ASSERT_TRUE(store_.ReadPage(60, a).ok());
  ASSERT_TRUE(recovered.ReadPage(60, b).ok());
  EXPECT_TRUE(BytesEqual(a, b));
}

}  // namespace
}  // namespace flashdb::methods
