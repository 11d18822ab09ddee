// Unit tests for the out-place update baseline (OPU).

#include <gtest/gtest.h>

#include <map>

#include "common/random.h"
#include "methods/opu_store.h"

namespace flashdb::methods {
namespace {

using flash::FlashConfig;
using flash::FlashDevice;

struct SeedArg {
  uint64_t seed;
};
void SeededImage(PageId pid, MutBytes page, void* arg) {
  Random r(static_cast<SeedArg*>(arg)->seed ^ (pid * 40503u));
  r.Fill(page);
}

class OpuStoreTest : public ::testing::Test {
 protected:
  OpuStoreTest() : dev_(FlashConfig::Small(16)), store_(&dev_) {}

  void Format(uint32_t pages) {
    SeedArg arg{5};
    ASSERT_TRUE(store_.Format(pages, &SeededImage, &arg).ok());
  }

  ByteBuffer Read(PageId pid) {
    ByteBuffer out(dev_.geometry().data_size);
    EXPECT_TRUE(store_.ReadPage(pid, out).ok());
    return out;
  }

  FlashDevice dev_;
  OpuStore store_;
};

TEST_F(OpuStoreTest, ReadsCostExactlyOneOperation) {
  Format(20);
  const uint64_t before = dev_.stats().total.reads;
  Read(11);
  EXPECT_EQ(dev_.stats().total.reads - before, 1u);
}

TEST_F(OpuStoreTest, WriteBackCostsTwoWriteOperations) {
  Format(20);
  ByteBuffer page = Read(4);
  page[0] ^= 1;
  const uint64_t before = dev_.stats().total.writes;
  ASSERT_TRUE(store_.WriteBack(4, page).ok());
  // One program of the new page + one spare program obsoleting the old copy,
  // exactly the accounting of Fig. 12b.
  EXPECT_EQ(dev_.stats().total.writes - before, 2u);
  EXPECT_TRUE(BytesEqual(Read(4), page));
}

TEST_F(OpuStoreTest, OutPlaceUpdateMovesThePage) {
  Format(20);
  const flash::PhysAddr before = store_.base_addr(9);
  ByteBuffer page = Read(9);
  page[5] ^= 5;
  ASSERT_TRUE(store_.WriteBack(9, page).ok());
  EXPECT_NE(store_.base_addr(9), before);
  EXPECT_TRUE(ftl::DecodeSpare(dev_.RawSpare(before)).obsolete);
}

TEST_F(OpuStoreTest, GarbageCollectionPreservesData) {
  FlashDevice dev(FlashConfig::Small(8));
  OpuStore store(&dev);
  const uint32_t pages = 8 * 64 / 2;
  SeedArg arg{6};
  ASSERT_TRUE(store.Format(pages, &SeededImage, &arg).ok());
  Random r(7);
  ByteBuffer buf(dev.geometry().data_size);
  std::map<PageId, ByteBuffer> shadow;
  for (int op = 0; op < 2000; ++op) {
    const PageId pid = static_cast<PageId>(r.Uniform(pages));
    ASSERT_TRUE(store.ReadPage(pid, buf).ok());
    buf[r.Uniform(buf.size())] ^= 0xE1;
    ASSERT_TRUE(store.WriteBack(pid, buf).ok());
    shadow[pid] = buf;
  }
  EXPECT_GT(store.gc_runs(), 0u);
  for (const auto& [pid, expected] : shadow) {
    ASSERT_TRUE(store.ReadPage(pid, buf).ok());
    EXPECT_TRUE(BytesEqual(buf, expected)) << pid;
  }
}

TEST_F(OpuStoreTest, RecoverRebuildsMapping) {
  Format(25);
  std::map<PageId, ByteBuffer> expected;
  for (PageId pid : {2u, 8u, 24u}) {
    ByteBuffer page = Read(pid);
    page[pid] ^= 0x99;
    ASSERT_TRUE(store_.WriteBack(pid, page).ok());
    expected[pid] = page;
  }
  OpuStore recovered(&dev_);
  ASSERT_TRUE(recovered.Recover().ok());
  EXPECT_EQ(recovered.num_logical_pages(), 25u);
  ByteBuffer buf(dev_.geometry().data_size);
  for (const auto& [pid, page] : expected) {
    ASSERT_TRUE(recovered.ReadPage(pid, buf).ok());
    EXPECT_TRUE(BytesEqual(buf, page)) << pid;
  }
  // Untouched pages keep their initial images.
  ASSERT_TRUE(recovered.ReadPage(3, buf).ok());
  SeedArg arg{5};
  ByteBuffer init(dev_.geometry().data_size);
  SeededImage(3, init, &arg);
  EXPECT_TRUE(BytesEqual(buf, init));
}

TEST_F(OpuStoreTest, RecoverAfterFurtherUpdatesKeepsLatest) {
  Format(10);
  ByteBuffer page = Read(0);
  for (int round = 0; round < 5; ++round) {
    page[round] ^= 0xFF;
    ASSERT_TRUE(store_.WriteBack(0, page).ok());
  }
  OpuStore recovered(&dev_);
  ASSERT_TRUE(recovered.Recover().ok());
  ByteBuffer buf(dev_.geometry().data_size);
  ASSERT_TRUE(recovered.ReadPage(0, buf).ok());
  EXPECT_TRUE(BytesEqual(buf, page));
}

TEST_F(OpuStoreTest, FlushIsANoop) {
  Format(5);
  const uint64_t ops = dev_.stats().total.total_ops();
  EXPECT_TRUE(store_.Flush().ok());
  EXPECT_EQ(dev_.stats().total.total_ops(), ops);
}

}  // namespace
}  // namespace flashdb::methods
