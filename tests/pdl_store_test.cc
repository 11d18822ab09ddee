// Unit tests for PdlStore: PDL_Writing cases 1-3, PDL_Reading, the design
// principles (at-most-one-page writing, at-most-two-page reading), VDCT
// bookkeeping and garbage collection with differential compaction.

#include <gtest/gtest.h>

#include <map>

#include "common/random.h"
#include "pdl/pdl_store.h"

namespace flashdb::pdl {
namespace {

using flash::FlashConfig;
using flash::FlashDevice;
using flash::kNullAddr;

struct SeedArg {
  uint64_t seed;
};

void SeededImage(PageId pid, MutBytes page, void* arg) {
  Random r(static_cast<SeedArg*>(arg)->seed ^ (pid * 2654435761u));
  r.Fill(page);
}

class PdlStoreTest : public ::testing::Test {
 protected:
  PdlStoreTest() : dev_(FlashConfig::Small(16)) {}

  std::unique_ptr<PdlStore> MakeStore(uint32_t max_diff, uint32_t pages) {
    PdlConfig cfg;
    cfg.max_differential_size = max_diff;
    auto store = std::make_unique<PdlStore>(&dev_, cfg);
    SeedArg arg{99};
    EXPECT_TRUE(store->Format(pages, &SeededImage, &arg).ok());
    return store;
  }

  ByteBuffer ReadBack(PdlStore& s, PageId pid) {
    ByteBuffer out(dev_.geometry().data_size);
    EXPECT_TRUE(s.ReadPage(pid, out).ok());
    return out;
  }

  ByteBuffer Expected(PageId pid) {
    ByteBuffer p(dev_.geometry().data_size);
    SeedArg arg{99};
    SeededImage(pid, p, &arg);
    return p;
  }

  FlashDevice dev_;
};

TEST_F(PdlStoreTest, FormatThenReadInitialImages) {
  auto store = MakeStore(256, 50);
  EXPECT_EQ(store->num_logical_pages(), 50u);
  for (PageId pid : {0u, 17u, 49u}) {
    EXPECT_TRUE(BytesEqual(ReadBack(*store, pid), Expected(pid)));
  }
}

TEST_F(PdlStoreTest, NameReflectsMaxDifferentialSize) {
  EXPECT_EQ(MakeStore(256, 1)->name(), "PDL(256B)");
  EXPECT_EQ(MakeStore(2048, 1)->name(), "PDL(2048B)");
}

TEST_F(PdlStoreTest, MaxDifferentialSizeBeyondPageRejected) {
  PdlConfig cfg;
  cfg.max_differential_size = 1 << 20;
  PdlStore store(&dev_, cfg);
  Status st = store.Format(16, nullptr, nullptr);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  // The remount path must reject the config too, or an oversized limit
  // would slip past the write buffer's one-page capacity after recovery.
  EXPECT_TRUE(store.Recover().IsInvalidArgument());
  // Exactly one page is the largest legal value.
  cfg.max_differential_size = dev_.geometry().data_size;
  PdlStore ok_store(&dev_, cfg);
  EXPECT_TRUE(ok_store.Format(16, nullptr, nullptr).ok());
}

TEST_F(PdlStoreTest, SentinelPageCountRejected) {
  PdlConfig cfg;
  PdlStore store(&dev_, cfg);
  Status st = store.Format(kPaddingPid, nullptr, nullptr);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
}

TEST_F(PdlStoreTest, Case1SmallDiffGoesToBuffer) {
  auto store = MakeStore(256, 10);
  ByteBuffer page = ReadBack(*store, 3);
  page[42] ^= 0xFF;
  const uint64_t writes_before = dev_.stats().total.writes;
  ASSERT_TRUE(store->WriteBack(3, page).ok());
  // No flash write yet -- only the buffered differential.
  EXPECT_EQ(dev_.stats().total.writes, writes_before);
  EXPECT_GT(store->buffered_bytes(), 0u);
  EXPECT_EQ(store->counters().diffs_buffered, 1u);
  // Reads see the buffered differential.
  EXPECT_TRUE(BytesEqual(ReadBack(*store, 3), page));
}

TEST_F(PdlStoreTest, RewriteReplacesBufferedDifferential) {
  auto store = MakeStore(256, 10);
  ByteBuffer page = ReadBack(*store, 3);
  page[0] ^= 0xFF;
  ASSERT_TRUE(store->WriteBack(3, page).ok());
  const size_t used1 = store->buffered_bytes();
  page[1] ^= 0xFF;
  ASSERT_TRUE(store->WriteBack(3, page).ok());
  // At-most-one-page writing: one differential per pid, not a history.
  const size_t used2 = store->buffered_bytes();
  EXPECT_LE(used2, used1 + 8);  // grew by ~1 byte, not by a second record
  EXPECT_TRUE(BytesEqual(ReadBack(*store, 3), page));
}

TEST_F(PdlStoreTest, FlushWritesDifferentialPageAndUpdatesTables) {
  auto store = MakeStore(256, 10);
  ByteBuffer p3 = ReadBack(*store, 3);
  ByteBuffer p4 = ReadBack(*store, 4);
  p3[10] ^= 1;
  p4[20] ^= 1;
  ASSERT_TRUE(store->WriteBack(3, p3).ok());
  ASSERT_TRUE(store->WriteBack(4, p4).ok());
  ASSERT_TRUE(store->Flush().ok());
  EXPECT_EQ(store->buffered_bytes(), 0u);
  // Differentials of *different* logical pages share one differential page.
  EXPECT_NE(store->diff_addr(3), kNullAddr);
  EXPECT_EQ(store->diff_addr(3), store->diff_addr(4));
  EXPECT_EQ(store->vdct(store->diff_addr(3)), 2u);
  EXPECT_TRUE(BytesEqual(ReadBack(*store, 3), p3));
  EXPECT_TRUE(BytesEqual(ReadBack(*store, 4), p4));
}

TEST_F(PdlStoreTest, AtMostTwoPageReading) {
  auto store = MakeStore(256, 10);
  ByteBuffer page = ReadBack(*store, 5);
  page[9] ^= 3;
  ASSERT_TRUE(store->WriteBack(5, page).ok());
  ASSERT_TRUE(store->Flush().ok());
  const uint64_t reads_before = dev_.stats().total.reads;
  ReadBack(*store, 5);
  EXPECT_EQ(dev_.stats().total.reads - reads_before, 2u);  // base + diff
  // A page never updated needs a single read.
  const uint64_t reads_before2 = dev_.stats().total.reads;
  ReadBack(*store, 8);
  EXPECT_EQ(dev_.stats().total.reads - reads_before2, 1u);
}

TEST_F(PdlStoreTest, Case3LargeDiffWritesNewBasePage) {
  auto store = MakeStore(256, 10);
  ByteBuffer page = ReadBack(*store, 2);
  for (size_t i = 0; i < page.size(); i += 2) page[i] ^= 0xFF;  // huge diff
  const flash::PhysAddr old_base = store->base_addr(2);
  ASSERT_TRUE(store->WriteBack(2, page).ok());
  EXPECT_EQ(store->counters().new_base_pages, 1u);
  EXPECT_NE(store->base_addr(2), old_base);
  EXPECT_EQ(store->diff_addr(2), kNullAddr);
  EXPECT_TRUE(BytesEqual(ReadBack(*store, 2), page));
  // The old base page was marked obsolete on flash.
  EXPECT_EQ(ftl::DecodeSpare(dev_.RawSpare(old_base)).obsolete, true);
}

TEST_F(PdlStoreTest, Case3SupersedesFlushedDifferential) {
  auto store = MakeStore(2048, 10);
  ByteBuffer page = ReadBack(*store, 2);
  page[7] ^= 1;
  ASSERT_TRUE(store->WriteBack(2, page).ok());
  ASSERT_TRUE(store->Flush().ok());
  const flash::PhysAddr dp = store->diff_addr(2);
  ASSERT_NE(dp, kNullAddr);
  // Now overwrite nearly the whole page (case 3 for PDL(2048B) too, since
  // the encoded differential exceeds one page).
  for (size_t i = 0; i < page.size(); ++i) page[i] ^= 0xA5;
  ASSERT_TRUE(store->WriteBack(2, page).ok());
  EXPECT_EQ(store->diff_addr(2), kNullAddr);
  // The differential page lost its only valid differential -> obsolete.
  EXPECT_EQ(store->vdct(dp), 0u);
  EXPECT_TRUE(ftl::DecodeSpare(dev_.RawSpare(dp)).obsolete);
  EXPECT_TRUE(BytesEqual(ReadBack(*store, 2), page));
}

TEST_F(PdlStoreTest, BufferOverflowFlushesAutomatically) {
  auto store = MakeStore(512, 40);
  // Each differential is ~ 300 bytes; the one-page (2 KB) buffer fits ~6.
  Random r(5);
  uint64_t flushes_before = store->counters().buffer_flushes;
  for (PageId pid = 0; pid < 20; ++pid) {
    ByteBuffer page = ReadBack(*store, pid);
    for (int i = 0; i < 280; ++i) page[300 + i] ^= 0x11;
    ASSERT_TRUE(store->WriteBack(pid, page).ok());
  }
  EXPECT_GT(store->counters().buffer_flushes, flushes_before);
  for (PageId pid = 0; pid < 20; ++pid) {
    ByteBuffer expected = Expected(pid);
    for (int i = 0; i < 280; ++i) expected[300 + i] ^= 0x11;
    EXPECT_TRUE(BytesEqual(ReadBack(*store, pid), expected)) << pid;
  }
}

TEST_F(PdlStoreTest, EmptyDifferentialIsHarmless) {
  auto store = MakeStore(256, 10);
  ByteBuffer page = ReadBack(*store, 1);
  ASSERT_TRUE(store->WriteBack(1, page).ok());  // no change
  ASSERT_TRUE(store->Flush().ok());
  EXPECT_TRUE(BytesEqual(ReadBack(*store, 1), Expected(1)));
}

TEST_F(PdlStoreTest, GarbageCollectionPreservesData) {
  // Tiny chip (8 blocks) at ~50% utilization forces many GC cycles.
  FlashDevice dev(FlashConfig::Small(12));
  PdlConfig cfg;
  cfg.max_differential_size = 256;
  PdlStore store(&dev, cfg);
  const uint32_t pages = 4 * 64;  // 4 blocks of bases; 4 reserve + 4 churn
  SeedArg arg{7};
  ASSERT_TRUE(store.Format(pages, &SeededImage, &arg).ok());

  std::map<PageId, ByteBuffer> shadow;
  Random r(123);
  ByteBuffer buf(dev.geometry().data_size);
  for (int op = 0; op < 3000; ++op) {
    const PageId pid = static_cast<PageId>(r.Uniform(pages));
    ASSERT_TRUE(store.ReadPage(pid, buf).ok());
    for (int m = 0; m < 40; ++m) buf[r.Uniform(buf.size())] ^= 0xC3;
    Status st = store.WriteBack(pid, buf);
    ASSERT_TRUE(st.ok()) << "op " << op << ": " << st.ToString();
    shadow[pid] = buf;
  }
  EXPECT_GT(store.gc_runs(), 0u);
  EXPECT_GT(store.counters().gc_bases_moved, 0u);
  for (const auto& [pid, expected] : shadow) {
    ASSERT_TRUE(store.ReadPage(pid, buf).ok());
    EXPECT_TRUE(BytesEqual(buf, expected)) << "pid " << pid;
  }
}

TEST_F(PdlStoreTest, GcCompactsDifferentials) {
  FlashDevice dev(FlashConfig::Small(12));
  PdlConfig cfg;
  cfg.max_differential_size = 512;
  PdlStore store(&dev, cfg);
  const uint32_t pages = 4 * 64;  // 4 blocks of bases; 4 reserve + 4 churn
  SeedArg arg{8};
  ASSERT_TRUE(store.Format(pages, &SeededImage, &arg).ok());
  Random r(9);
  ByteBuffer buf(dev.geometry().data_size);
  for (int op = 0; op < 12000; ++op) {
    // Skewed access: cold pages' differentials linger inside mostly-dead
    // differential pages, forcing GC to compact them instead of just
    // erasing fully-decayed blocks.
    const PageId pid = static_cast<PageId>(r.Skewed(pages, 0.8));
    ASSERT_TRUE(store.ReadPage(pid, buf).ok());
    buf[r.Uniform(buf.size())] ^= 0x3C;
    Status st = store.WriteBack(pid, buf);
    ASSERT_TRUE(st.ok()) << "op " << op << ": " << st.ToString();
  }
  // GC must have carried live differentials forward, either by compacting
  // them into new differential pages or by merging them into fresh bases.
  EXPECT_GT(store.counters().gc_diffs_compacted +
                store.counters().gc_diffs_merged,
            0u);
}

TEST_F(PdlStoreTest, FillsBeyondCapacityReportsNoSpace) {
  FlashDevice dev(FlashConfig::Small(4));
  PdlConfig cfg;
  PdlStore store(&dev, cfg);
  // More logical pages than physical pages cannot even be formatted.
  SeedArg arg{1};
  Status st = store.Format(4 * 64 + 1, &SeededImage, &arg);
  EXPECT_TRUE(st.IsNoSpace());
}

// Scrubbing a differential page compacts its live records into one fresh
// page, the way GC compaction does but without an erase.
TEST_F(PdlStoreTest, ScrubMovesLiveDifferentialsToOneFreshPage) {
  auto store = MakeStore(256, 20);
  std::map<PageId, ByteBuffer> expected;
  auto update = [&](PageId pid) {
    ByteBuffer page = ReadBack(*store, pid);
    page[pid * 7] ^= 0x5A;
    ASSERT_TRUE(store->WriteBack(pid, page).ok());
    expected[pid] = page;
  };
  for (PageId pid = 0; pid < 10; ++pid) update(pid);
  ASSERT_TRUE(store->Flush().ok());
  const flash::PhysAddr old_page = store->diff_addr(0);
  // Supersede half the records from a second page: five stay live.
  for (PageId pid = 0; pid < 5; ++pid) update(pid);
  ASSERT_TRUE(store->Flush().ok());
  ASSERT_EQ(store->vdct(old_page), 5u);

  bool relocated = false;
  ASSERT_TRUE(store->ScrubPhysPage(old_page, &relocated).ok());
  EXPECT_TRUE(relocated);
  const flash::PhysAddr fresh = store->diff_addr(5);
  EXPECT_NE(fresh, old_page);
  EXPECT_NE(fresh, store->diff_addr(0));
  for (PageId pid = 5; pid < 10; ++pid) EXPECT_EQ(store->diff_addr(pid), fresh);
  EXPECT_EQ(store->vdct(fresh), 5u);
  EXPECT_EQ(store->vdct(old_page), 0u);
  EXPECT_EQ(store->counters().gc_diffs_compacted, 5u);
  uint8_t spare[flash::FlashGeometry::spare_size];
  ASSERT_TRUE(dev_.ReadSpare(old_page, spare).ok());
  EXPECT_TRUE(ftl::DecodeSpare(spare).obsolete);
  for (PageId pid = 0; pid < 20; ++pid) {
    const auto it = expected.find(pid);
    EXPECT_TRUE(BytesEqual(ReadBack(*store, pid),
                           it != expected.end() ? it->second : Expected(pid)))
        << pid;
  }
}

TEST_F(PdlStoreTest, WriteThroughDurabilityOfBufferedDiffs) {
  auto store = MakeStore(256, 10);
  ByteBuffer page = ReadBack(*store, 6);
  page[77] ^= 0x42;
  ASSERT_TRUE(store->WriteBack(6, page).ok());
  EXPECT_EQ(store->diff_addr(6), kNullAddr);  // still volatile
  ASSERT_TRUE(store->Flush().ok());
  EXPECT_NE(store->diff_addr(6), kNullAddr);  // now on flash
  ASSERT_TRUE(store->Flush().ok());           // idempotent on empty buffer
}

}  // namespace
}  // namespace flashdb::pdl
