// Unit tests for the in-page logging baseline (IPL): per-page log buffers,
// slot writes, bounded reads, merging, recovery.

#include <gtest/gtest.h>

#include <map>

#include "common/random.h"
#include "methods/ipl_store.h"

namespace flashdb::methods {
namespace {

using flash::FlashConfig;
using flash::FlashDevice;

struct SeedArg {
  uint64_t seed;
};
void SeededImage(PageId pid, MutBytes page, void* arg) {
  Random r(static_cast<SeedArg*>(arg)->seed ^ (pid * 747796405u));
  r.Fill(page);
}

IplConfig Cfg(uint32_t log_kb) {
  IplConfig cfg;
  cfg.log_bytes_per_block = log_kb * 1024;
  return cfg;
}

class IplStoreTest : public ::testing::Test {
 protected:
  IplStoreTest() : dev_(FlashConfig::Small(16)) {}

  std::unique_ptr<IplStore> MakeStore(uint32_t log_kb, uint32_t pages) {
    auto s = std::make_unique<IplStore>(&dev_, Cfg(log_kb));
    SeedArg arg{3};
    EXPECT_TRUE(s->Format(pages, &SeededImage, &arg).ok());
    return s;
  }

  ByteBuffer Read(IplStore& s, PageId pid) {
    ByteBuffer out(dev_.geometry().data_size);
    EXPECT_TRUE(s.ReadPage(pid, out).ok());
    return out;
  }

  /// Applies an update through the tightly-coupled interface.
  Status Update(IplStore& s, PageId pid, ByteBuffer* page, uint32_t off,
                uint8_t delta, uint32_t len = 8) {
    UpdateLog log;
    log.offset = off;
    log.data.assign(len, 0);
    for (uint32_t i = 0; i < len; ++i) {
      log.data[i] = (*page)[off + i] ^ delta;
      (*page)[off + i] = log.data[i];
    }
    return s.OnUpdate(pid, *page, log);
  }

  FlashDevice dev_;
};

TEST_F(IplStoreTest, GeometrySplit) {
  auto s18 = MakeStore(18, 10);
  EXPECT_EQ(s18->log_pages_per_block(), 9u);   // 18 KB / 2 KB
  EXPECT_EQ(s18->orig_pages_per_block(), 55u);
  EXPECT_EQ(s18->name(), "IPL(18KB)");
  auto s64 = MakeStore(64, 10);
  EXPECT_EQ(s64->log_pages_per_block(), 32u);
  EXPECT_EQ(s64->orig_pages_per_block(), 32u);
}

TEST_F(IplStoreTest, FormatThenRead) {
  auto s = MakeStore(18, 100);
  SeedArg arg{3};
  ByteBuffer expected(dev_.geometry().data_size);
  SeededImage(57, expected, &arg);
  EXPECT_TRUE(BytesEqual(Read(*s, 57), expected));
}

TEST_F(IplStoreTest, UpdateBuffersThenWriteBackFlushesOneSlot) {
  auto s = MakeStore(18, 100);
  ByteBuffer page = Read(*s, 10);
  const uint64_t writes_before = dev_.stats().total.writes;
  ASSERT_TRUE(Update(*s, 10, &page, 50, 0xAA).ok());
  // The small log sits in the in-memory buffer: no flash write yet.
  EXPECT_EQ(dev_.stats().total.writes, writes_before);
  // Reads see pending logs.
  EXPECT_TRUE(BytesEqual(Read(*s, 10), page));
  ASSERT_TRUE(s->WriteBack(10, page).ok());
  EXPECT_EQ(dev_.stats().total.writes, writes_before + 1);  // one slot write
  EXPECT_EQ(s->counters().slot_writes, 1u);
  EXPECT_TRUE(BytesEqual(Read(*s, 10), page));
}

TEST_F(IplStoreTest, ReadCostGrowsWithLogPages) {
  auto s = MakeStore(18, 100);
  ByteBuffer page = Read(*s, 10);
  // 40 slot flushes spread the page's logs over several log pages.
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(Update(*s, 10, &page, (i * 48) % 2000, 0x11).ok());
    ASSERT_TRUE(s->WriteBack(10, page).ok());
  }
  const uint32_t log_pages = s->LogPagesOf(10);
  EXPECT_GT(log_pages, 1u);
  const uint64_t reads_before = dev_.stats().total.reads;
  EXPECT_TRUE(BytesEqual(Read(*s, 10), page));
  // Original page + one read per distinct log page.
  EXPECT_EQ(dev_.stats().total.reads - reads_before, 1 + log_pages);
}

TEST_F(IplStoreTest, LargeUpdateLogsAreChunked) {
  auto s = MakeStore(18, 100);
  ByteBuffer page = Read(*s, 20);
  // One update touching 400 bytes exceeds the 128-byte log buffer.
  ASSERT_TRUE(Update(*s, 20, &page, 100, 0x5A, 400).ok());
  EXPECT_GT(s->counters().chunked_logs, 0u);
  ASSERT_TRUE(s->WriteBack(20, page).ok());
  // ceil((400 payload + headers) / (128-byte slots)) slot writes.
  EXPECT_GE(s->counters().slot_writes, 4u);
  EXPECT_TRUE(BytesEqual(Read(*s, 20), page));
}

TEST_F(IplStoreTest, MergeWhenLogRegionExhausted) {
  auto s = MakeStore(18, 100);
  // Block 0 has 9 log pages x 16 slots = 144 slots; page 0..54 share them.
  ByteBuffer page = Read(*s, 0);
  const uint32_t slots = s->slots_per_block();
  for (uint32_t i = 0; i <= slots; ++i) {
    ASSERT_TRUE(Update(*s, 0, &page, (i * 16) % 2000, 0x22).ok());
    ASSERT_TRUE(s->WriteBack(0, page).ok());
  }
  EXPECT_GE(s->counters().merges, 1u);
  EXPECT_TRUE(BytesEqual(Read(*s, 0), page));
  // After a merge the page's logs restart from zero log pages.
  EXPECT_LE(s->LogPagesOf(0), 1u);
}

TEST_F(IplStoreTest, MergePreservesAllPagesOfBlock) {
  auto s = MakeStore(18, 100);
  std::map<PageId, ByteBuffer> shadow;
  for (PageId pid = 0; pid < 55; ++pid) shadow[pid] = Read(*s, pid);
  Random r(17);
  // Hammer pages of block 0 until several merges happen.
  for (int op = 0; op < 400; ++op) {
    const PageId pid = static_cast<PageId>(r.Uniform(55));
    ByteBuffer& page = shadow[pid];
    ASSERT_TRUE(
        Update(*s, pid, &page, static_cast<uint32_t>(r.Uniform(2000)), 0x44)
            .ok());
    ASSERT_TRUE(s->WriteBack(pid, page).ok());
  }
  EXPECT_GE(s->counters().merges, 1u);
  for (const auto& [pid, expected] : shadow) {
    EXPECT_TRUE(BytesEqual(Read(*s, pid), expected)) << pid;
  }
}

TEST_F(IplStoreTest, FlushPersistsAllPendingBuffers) {
  auto s = MakeStore(18, 100);
  ByteBuffer p1 = Read(*s, 1);
  ByteBuffer p2 = Read(*s, 60);  // different block
  ASSERT_TRUE(Update(*s, 1, &p1, 0, 0x66).ok());
  ASSERT_TRUE(Update(*s, 60, &p2, 0, 0x77).ok());
  ASSERT_TRUE(s->Flush().ok());
  EXPECT_EQ(s->counters().slot_writes, 2u);
}

TEST_F(IplStoreTest, RecoverRebuildsSlotTables) {
  auto s = MakeStore(18, 100);
  std::map<PageId, ByteBuffer> shadow;
  Random r(19);
  for (int op = 0; op < 60; ++op) {
    const PageId pid = static_cast<PageId>(r.Uniform(100));
    auto it = shadow.find(pid);
    ByteBuffer page = it == shadow.end() ? Read(*s, pid) : it->second;
    ASSERT_TRUE(
        Update(*s, pid, &page, static_cast<uint32_t>(r.Uniform(2000)), 0x88)
            .ok());
    ASSERT_TRUE(s->WriteBack(pid, page).ok());
    shadow[pid] = page;
  }
  IplStore recovered(&dev_, Cfg(18));
  ASSERT_TRUE(recovered.Recover().ok());
  EXPECT_EQ(recovered.num_logical_pages(), 100u);
  ByteBuffer buf(dev_.geometry().data_size);
  for (const auto& [pid, expected] : shadow) {
    ASSERT_TRUE(recovered.ReadPage(pid, buf).ok());
    EXPECT_TRUE(BytesEqual(buf, expected)) << pid;
  }
}

TEST_F(IplStoreTest, RecoverAfterMerges) {
  auto s = MakeStore(18, 100);
  ByteBuffer page = Read(*s, 5);
  for (uint32_t i = 0; i <= s->slots_per_block() + 5; ++i) {
    ASSERT_TRUE(Update(*s, 5, &page, (i * 32) % 2000, 0x99).ok());
    ASSERT_TRUE(s->WriteBack(5, page).ok());
  }
  ASSERT_GE(s->counters().merges, 1u);
  IplStore recovered(&dev_, Cfg(18));
  ASSERT_TRUE(recovered.Recover().ok());
  ByteBuffer buf(dev_.geometry().data_size);
  ASSERT_TRUE(recovered.ReadPage(5, buf).ok());
  EXPECT_TRUE(BytesEqual(buf, page));
}

/// Fails the `n`-th data-page program from now (0 = the next one) with an
/// I/O error, leaving its cells untouched.
class FailNthProgram : public flash::FaultInjector {
 public:
  explicit FailNthProgram(int n) : left_(n) {}
  void BeforeMutation(flash::OpKind, uint32_t) override {}
  void AfterMutation(flash::OpKind, uint32_t) override {}
  bool FailMutation(flash::OpKind kind, uint32_t) override {
    return kind == flash::OpKind::kProgram && left_-- == 0;
  }

 private:
  int left_;
};

// Recovery stops indexing a block's log at its first erased slot, so a slot
// whose program failed must be reused, not skipped: a gap would drop every
// slot flushed after it, acknowledged WriteBacks included.
TEST_F(IplStoreTest, FailedSlotProgramHidesNoLaterSlot) {
  auto s = MakeStore(18, 55);
  ByteBuffer p0 = Read(*s, 0), p1 = Read(*s, 1), p2 = Read(*s, 2);
  FailNthProgram fail(1);
  dev_.set_fault_injector(&fail);
  ASSERT_TRUE(Update(*s, 1, &p1, 0, 0x11).ok());
  ASSERT_TRUE(s->WriteBack(1, p1).ok());
  ASSERT_TRUE(Update(*s, 0, &p0, 0, 0x10).ok());
  EXPECT_EQ(s->WriteBack(0, p0).code(), StatusCode::kIOError);
  ASSERT_TRUE(Update(*s, 2, &p2, 0, 0x12).ok());
  ASSERT_TRUE(s->WriteBack(2, p2).ok());
  dev_.set_fault_injector(nullptr);
  IplStore recovered(&dev_, Cfg(18));
  ASSERT_TRUE(recovered.Recover().ok());
  EXPECT_TRUE(BytesEqual(Read(recovered, 1), p1));
  EXPECT_TRUE(BytesEqual(Read(recovered, 2), p2));
}

// The shared boundary rules live in boundary_contract_test; this one is
// IPL's own: an update log must stay inside the page.
TEST_F(IplStoreTest, UpdateLogBeyondPageIsRejected) {
  IplStore s(&dev_, Cfg(18));
  ByteBuffer page(dev_.geometry().data_size);
  SeedArg arg{3};
  ASSERT_TRUE(s.Format(10, &SeededImage, &arg).ok());
  UpdateLog log;
  log.offset = 2040;
  log.data.assign(100, 0);  // beyond page end
  EXPECT_FALSE(s.OnUpdate(0, page, log).ok());
}

TEST_F(IplStoreTest, CapacityBound) {
  FlashDevice dev(FlashConfig::Small(2));
  IplStore s(&dev, Cfg(18));
  SeedArg arg{1};
  // 2 blocks cannot host 2 blocks' worth of pages plus a merge spare.
  EXPECT_TRUE(s.Format(2 * 55, &SeededImage, &arg).IsNoSpace());
}

}  // namespace
}  // namespace flashdb::methods
