// Unit tests for the one-page differential write buffer.

#include <gtest/gtest.h>

#include <vector>

#include "common/random.h"
#include "pdl/diff_write_buffer.h"

namespace flashdb::pdl {
namespace {

Differential MakeDiff(PageId pid, uint64_t ts, size_t payload) {
  Differential d(pid, ts);
  ByteBuffer data(payload, static_cast<uint8_t>(pid));
  d.AddExtent(0, data);
  return d;
}

TEST(DiffWriteBufferTest, InsertFindRemove) {
  DiffWriteBuffer buf(2048);
  EXPECT_TRUE(buf.empty());
  buf.Insert(MakeDiff(1, 10, 100));
  buf.Insert(MakeDiff(2, 11, 50));
  EXPECT_EQ(buf.size(), 2u);
  EXPECT_TRUE(buf.Contains(1));
  ASSERT_NE(buf.Find(1), nullptr);
  EXPECT_EQ(buf.Find(1)->timestamp(), 10u);
  EXPECT_EQ(buf.Find(3), nullptr);
  buf.Remove(1);
  EXPECT_FALSE(buf.Contains(1));
  EXPECT_TRUE(buf.Contains(2));
  EXPECT_EQ(buf.size(), 1u);
}

TEST(DiffWriteBufferTest, UsedBytesTracksEncodedSizes) {
  DiffWriteBuffer buf(2048);
  Differential d1 = MakeDiff(1, 1, 100);
  Differential d2 = MakeDiff(2, 2, 200);
  const size_t s1 = d1.EncodedSize();
  const size_t s2 = d2.EncodedSize();
  buf.Insert(std::move(d1));
  buf.Insert(std::move(d2));
  EXPECT_EQ(buf.used_bytes(), s1 + s2);
  EXPECT_EQ(buf.free_bytes(), 2048 - s1 - s2);
  buf.Remove(1);
  EXPECT_EQ(buf.used_bytes(), s2);
}

TEST(DiffWriteBufferTest, FitsRespectsCapacity) {
  DiffWriteBuffer buf(256);
  EXPECT_TRUE(buf.Fits(MakeDiff(1, 1, 100)));
  EXPECT_FALSE(buf.Fits(MakeDiff(1, 1, 300)));
  buf.Insert(MakeDiff(1, 1, 100));
  EXPECT_FALSE(buf.Fits(MakeDiff(2, 2, 150)));
}

TEST(DiffWriteBufferTest, RemoveMiddleKeepsIndexConsistent) {
  DiffWriteBuffer buf(4096);
  for (PageId pid = 0; pid < 5; ++pid) buf.Insert(MakeDiff(pid, pid, 50));
  buf.Remove(2);  // middle removal swaps the last entry into its place
  for (PageId pid : {0u, 1u, 3u, 4u}) {
    ASSERT_NE(buf.Find(pid), nullptr) << pid;
    EXPECT_EQ(buf.Find(pid)->pid(), pid);
  }
  EXPECT_EQ(buf.Find(2), nullptr);
}

TEST(DiffWriteBufferTest, RemoveAbsentIsNoop) {
  DiffWriteBuffer buf(2048);
  buf.Insert(MakeDiff(1, 1, 10));
  buf.Remove(99);
  EXPECT_EQ(buf.size(), 1u);
}

TEST(DiffWriteBufferTest, ClearEmptiesEverything) {
  DiffWriteBuffer buf(2048);
  buf.Insert(MakeDiff(1, 1, 10));
  buf.Clear();
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.used_bytes(), 0u);
  EXPECT_FALSE(buf.Contains(1));
}

TEST(DiffWriteBufferTest, EntriesPreserveInsertionOrder) {
  DiffWriteBuffer buf(4096);
  for (PageId pid = 0; pid < 4; ++pid) buf.Insert(MakeDiff(pid, pid, 8));
  const auto& entries = buf.entries();
  ASSERT_EQ(entries.size(), 4u);
  for (PageId pid = 0; pid < 4; ++pid) EXPECT_EQ(entries[pid].pid(), pid);
}

std::vector<PageId> EntryPids(const DiffWriteBuffer& buf) {
  std::vector<PageId> pids;
  for (const Differential& d : buf.entries()) pids.push_back(d.pid());
  return pids;
}

// entries() is the record order of the differential page a flush writes, so
// it is pinned exactly: appends in insertion order, and a removal moves the
// then-last entry into the removed one's place.
TEST(DiffWriteBufferTest, RemoveMovesTheLastEntryIntoTheGap) {
  DiffWriteBuffer buf(4096);
  for (PageId pid = 0; pid < 6; ++pid) buf.Insert(MakeDiff(pid, pid, 8));
  buf.Remove(1);
  EXPECT_EQ(EntryPids(buf), (std::vector<PageId>{0, 5, 2, 3, 4}));
  buf.Remove(3);
  EXPECT_EQ(EntryPids(buf), (std::vector<PageId>{0, 5, 2, 4}));
  buf.Insert(MakeDiff(7, 7, 30));
  buf.Insert(MakeDiff(1, 8, 3));
  EXPECT_EQ(EntryPids(buf), (std::vector<PageId>{0, 5, 2, 4, 7, 1}));
  buf.Remove(1);  // the last entry: nothing moves
  EXPECT_EQ(EntryPids(buf), (std::vector<PageId>{0, 5, 2, 4, 7}));
}

// A random mix of inserts (of varying sizes, into recycled slots), removals
// and clears against a plain vector with swap-with-last removal: the order
// and every entry's contents match.
TEST(DiffWriteBufferTest, RecycledSlotsKeepOrderAndContents) {
  Random r(0xD1FF);
  DiffWriteBuffer buf(1 << 20);
  std::vector<Differential> model;
  for (int step = 0; step < 4000; ++step) {
    const PageId pid = static_cast<PageId>(r.Uniform(40));
    size_t at = 0;  // pid's index in the model, or model.size()
    while (at < model.size() && model[at].pid() != pid) ++at;
    const uint64_t op = r.Uniform(100);
    if (op < 2) {
      buf.Clear();
      model.clear();
    } else if (op < 40) {
      buf.Remove(pid);
      if (at < model.size()) {
        model[at] = model.back();
        model.pop_back();
      }
    } else if (at == model.size()) {
      Differential d = MakeDiff(pid, step, r.Uniform(90));
      if (r.Bernoulli(0.5)) d.AddExtent(100, ByteBuffer(r.Uniform(20), 7));
      buf.Insert(d);
      model.push_back(d);
    }
    ASSERT_EQ(buf.size(), model.size()) << "step " << step;
    size_t used = 0;
    for (size_t i = 0; i < model.size(); ++i) {
      const Differential& got = buf.entries()[i];
      const Differential& want = model[i];
      ASSERT_EQ(got.pid(), want.pid()) << "step " << step << " entry " << i;
      ASSERT_EQ(got.timestamp(), want.timestamp());
      ASSERT_EQ(got.extents().size(), want.extents().size());
      ASSERT_TRUE(BytesEqual(got.data(), want.data()));
      ASSERT_EQ(buf.Find(want.pid()), &got);
      used += want.EncodedSize();
    }
    ASSERT_EQ(buf.used_bytes(), used);
  }
}

}  // namespace
}  // namespace flashdb::pdl
