// Property/fuzz tests for the storage layer under the OLTP serving work:
// seeded random op sequences on BTree and HeapFile checked against a
// std::map reference model, eviction-heavy BufferPool traffic under tiny
// frame counts (where the pinned-frame and nested-WithPage edges live), and
// the pool's batched FlushAll over a ShardedStore (one WriteBatch across the
// shards must equal per-page write-back). Honors FLASHDB_TEST_SEED like the
// crash suite, so the CI fault matrix sweeps different op sequences.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "common/random.h"
#include "methods/method_factory.h"
#include "replay_oracle.h"
#include "storage/btree.h"
#include "storage/buffer_pool.h"
#include "storage/heap_file.h"
#include "test_seed.h"

namespace flashdb::storage {
namespace {

using flash::FlashConfig;
using flash::FlashDevice;

constexpr uint32_t kPageSize = 2048;

/// Flat rig: device + OPU store + pool, `pages` logical pages.
struct Rig {
  Rig(uint32_t pages, uint32_t frames, const char* method = "OPU") {
    const uint32_t blocks = (pages * 2) / 64 + 8;
    dev = std::make_unique<FlashDevice>(FlashConfig::Small(blocks));
    auto spec = methods::ParseMethodSpec(method);
    EXPECT_TRUE(spec.ok());
    store = methods::CreateStore(dev.get(), *spec);
    EXPECT_TRUE(store->Format(pages, nullptr, nullptr).ok());
    pool = std::make_unique<BufferPool>(store.get(), frames);
  }

  std::unique_ptr<FlashDevice> dev;
  std::unique_ptr<PageStore> store;
  std::unique_ptr<BufferPool> pool;
};

// ---------------------------------------------------------------------------
// BTree vs std::map.

TEST(StorageFuzzTest, BTreeMatchesMapReference) {
  Rig rig(512, 32);
  BTree tree(rig.pool.get(), 0, 512);
  ASSERT_TRUE(tree.Create().ok());
  std::map<uint64_t, uint64_t> ref;
  Random rng(TestSeed(101));
  // Bounded key universe so deletes and overwrites actually hit.
  constexpr uint64_t kKeySpace = 700;

  for (uint32_t op = 0; op < 4000; ++op) {
    const uint64_t key = rng.Uniform(kKeySpace);
    switch (rng.Uniform(5)) {
      case 0:
      case 1: {  // insert / overwrite
        const uint64_t value = rng.Next();
        ASSERT_TRUE(tree.Insert(key, value).ok()) << "op " << op;
        ref[key] = value;
        break;
      }
      case 2: {  // delete
        Status st = tree.Delete(key);
        if (ref.count(key) != 0) {
          ASSERT_TRUE(st.ok()) << "op " << op;
          ref.erase(key);
        } else {
          ASSERT_TRUE(st.IsNotFound()) << "op " << op;
        }
        break;
      }
      case 3: {  // point lookup
        Result<uint64_t> got = tree.Get(key);
        if (ref.count(key) != 0) {
          ASSERT_TRUE(got.ok()) << "op " << op;
          EXPECT_EQ(*got, ref[key]);
        } else {
          EXPECT_TRUE(got.status().IsNotFound()) << "op " << op;
        }
        break;
      }
      default: {  // range scan
        const uint64_t lo = rng.Uniform(kKeySpace);
        const uint64_t hi = lo + rng.Uniform(50);
        std::vector<std::pair<uint64_t, uint64_t>> scanned;
        ASSERT_TRUE(tree.Scan(lo, hi,
                              [&](uint64_t k, uint64_t v) {
                                scanned.emplace_back(k, v);
                                return Status::OK();
                              })
                        .ok());
        std::vector<std::pair<uint64_t, uint64_t>> expect;
        for (auto it = ref.lower_bound(lo);
             it != ref.end() && it->first <= hi; ++it) {
          expect.emplace_back(it->first, it->second);
        }
        EXPECT_EQ(scanned, expect) << "op " << op << " range [" << lo << ","
                                   << hi << "]";
        break;
      }
    }
  }
  auto count = tree.CountKeys();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, ref.size());

  // Survives a flush + reopen with the same contents.
  ASSERT_TRUE(rig.pool->FlushAll().ok());
  ASSERT_TRUE(rig.pool->Reset().ok());
  BTree reopened(rig.pool.get(), 0, 512);
  ASSERT_TRUE(reopened.Open().ok());
  for (const auto& [k, v] : ref) {
    auto got = reopened.Get(k);
    ASSERT_TRUE(got.ok()) << "key " << k;
    EXPECT_EQ(*got, v);
  }
}

// ---------------------------------------------------------------------------
// HeapFile vs std::map.

TEST(StorageFuzzTest, HeapFileMatchesMapReference) {
  Rig rig(256, 32);
  HeapFile heap(rig.pool.get(), 0, 256);
  ASSERT_TRUE(heap.Create().ok());
  std::map<uint64_t, ByteBuffer> ref;  // rid.Encode() -> record
  std::vector<Rid> live;
  Random rng(TestSeed(202));

  auto random_record = [&](size_t size) {
    ByteBuffer rec(size);
    rng.Fill(rec);
    return rec;
  };

  for (uint32_t op = 0; op < 3000; ++op) {
    const uint64_t pick = rng.Uniform(6);
    if (pick <= 1 || live.empty()) {  // insert
      const size_t size = 8 + rng.Uniform(160);
      ByteBuffer rec = random_record(size);
      auto rid = heap.Insert(rec);
      ASSERT_TRUE(rid.ok()) << "op " << op;
      ASSERT_EQ(ref.count(rid->Encode()), 0u);
      ref[rid->Encode()] = rec;
      live.push_back(*rid);
    } else if (pick == 2) {  // same-size update
      const size_t i = rng.Uniform(live.size());
      ByteBuffer rec = random_record(ref[live[i].Encode()].size());
      ASSERT_TRUE(heap.Update(live[i], rec).ok()) << "op " << op;
      ref[live[i].Encode()] = rec;
    } else if (pick == 3) {  // delete
      const size_t i = rng.Uniform(live.size());
      ASSERT_TRUE(heap.Delete(live[i]).ok()) << "op " << op;
      ref.erase(live[i].Encode());
      live[i] = live.back();
      live.pop_back();
    } else {  // read back
      const size_t i = rng.Uniform(live.size());
      ByteBuffer rec;
      ASSERT_TRUE(heap.Get(live[i], &rec).ok()) << "op " << op;
      EXPECT_EQ(rec, ref[live[i].Encode()]);
    }
  }

  // Full scan sees exactly the reference contents.
  std::map<uint64_t, ByteBuffer> scanned;
  ASSERT_TRUE(heap.Scan([&](const Rid& rid, ConstBytes rec) {
                    scanned[rid.Encode()] = ByteBuffer(rec.begin(), rec.end());
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(scanned, ref);
  auto count = heap.CountRecords();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, ref.size());
}

// ---------------------------------------------------------------------------
// Eviction-heavy BufferPool traffic under tiny frame counts.

TEST(StorageFuzzTest, TinyPoolEvictionStorm) {
  constexpr uint32_t kPages = 64;
  Rig rig(kPages, 3);  // 3 frames over 64 pages: almost every access evicts
  std::vector<ByteBuffer> shadow(kPages, ByteBuffer(kPageSize, 0));
  Random rng(TestSeed(303));

  for (uint32_t op = 0; op < 2000; ++op) {
    const PageId pid = static_cast<PageId>(rng.Uniform(kPages));
    if (rng.Uniform(2) == 0) {
      const uint32_t off = static_cast<uint32_t>(rng.Uniform(kPageSize - 8));
      const uint64_t stamp = rng.Next();
      ASSERT_TRUE(rig.pool
                      ->WithPage(pid,
                                 [&](MutBytes page) {
                                   std::memcpy(page.data() + off, &stamp, 8);
                                   return Status::OK();
                                 })
                      .ok());
      std::memcpy(shadow[pid].data() + off, &stamp, 8);
    } else {
      ASSERT_TRUE(rig.pool
                      ->ReadPage(pid,
                                 [&](ConstBytes page) {
                                   EXPECT_TRUE(BytesEqual(page, shadow[pid]));
                                   return Status::OK();
                                 })
                      .ok());
    }
  }
  EXPECT_GT(rig.pool->stats().evictions, 0u);
  ASSERT_TRUE(rig.pool->FlushAll().ok());
  // Flash now holds the shadow exactly.
  ByteBuffer buf(kPageSize);
  for (PageId pid = 0; pid < kPages; ++pid) {
    ASSERT_TRUE(rig.store->ReadPage(pid, buf).ok());
    EXPECT_TRUE(BytesEqual(buf, shadow[pid])) << "pid " << pid;
  }
}

// All frames pinned: the miss path must surface Busy without leaking the
// pinned frames, and the pool must keep working afterwards.
TEST(StorageFuzzTest, PinnedFramesSurfaceBusyCleanly) {
  Rig rig(16, 1);
  Status inner;
  ASSERT_TRUE(rig.pool
                  ->ReadPage(0,
                             [&](ConstBytes) {
                               inner = rig.pool->ReadPage(
                                   1, [](ConstBytes) { return Status::OK(); });
                               return Status::OK();
                             })
                  .ok());
  EXPECT_TRUE(inner.IsBusy());
  // The single frame was not leaked: page 1 is reachable again.
  EXPECT_TRUE(
      rig.pool->ReadPage(1, [](ConstBytes) { return Status::OK(); }).ok());
}

// FlushAll while a dirty page is pinned must refuse (Busy) instead of
// silently skipping the frame -- the write-through contract.
TEST(StorageFuzzTest, FlushAllRefusesPinnedDirtyFrame) {
  Rig rig(16, 4);
  // Dirty page 0, then re-enter it and flush mid-pin.
  ASSERT_TRUE(rig.pool
                  ->WithPage(0,
                             [](MutBytes page) {
                               page[0] ^= 0xff;
                               return Status::OK();
                             })
                  .ok());
  Status flush_mid_pin;
  ASSERT_TRUE(rig.pool
                  ->WithPage(0,
                             [&](MutBytes page) {
                               page[1] ^= 0xff;
                               flush_mid_pin = rig.pool->FlushAll();
                               return Status::OK();
                             })
                  .ok());
  EXPECT_TRUE(flush_mid_pin.IsBusy());
  // Unpinned again: the flush goes through.
  EXPECT_TRUE(rig.pool->FlushAll().ok());
}

// Nested WithPage (the B-tree split shape) must keep each depth's snapshot
// intact: the outer diff may not be polluted by the inner call, and an
// outer *failure* must roll back to the outer pre-image, not the inner
// call's scratch.
TEST(StorageFuzzTest, NestedWithPageKeepsSnapshotsSeparate) {
  Rig rig(16, 4);
  // Stamp distinct contents.
  for (PageId pid : {PageId{0}, PageId{1}}) {
    ASSERT_TRUE(rig.pool
                    ->WithPage(pid,
                               [&](MutBytes page) {
                                 std::fill(page.begin(), page.end(),
                                           static_cast<uint8_t>(0x10 + pid));
                                 return Status::OK();
                               })
                    .ok());
  }
  // Outer mutation of page 0 fails after nesting a successful mutation of
  // page 1; page 0 must roll back to its own pre-image.
  Status st = rig.pool->WithPage(0, [&](MutBytes outer) {
    outer[7] = 0x77;
    Status nested = rig.pool->WithPage(1, [](MutBytes inner) {
      inner[9] = 0x99;
      return Status::OK();
    });
    EXPECT_TRUE(nested.ok());
    return Status::Corruption("forced outer failure");
  });
  EXPECT_FALSE(st.ok());
  ASSERT_TRUE(rig.pool
                  ->ReadPage(0,
                             [](ConstBytes page) {
                               EXPECT_EQ(page[7], 0x10);  // rolled back
                               return Status::OK();
                             })
                  .ok());
  ASSERT_TRUE(rig.pool
                  ->ReadPage(1,
                             [](ConstBytes page) {
                               EXPECT_EQ(page[9], 0x99);  // nested kept
                               return Status::OK();
                             })
                  .ok());
}

// ---------------------------------------------------------------------------
// FlushAll over a ShardedStore: one WriteBatch across the shards must leave
// the same per-shard device state (cells, erase counts, clocks) and the same
// live pages as per-page FlushPage.

TEST(StorageFuzzTest, ShardedFlushAllMatchesPerPageWriteBack) {
  constexpr uint32_t kShards = 2;
  constexpr uint32_t kPagesPerShard = 64;
  auto spec = methods::ParseMethodSpec("PDL(256B)");
  ASSERT_TRUE(spec.ok());

  auto make_store = [&] {
    auto store = methods::CreateShardedStore(FlashConfig::Small(16), kShards,
                                             *spec);
    EXPECT_TRUE(
        store->Format(kShards * kPagesPerShard, nullptr, nullptr).ok());
    return store;
  };
  auto batched_store = make_store();
  auto perpage_store = make_store();
  BufferPool batched(batched_store.get(), 32);
  BufferPool perpage(perpage_store.get(), 32);

  // Distinct pids, fewer than the frame count: no evictions, so FlushAll's
  // frame-index order equals first-touch order and the per-page flush below
  // issues the exact same per-shard write sequence.
  Random rng(TestSeed(404));
  std::vector<PageId> touched;
  std::set<PageId> seen;
  while (touched.size() < 24) {
    const PageId pid =
        static_cast<PageId>(rng.Uniform(kShards * kPagesPerShard));
    if (!seen.insert(pid).second) continue;
    const uint32_t off = static_cast<uint32_t>(rng.Uniform(kPageSize - 8));
    const uint64_t stamp = rng.Next();
    auto mutate = [&](MutBytes page) {
      std::memcpy(page.data() + off, &stamp, 8);
      return Status::OK();
    };
    ASSERT_TRUE(batched.WithPage(pid, mutate).ok());
    ASSERT_TRUE(perpage.WithPage(pid, mutate).ok());
    touched.push_back(pid);
  }
  ASSERT_TRUE(batched.FlushAll().ok());
  for (PageId pid : touched) {
    ASSERT_TRUE(perpage.FlushPage(pid).ok());
  }
  ASSERT_TRUE(perpage_store->Flush().ok());

  EXPECT_TRUE(SameTwins({harness::ChipsOf(batched_store.get())},
                        {harness::ChipsOf(perpage_store.get())}));
  // Equal cells do not prove equal mappings: read every page back live.
  ByteBuffer a(kPageSize), b(kPageSize);
  for (PageId pid = 0; pid < kShards * kPagesPerShard; ++pid) {
    ASSERT_TRUE(batched_store->ReadPage(pid, a).ok());
    ASSERT_TRUE(perpage_store->ReadPage(pid, b).ok());
    EXPECT_TRUE(BytesEqual(a, b)) << "pid " << pid;
  }
}

}  // namespace
}  // namespace flashdb::storage
