// Steady-state allocation checks: once warm, a page access allocates
// nothing, through the buffer pool (hits, misses and evictions alike) and
// through PDL's and OPU's read and write-back paths, PDL's buffer flushes
// included. PDL's garbage-collection rounds and IPL's updates and merges
// allocate next to nothing: their windows bound the count per round and per
// op. The other store windows assert that no GC round ran.
//
// This binary replaces the global operator new with a counting one, so it
// must stay a test binary of its own.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "common/random.h"
#include "methods/ipl_store.h"
#include "methods/opu_store.h"
#include "pdl/pdl_store.h"
#include "storage/buffer_pool.h"

namespace {

std::atomic<uint64_t> g_allocations{0};
/// Where the counter's self-test publishes its buffer, so the allocation
/// cannot be optimized away.
std::atomic<const void*> g_sink{nullptr};

}  // namespace

// Not inlined: GCC would otherwise see a malloc'd pointer reach a `delete`
// expression's inlined free and warn -Wmismatched-new-delete.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace flashdb {
namespace {

using flash::FlashConfig;
using flash::FlashDevice;
using storage::BufferPool;

/// Heap allocations made while `body` runs.
template <typename F>
uint64_t AllocationsDuring(F&& body) {
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  body();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(SteadyStateAllocTest, CounterSeesHeapAllocations) {
  const uint64_t n = AllocationsDuring([] {
    ByteBuffer buf(4096);
    g_sink.store(buf.data(), std::memory_order_relaxed);
  });
  EXPECT_GE(n, 1u);
}

TEST(SteadyStateAllocTest, BufferPoolHitsAllocateNothing) {
  FlashDevice dev(FlashConfig::Small(32));
  methods::OpuStore store(&dev);
  constexpr uint32_t kPages = 16;
  ASSERT_TRUE(store.Format(kPages, nullptr, nullptr).ok());
  BufferPool pool(&store, kPages);
  uint64_t sum = 0;
  uint32_t calls = 0;
  uint8_t stamp = 0;
  bool ok = true;
  // Each callback captures three or more references: past std::function's
  // inline buffer. The nested WithPage exercises the second depth's scratch.
  auto access = [&](PageId pid) {
    Status read = pool.ReadPage(pid, [&sum, &calls, &stamp](ConstBytes page) {
      sum += page[stamp];
      ++calls;
      return Status::OK();
    });
    Status write = pool.WithPage(pid, [&](MutBytes page) {
      ++stamp;
      page[stamp % 64] = stamp;
      ++calls;
      return pool.WithPage((pid + 1) % kPages, [&](MutBytes next) {
        next[64 + stamp % 64] = stamp;
        sum += next[0];
        ++calls;
        return Status::OK();
      });
    });
    ok &= read.ok() && write.ok();
  };
  for (PageId pid = 0; pid < kPages; ++pid) access(pid);
  const uint64_t misses = pool.stats().misses;
  const uint64_t allocs = AllocationsDuring([&] {
    for (int round = 0; round < 50; ++round) {
      for (PageId pid = 0; pid < kPages; ++pid) access(pid);
    }
  });
  ASSERT_TRUE(ok);
  EXPECT_EQ(pool.stats().misses, misses);  // the window was all hits
  EXPECT_GT(calls, 0u);
  EXPECT_EQ(allocs, 0u);
}

TEST(SteadyStateAllocTest, BufferPoolMissesAndEvictionsAllocateNothing) {
  FlashDevice dev(FlashConfig::Small(64));
  methods::OpuStore store(&dev);
  constexpr uint32_t kPages = 64;
  ASSERT_TRUE(store.Format(kPages, nullptr, nullptr).ok());
  BufferPool pool(&store, 8);  // the working set is eight times the pool
  uint32_t round = 0;
  uint32_t pages_read = 0;
  bool ok = true;
  auto sweep = [&] {
    for (PageId pid = 0; pid < kPages; ++pid) {
      Status write = pool.WithPage(pid, [&](MutBytes page) {
        page[round % 128] = static_cast<uint8_t>(round + pid + 1);
        return Status::OK();
      });
      Status read = pool.ReadPage((pid * 7) % kPages, [&](ConstBytes page) {
        if (page.size() == dev.geometry().data_size) ++pages_read;
        return Status::OK();
      });
      ok &= write.ok() && read.ok();
    }
    ok &= pool.FlushAll().ok();
    ++round;
  };
  sweep();
  sweep();
  const uint64_t gc_runs = store.gc_runs();
  const uint64_t evictions = pool.stats().evictions;
  const uint64_t allocs = AllocationsDuring([&] {
    for (int i = 0; i < 3; ++i) sweep();
  });
  ASSERT_TRUE(ok);
  EXPECT_EQ(pages_read, 5 * kPages);
  EXPECT_GT(pool.stats().evictions, evictions + 3 * kPages);
  EXPECT_EQ(store.gc_runs(), gc_runs);
  EXPECT_EQ(allocs, 0u);
}

/// Drives `ops` random ReadPage + WriteBack pairs. Each written image is the
/// zero page with 16 random non-zero bytes at a random offset, so every
/// differential against a zero base page has the same shape (one 16-byte
/// extent) and a warm store has seen the largest one.
void DriveStore(PageStore* store, uint32_t pages, int ops, Random* rng,
                ByteBuffer* page, bool* ok) {
  for (int i = 0; i < ops; ++i) {
    const PageId pid = static_cast<PageId>(rng->Uniform(pages));
    *ok &= store->ReadPage(pid, *page).ok();
    std::fill(page->begin(), page->end(), 0);
    const size_t off = rng->Uniform(page->size() - 16);
    for (size_t k = 0; k < 16; ++k) {
      (*page)[off + k] = static_cast<uint8_t>(rng->Range(1, 255));
    }
    *ok &= store->WriteBack(pid, *page).ok();
  }
}

TEST(SteadyStateAllocTest, PdlReadAndWriteBackAllocateNothing) {
  FlashDevice dev(FlashConfig::Small(64));
  pdl::PdlStore store(&dev, pdl::PdlConfig{256});
  constexpr uint32_t kPages = 512;  // far more pids than buffer entries
  ASSERT_TRUE(store.Format(kPages, nullptr, nullptr).ok());
  Random rng(0x5EED);
  ByteBuffer page(dev.geometry().data_size);
  bool ok = true;
  DriveStore(&store, kPages, 600, &rng, &page, &ok);
  ASSERT_TRUE(ok);
  const uint64_t gc_runs = store.gc_runs();
  const uint64_t flushes = store.counters().buffer_flushes;
  const uint64_t allocs = AllocationsDuring(
      [&] { DriveStore(&store, kPages, 600, &rng, &page, &ok); });
  ASSERT_TRUE(ok);
  EXPECT_GE(store.counters().buffer_flushes, flushes + 5);
  EXPECT_EQ(store.counters().new_base_pages, 0u);
  EXPECT_EQ(store.gc_runs(), gc_runs);
  EXPECT_EQ(allocs, 0u);
}

TEST(SteadyStateAllocTest, PdlGarbageCollectionAllocatesOnlyItsVictimList) {
  FlashDevice dev(FlashConfig::Small(16));
  pdl::PdlStore store(&dev, pdl::PdlConfig{256});
  constexpr uint32_t kPages = 512;
  ASSERT_TRUE(store.Format(kPages, nullptr, nullptr).ok());
  Random rng(0x6C);
  ByteBuffer page(dev.geometry().data_size);
  bool ok = true;
  // A write-through flush after every second write leaves each differential
  // page nearly empty, so GC victims still hold live records to compact.
  auto drive = [&](int pairs) {
    for (int i = 0; i < pairs; ++i) {
      DriveStore(&store, kPages, 2, &rng, &page, &ok);
      ok &= store.Flush().ok();
    }
  };
  drive(4000);
  ASSERT_TRUE(ok);
  const uint64_t gc_runs = store.gc_runs();
  const uint64_t allocs = AllocationsDuring([&] { drive(4000); });
  ASSERT_TRUE(ok);
  const uint64_t rounds = store.gc_runs() - gc_runs;
  EXPECT_GE(rounds, 20u);
  EXPECT_GT(store.counters().gc_diffs_compacted, 0u);
  EXPECT_EQ(store.counters().new_base_pages, 0u);
  // Each round allocates its victim list; the free list's deque allocates a
  // chunk now and then.
  EXPECT_LE(allocs, 2 * rounds);
}

TEST(SteadyStateAllocTest, IplUpdatesAndMergesAllocateAlmostNothing) {
  FlashDevice dev(FlashConfig::Small(16));
  methods::IplStore store(&dev, methods::IplConfig{18 * 1024});
  constexpr uint32_t kPages = 220;  // four logical blocks
  ASSERT_TRUE(store.Format(kPages, nullptr, nullptr).ok());
  Random rng(0x1B);
  ByteBuffer page(dev.geometry().data_size);
  UpdateLog log;  // the driver's own, reused so its capacity stays
  bool ok = true;
  auto drive = [&](int ops) {
    for (int i = 0; i < ops; ++i) {
      const PageId pid = static_cast<PageId>(rng.Uniform(kPages));
      ok &= store.ReadPage(pid, page).ok();
      log.offset = static_cast<uint32_t>(rng.Uniform(page.size() - 16));
      log.data.resize(16);
      rng.Fill(log.data);
      std::copy(log.data.begin(), log.data.end(), page.begin() + log.offset);
      ok &= store.OnUpdate(pid, page, log).ok();
      ok &= store.WriteBack(pid, page).ok();
    }
  };
  constexpr int kOps = 6000;
  drive(kOps);
  ASSERT_TRUE(ok);
  const uint64_t merges = store.counters().merges;
  const uint64_t allocs = AllocationsDuring([&] { drive(kOps); });
  ASSERT_TRUE(ok);
  EXPECT_GE(store.counters().merges, merges + 30);
  // Now and then a pid's slot list outgrows its longest run between merges,
  // or the free list's deque takes a chunk.
  EXPECT_LE(allocs, kOps / 50);
}

TEST(SteadyStateAllocTest, OpuReadAndWriteBackAllocateNothing) {
  FlashDevice dev(FlashConfig::Small(64));
  methods::OpuStore store(&dev);
  constexpr uint32_t kPages = 512;
  ASSERT_TRUE(store.Format(kPages, nullptr, nullptr).ok());
  Random rng(0x5EED);
  ByteBuffer page(dev.geometry().data_size);
  bool ok = true;
  DriveStore(&store, kPages, 200, &rng, &page, &ok);
  ASSERT_TRUE(ok);
  const uint64_t gc_runs = store.gc_runs();
  const uint64_t allocs = AllocationsDuring(
      [&] { DriveStore(&store, kPages, 1000, &rng, &page, &ok); });
  ASSERT_TRUE(ok);
  EXPECT_EQ(store.gc_runs(), gc_runs);
  EXPECT_EQ(allocs, 0u);
}

}  // namespace
}  // namespace flashdb
