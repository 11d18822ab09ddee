// Unit tests for the DBMS buffer pool.

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <vector>

#include "common/random.h"
#include "methods/method_factory.h"
#include "methods/opu_store.h"
#include "recording_store.h"
#include "storage/buffer_pool.h"
#include "test_seed.h"

namespace flashdb::storage {
namespace {

using flash::FlashConfig;
using flash::FlashDevice;

class BufferPoolTest : public ::testing::Test {
 protected:
  BufferPoolTest() : dev_(FlashConfig::Small(8)), store_(&dev_) {
    EXPECT_TRUE(store_.Format(100, nullptr, nullptr).ok());
  }

  FlashDevice dev_;
  methods::OpuStore store_;
};

TEST_F(BufferPoolTest, DeviceWearSurfacesStoreWear) {
  BufferPool pool(&store_, 4);
  // Dirty every page repeatedly so the small chip must erase.
  for (int round = 0; round < 60; ++round) {
    for (PageId pid = 0; pid < 100; ++pid) {
      ASSERT_TRUE(pool.WithPage(pid, [round](MutBytes page) {
                        page[0] = static_cast<uint8_t>(round);
                        return Status::OK();
                      })
                      .ok());
    }
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  const flash::WearSummary wear = pool.device_wear();
  EXPECT_EQ(wear.total, dev_.stats().total.erases);
  EXPECT_GT(wear.total, 0u);
  EXPECT_GE(wear.max, wear.min);
  EXPECT_GT(wear.mean, 0.0);
}

TEST_F(BufferPoolTest, HitAvoidsDeviceRead) {
  BufferPool pool(&store_, 4);
  auto noop = [](ConstBytes) { return Status::OK(); };
  ASSERT_TRUE(pool.ReadPage(5, noop).ok());
  const uint64_t reads = dev_.stats().total.reads;
  ASSERT_TRUE(pool.ReadPage(5, noop).ok());
  EXPECT_EQ(dev_.stats().total.reads, reads);  // served from the frame
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(pool.stats().misses, 1u);
}

TEST_F(BufferPoolTest, WithPageWritesThroughOnEvict) {
  BufferPool pool(&store_, 2);
  ASSERT_TRUE(pool.WithPage(1, [](MutBytes page) {
                    page[0] = 0xAB;
                    return Status::OK();
                  })
                  .ok());
  // Fill the pool with other pages to force eviction of page 1.
  auto noop = [](ConstBytes) { return Status::OK(); };
  ASSERT_TRUE(pool.ReadPage(2, noop).ok());
  ASSERT_TRUE(pool.ReadPage(3, noop).ok());
  EXPECT_GE(pool.stats().dirty_writebacks, 1u);
  // The store has the new content.
  ByteBuffer page(dev_.geometry().data_size);
  ASSERT_TRUE(store_.ReadPage(1, page).ok());
  EXPECT_EQ(page[0], 0xAB);
}

TEST_F(BufferPoolTest, LruEvictsLeastRecentlyUsed) {
  BufferPool pool(&store_, 2);
  auto noop = [](ConstBytes) { return Status::OK(); };
  ASSERT_TRUE(pool.ReadPage(1, noop).ok());
  ASSERT_TRUE(pool.ReadPage(2, noop).ok());
  ASSERT_TRUE(pool.ReadPage(1, noop).ok());  // 1 becomes most recent
  ASSERT_TRUE(pool.ReadPage(3, noop).ok());  // must evict 2
  const uint64_t reads = dev_.stats().total.reads;
  ASSERT_TRUE(pool.ReadPage(1, noop).ok());  // still cached
  EXPECT_EQ(dev_.stats().total.reads, reads);
  ASSERT_TRUE(pool.ReadPage(2, noop).ok());  // was evicted, re-read
  EXPECT_EQ(dev_.stats().total.reads, reads + 1);
}

TEST_F(BufferPoolTest, FailedMutationRollsBack) {
  BufferPool pool(&store_, 4);
  Status st = pool.WithPage(7, [](MutBytes page) {
    page[0] = 0x55;
    return Status::Aborted("changed my mind");
  });
  EXPECT_FALSE(st.ok());
  ASSERT_TRUE(pool
                  .ReadPage(7,
                            [](ConstBytes page) {
                              EXPECT_EQ(page[0], 0x00);
                              return Status::OK();
                            })
                  .ok());
  // Not dirty: flushing does nothing.
  const uint64_t writes = dev_.stats().total.writes;
  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_EQ(dev_.stats().total.writes, writes);
}

TEST_F(BufferPoolTest, OnUpdateReportsMinimalRange) {
  // Use IPL (tightly coupled) to observe the update logs the pool reports.
  FlashDevice dev(FlashConfig::Small(16));
  auto spec = methods::ParseMethodSpec("IPL(18KB)");
  ASSERT_TRUE(spec.ok());
  auto store = methods::CreateStore(&dev, *spec);
  ASSERT_TRUE(store->Format(60, nullptr, nullptr).ok());
  BufferPool pool(store.get(), 4);
  ASSERT_TRUE(pool.WithPage(3, [](MutBytes page) {
                    page[100] = 1;
                    page[101] = 2;
                    return Status::OK();
                  })
                  .ok());
  ASSERT_TRUE(pool.FlushAll().ok());
  // Verify through a fresh read that the log round-tripped.
  ByteBuffer page(dev.geometry().data_size);
  ASSERT_TRUE(store->ReadPage(3, page).ok());
  EXPECT_EQ(page[100], 1);
  EXPECT_EQ(page[101], 2);
}

TEST_F(BufferPoolTest, NoopMutationDoesNotDirty) {
  BufferPool pool(&store_, 4);
  ASSERT_TRUE(
      pool.WithPage(9, [](MutBytes) { return Status::OK(); }).ok());
  const uint64_t writes = dev_.stats().total.writes;
  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_EQ(dev_.stats().total.writes, writes);
}

TEST_F(BufferPoolTest, FlushPageTargetsOnePage) {
  BufferPool pool(&store_, 4);
  ASSERT_TRUE(pool.WithPage(1, [](MutBytes p) {
                    p[0] = 1;
                    return Status::OK();
                  })
                  .ok());
  ASSERT_TRUE(pool.WithPage(2, [](MutBytes p) {
                    p[0] = 2;
                    return Status::OK();
                  })
                  .ok());
  ASSERT_TRUE(pool.FlushPage(1).ok());
  ByteBuffer page(dev_.geometry().data_size);
  ASSERT_TRUE(store_.ReadPage(1, page).ok());
  EXPECT_EQ(page[0], 1);
  ASSERT_TRUE(store_.ReadPage(2, page).ok());
  EXPECT_EQ(page[0], 0);  // page 2 still only dirty in the pool
}

TEST_F(BufferPoolTest, ResetDropsCleanState) {
  BufferPool pool(&store_, 4);
  ASSERT_TRUE(pool.WithPage(1, [](MutBytes p) {
                    p[0] = 9;
                    return Status::OK();
                  })
                  .ok());
  ASSERT_TRUE(pool.Reset().ok());
  EXPECT_EQ(pool.stats().hits + pool.stats().misses, 1u);
  // Dirty data was flushed by Reset.
  ByteBuffer page(dev_.geometry().data_size);
  ASSERT_TRUE(store_.ReadPage(1, page).ok());
  EXPECT_EQ(page[0], 9);
}

Status Touch(BufferPool* pool, PageId pid, uint8_t value) {
  return pool->WithPage(pid, [value](MutBytes p) {
    p[0] = value;
    return Status::OK();
  });
}

TEST_F(BufferPoolTest, FlushAllWritesInFrameOrder) {
  RecordingStore rec(&store_);
  rec.StartRecording();
  BufferPool pool(&rec, 8);
  auto noop = [](ConstBytes) { return Status::OK(); };
  // Frames fill from index 0: pids 30, 10, 20 land in frames 0, 1, 2.
  for (PageId pid : {30u, 10u, 20u}) ASSERT_TRUE(pool.ReadPage(pid, noop).ok());
  for (PageId pid : {20u, 30u, 10u}) ASSERT_TRUE(Touch(&pool, pid, 7).ok());
  ASSERT_TRUE(pool.FlushAll().ok());
  ASSERT_EQ(rec.batches().size(), 1u);
  EXPECT_EQ(rec.batches()[0], (std::vector<PageId>{30, 10, 20}));
  // Nothing is dirty any more: the next flush writes nothing.
  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_EQ(rec.batches().size(), 1u);
}

TEST_F(BufferPoolTest, BusyFlushWritesNothingAndTheNextWritesAll) {
  RecordingStore rec(&store_);
  rec.StartRecording();
  BufferPool pool(&rec, 4);
  ASSERT_TRUE(Touch(&pool, 1, 1).ok());
  ASSERT_TRUE(Touch(&pool, 2, 2).ok());
  const uint64_t writes = dev_.stats().total.writes;
  // Page 1 stays pinned while its reader runs: a flush inside must refuse.
  ASSERT_TRUE(pool.ReadPage(1, [&](ConstBytes) {
                    EXPECT_TRUE(pool.FlushAll().IsBusy());
                    return Status::OK();
                  })
                  .ok());
  EXPECT_TRUE(rec.batches().empty());
  EXPECT_EQ(dev_.stats().total.writes, writes);
  ASSERT_TRUE(pool.FlushAll().ok());
  ASSERT_EQ(rec.batches().size(), 1u);
  EXPECT_EQ(rec.batches()[0], (std::vector<PageId>{1, 2}));
}

// A miss with every frame pinned has no victim: it returns Busy, and the
// pinned frames are untouched.
TEST_F(BufferPoolTest, MissWithEveryFramePinnedIsBusy) {
  BufferPool pool(&store_, 2);
  auto noop = [](ConstBytes) { return Status::OK(); };
  ASSERT_TRUE(pool.ReadPage(1, [&](ConstBytes) {
                    return pool.ReadPage(2, [&](ConstBytes) {
                      EXPECT_TRUE(pool.ReadPage(3, noop).IsBusy());
                      return Status::OK();
                    });
                  })
                  .ok());
  EXPECT_EQ(pool.stats().evictions, 0u);
  // Recency counts from the last unpin: page 2, released first, goes next.
  ASSERT_TRUE(pool.ReadPage(3, noop).ok());
  EXPECT_EQ(pool.stats().evictions, 1u);
  const uint64_t misses = pool.stats().misses;
  ASSERT_TRUE(pool.ReadPage(1, noop).ok());
  EXPECT_EQ(pool.stats().misses, misses);  // page 1 stayed cached
}

TEST_F(BufferPoolTest, FrameEvictedDirtyThenDirtiedAgainIsWrittenOnce) {
  RecordingStore rec(&store_);
  rec.StartRecording();
  BufferPool pool(&rec, 2);
  auto noop = [](ConstBytes) { return Status::OK(); };
  ASSERT_TRUE(Touch(&pool, 1, 1).ok());      // frame 0
  ASSERT_TRUE(pool.ReadPage(2, noop).ok());  // frame 1
  ASSERT_TRUE(pool.ReadPage(3, noop).ok());  // evicts pid 1 from frame 0
  ASSERT_EQ(rec.writes().size(), 1u);  // the eviction's write-back
  EXPECT_EQ(rec.writes()[0].pid, 1u);
  EXPECT_TRUE(rec.batches().empty());
  ASSERT_TRUE(Touch(&pool, 3, 3).ok());  // frame 0 dirty again
  ASSERT_TRUE(pool.FlushAll().ok());
  ASSERT_EQ(rec.batches().size(), 1u);
  EXPECT_EQ(rec.batches()[0], (std::vector<PageId>{3}));
  ByteBuffer page(dev_.geometry().data_size);
  ASSERT_TRUE(store_.ReadPage(1, page).ok());
  EXPECT_EQ(page[0], 1);
  ASSERT_TRUE(store_.ReadPage(3, page).ok());
  EXPECT_EQ(page[0], 3);
}

TEST_F(BufferPoolTest, SingleFramePoolStillWorks) {
  BufferPool pool(&store_, 1);
  for (PageId pid = 0; pid < 10; ++pid) {
    ASSERT_TRUE(pool.WithPage(pid, [&](MutBytes p) {
                      p[0] = static_cast<uint8_t>(pid);
                      return Status::OK();
                    })
                    .ok());
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  ByteBuffer page(dev_.geometry().data_size);
  for (PageId pid = 0; pid < 10; ++pid) {
    ASSERT_TRUE(store_.ReadPage(pid, page).ok());
    EXPECT_EQ(page[0], pid);
  }
}

/// The pool's replacement policy stated plainly: a std::list LRU of the
/// unpinned cached pids (front = least recent), a map of the cached pids,
/// and the pool's free-frame stack. It predicts every hit or miss and every
/// write-back, in order (a FlushAll batch in frame-index order).
class PoolModel {
 public:
  explicit PoolModel(uint32_t frames) : frames_(frames) { DropAll(); }

  /// Pins `pid`; returns true on a hit.
  bool Pin(PageId pid) {
    auto it = cached_.find(pid);
    if (it != cached_.end()) {
      lru_.remove(pid);
      ++it->second.pins;
      return true;
    }
    uint32_t frame;
    if (!free_.empty()) {
      frame = free_.back();
      free_.pop_back();
    } else {
      const PageId victim = lru_.front();  // every listed pid is unpinned
      lru_.pop_front();
      const Entry& v = cached_.at(victim);
      if (v.dirty) writes_.push_back(victim);
      frame = v.frame;
      cached_.erase(victim);
    }
    cached_[pid] = Entry{frame, false, 1};
    return false;
  }

  void Unpin(PageId pid, bool dirtied) {
    Entry& e = cached_.at(pid);
    if (dirtied) e.dirty = true;
    if (--e.pins == 0) lru_.push_back(pid);
  }

  void FlushPage(PageId pid) {
    auto it = cached_.find(pid);
    if (it != cached_.end() && it->second.dirty) {
      writes_.push_back(pid);
      it->second.dirty = false;
    }
  }

  void FlushAll() {
    std::vector<std::pair<uint32_t, PageId>> dirty;
    for (auto& [pid, e] : cached_) {
      if (e.dirty) dirty.emplace_back(e.frame, pid);
      e.dirty = false;
    }
    if (dirty.empty()) return;
    std::sort(dirty.begin(), dirty.end());
    std::vector<PageId>& batch = batches_.emplace_back();
    for (const auto& [frame, pid] : dirty) {
      batch.push_back(pid);
      writes_.push_back(pid);
    }
  }

  void Reset() {
    FlushAll();
    DropAll();
  }

  const std::vector<PageId>& writes() const { return writes_; }
  const std::vector<std::vector<PageId>>& batches() const { return batches_; }

 private:
  struct Entry {
    uint32_t frame = 0;
    bool dirty = false;
    uint32_t pins = 0;
  };

  void DropAll() {
    cached_.clear();
    lru_.clear();
    free_.clear();
    for (uint32_t i = 0; i < frames_; ++i) free_.push_back(frames_ - 1 - i);
  }

  uint32_t frames_;
  std::map<PageId, Entry> cached_;
  std::list<PageId> lru_;
  std::vector<uint32_t> free_;
  std::vector<PageId> writes_;
  std::vector<std::vector<PageId>> batches_;
};

/// Drives the pool and the model with one seeded op mix: ReadPage and
/// WithPage (nested up to three deep), FlushPage, FlushAll and Reset.
class ModelRun {
 public:
  ModelRun(BufferPool* pool, RecordingStore* rec, uint32_t frames,
           uint32_t pages, uint64_t seed)
      : pool_(pool),
        rec_(rec),
        model_(frames),
        pages_(pages),
        rng_(seed),
        content_(pages, 0) {}

  void Step() {
    const uint64_t op = rng_.Uniform(100);
    if (op < 42) {
      Access(/*depth=*/0, /*write=*/false);
    } else if (op < 84) {
      Access(/*depth=*/0, /*write=*/true);
    } else if (op < 92) {
      const PageId pid = static_cast<PageId>(rng_.Uniform(pages_));
      model_.FlushPage(pid);
      ASSERT_TRUE(pool_->FlushPage(pid).ok());
    } else if (op < 98) {
      model_.FlushAll();
      ASSERT_TRUE(pool_->FlushAll().ok());
    } else {
      model_.Reset();
      ASSERT_TRUE(pool_->Reset().ok());
    }
    std::vector<PageId> written;
    for (const RecordingStore::Write& w : rec_->writes()) {
      written.push_back(w.pid);
    }
    ASSERT_EQ(written, model_.writes());
    ASSERT_EQ(rec_->batches(), model_.batches());
  }

 private:
  /// One ReadPage or WithPage of a random pid, checked against the model;
  /// the callback may nest another access.
  void Access(int depth, bool write) {
    const PageId pid = static_cast<PageId>(rng_.Uniform(pages_));
    const uint32_t off = pid % 128;
    const bool hit = model_.Pin(pid);
    const BufferPoolStats before = pool_->stats();
    auto check = [&](ConstBytes page) {
      EXPECT_EQ(pool_->stats().hits - before.hits, hit ? 1u : 0u) << pid;
      EXPECT_EQ(pool_->stats().misses - before.misses, hit ? 0u : 1u) << pid;
      EXPECT_EQ(page[off], content_[pid]) << pid;
      if (depth < 2 && rng_.Bernoulli(0.3)) {
        Access(depth + 1, rng_.Bernoulli(0.5));
      }
    };
    Status st;
    if (write) {
      st = pool_->WithPage(pid, [&](MutBytes page) {
        check(page);
        page[off] = ++content_[pid];  // always a change
        return Status::OK();
      });
    } else {
      st = pool_->ReadPage(pid, [&](ConstBytes page) {
        check(page);
        return Status::OK();
      });
    }
    model_.Unpin(pid, write);
    EXPECT_TRUE(st.ok()) << st.ToString();
  }

  BufferPool* pool_;
  RecordingStore* rec_;
  PoolModel model_;
  uint32_t pages_;
  Random rng_;
  std::vector<uint8_t> content_;  ///< Expected byte at pid % 128.
};

TEST_F(BufferPoolTest, MatchesReferenceLruModel) {
  RecordingStore rec(&store_);
  rec.StartRecording();
  constexpr uint32_t kFrames = 6;
  BufferPool pool(&rec, kFrames);
  ModelRun run(&pool, &rec, kFrames, /*pages=*/24, TestSeed(0xB0FF));
  for (int i = 0; i < 3000; ++i) {
    ASSERT_NO_FATAL_FAILURE(run.Step()) << "step " << i;
    if (HasFailure()) FAIL() << "step " << i;
  }
  EXPECT_GT(pool.stats().evictions, 100u);
  EXPECT_GT(pool.stats().hits, 400u);
}

}  // namespace
}  // namespace flashdb::storage
