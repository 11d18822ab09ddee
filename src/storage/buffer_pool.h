// DBMS buffer manager over a PageStore (Exp. 7 substrate).
//
// Fixed number of frames, LRU replacement, pin counting, dirty tracking.
// Mutations go through WithPage(), which snapshots the frame, lets the caller
// mutate it, and then reports the minimal changed byte range to the store via
// OnUpdate -- this is the "storage management module" hook that tightly-
// coupled methods (IPL) require, and that loosely-coupled methods ignore.
// Dirty pages are reflected into flash with WriteBack when evicted, and in
// one WriteBatch when flushed, exactly like a disk-based DBMS swapping pages
// out of its buffer.
//
// A page access allocates nothing once the pool is warm: the LRU list is
// intrusive (frame indices linked through the frames), the page table is a
// vector indexed by pid (a store's pids are dense below its page count),
// callbacks are FunctionRefs, and the WithPage and FlushAll scratch is
// reused across calls.

#ifndef FLASHDB_STORAGE_BUFFER_POOL_H_
#define FLASHDB_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/function_ref.h"
#include "common/result.h"
#include "ftl/page_store.h"

namespace flashdb::storage {

/// Buffer pool statistics.
struct BufferPoolStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t dirty_writebacks = 0;

  double hit_rate() const {
    const uint64_t t = hits + misses;
    return t == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(t);
  }
};

/// See file comment.
///
/// Thread-confined, like FlashDevice one layer down: any single thread may
/// drive the pool (ownership hands off whenever the pool is quiescent), but
/// two threads inside it at once abort the process. Same-thread reentrancy
/// (B-tree splits nest WithPage; scans nest reads) is fine. In the sharded
/// OLTP layer each shard's pool is driven only by that shard's
/// ShardExecutor worker, which satisfies this by construction.
class BufferPool {
 public:
  BufferPool(PageStore* store, uint32_t num_frames);

  /// Runs `fn` with read access to page `pid` (pinned for the duration).
  Status ReadPage(PageId pid, FunctionRef<Status(ConstBytes)> fn);

  /// Runs `fn` with write access to page `pid`. After `fn` returns OK the
  /// minimal changed byte range is reported to the store (OnUpdate) and the
  /// frame is marked dirty.
  Status WithPage(PageId pid, FunctionRef<Status(MutBytes)> fn);

  /// Writes back every dirty frame in one store WriteBatch and flushes the
  /// store. Returns Busy -- with
  /// nothing written -- if any dirty frame is still pinned: silently keeping
  /// a pinned page out of the batch would tear the write-through contract.
  Status FlushAll();

  /// Writes back `pid` if dirty (stays cached).
  Status FlushPage(PageId pid);

  /// Drops every frame (must all be unpinned); dirty frames are written back.
  Status Reset();

  const BufferPoolStats& stats() const { return stats_; }
  uint32_t num_frames() const { return num_frames_; }
  PageStore* store() { return store_; }

  /// Wear distribution of the underlying flash (pass-through to the store):
  /// lets a DBMS surface device-lifetime telemetry without reaching around
  /// the buffer manager.
  flash::WearSummary device_wear() { return store_->wear(); }

 private:
  /// Marks an empty page-table slot and the ends of the LRU list.
  static constexpr uint32_t kNoFrame = 0xFFFFFFFFu;

  struct Frame {
    PageId pid = 0;
    bool dirty = false;
    bool listed = false;  ///< In dirty_frames_.
    bool in_lru = false;  ///< Linked into the LRU list (when pins == 0).
    uint32_t pins = 0;
    uint32_t lru_prev = kNoFrame;  ///< Next less recently used frame.
    uint32_t lru_next = kNoFrame;  ///< Next more recently used frame.
    ByteBuffer data;
  };

  /// WithPage's scratch at one reentrancy depth.
  struct Scratch {
    ByteBuffer snapshot;  ///< The frame's pre-image.
    UpdateLog log;        ///< The changed range reported to OnUpdate.
  };

  /// RAII confinement guard taken by every public entry point: first entry
  /// claims the pool for the calling thread, nested entries on that thread
  /// just deepen, and the claim releases when the outermost entry exits. A
  /// second thread entering while claimed aborts (same contract and failure
  /// mode as FlashDevice's per-chip guard).
  class ConfinementScope {
   public:
    explicit ConfinementScope(BufferPool* pool);
    ~ConfinementScope();
    ConfinementScope(const ConfinementScope&) = delete;
    ConfinementScope& operator=(const ConfinementScope&) = delete;

   private:
    BufferPool* pool_;
  };

  /// Returns the frame index holding pid, faulting it in as needed; pins it.
  Result<uint32_t> Pin(PageId pid);
  void Unpin(uint32_t frame_idx);
  /// Evicts the least recently used unpinned frame (the LRU list's head),
  /// writing it back when dirty; Busy when every frame is pinned.
  Result<uint32_t> Evict();
  /// Unlinks frame `idx` from the LRU list.
  void LruRemove(uint32_t idx);
  /// Frame index holding `pid`, or kNoFrame.
  uint32_t FrameOf(PageId pid) const {
    return pid < table_.size() ? table_[pid] : kNoFrame;
  }

  PageStore* store_;
  uint32_t num_frames_;
  uint32_t data_size_;
  std::vector<Frame> frames_;
  std::vector<uint32_t> free_frames_;
  /// pid -> frame index (kNoFrame when not cached). Grows only to pids the
  /// store has read, so an out-of-range pid cannot size it.
  std::vector<uint32_t> table_;
  uint32_t lru_head_ = kNoFrame;  ///< Least recently used unpinned frame.
  uint32_t lru_tail_ = kNoFrame;  ///< Most recently used unpinned frame.
  /// Frames dirtied since the last successful FlushAll, each listed once
  /// (Frame::listed), so FlushAll visits these instead of every frame.
  std::vector<uint32_t> dirty_frames_;
  /// FlushAll's batch, reused across calls.
  std::vector<PageWrite> writes_;
  BufferPoolStats stats_;
  /// WithPage scratch, one per reentrancy depth: a nested WithPage (B-tree
  /// split) must not clobber the outer call's snapshot.
  std::vector<Scratch> scratch_;
  std::atomic<std::thread::id> owner_{};  ///< Claiming thread; empty if none.
  uint32_t depth_ = 0;  ///< Reentrancy depth; touched only by the owner.
};

}  // namespace flashdb::storage

#endif  // FLASHDB_STORAGE_BUFFER_POOL_H_
