#include "storage/buffer_pool.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "flash/flash_device.h"
#include "obs/trace_recorder.h"

namespace flashdb::storage {

BufferPool::ConfinementScope::ConfinementScope(BufferPool* pool)
    : pool_(pool) {
  const std::thread::id self = std::this_thread::get_id();
  std::thread::id expected{};
  if (!pool_->owner_.compare_exchange_strong(expected, self,
                                             std::memory_order_acquire) &&
      expected != self) {
    std::fprintf(stderr,
                 "BufferPool: concurrent access from two threads -- the pool "
                 "is thread-confined (drive each shard's pool from its own "
                 "ShardExecutor worker)\n");
    std::abort();
  }
  pool_->depth_++;
}

BufferPool::ConfinementScope::~ConfinementScope() {
  if (--pool_->depth_ == 0) {
    pool_->owner_.store(std::thread::id{}, std::memory_order_release);
  }
}

BufferPool::BufferPool(PageStore* store, uint32_t num_frames)
    : store_(store),
      num_frames_(num_frames == 0 ? 1 : num_frames),
      data_size_(store->device()->geometry().data_size) {
  frames_.resize(num_frames_);
  for (uint32_t i = 0; i < num_frames_; ++i) {
    frames_[i].data.resize(data_size_);
    free_frames_.push_back(num_frames_ - 1 - i);
  }
}

void BufferPool::LruRemove(uint32_t idx) {
  Frame& f = frames_[idx];
  if (f.lru_prev == kNoFrame) {
    lru_head_ = f.lru_next;
  } else {
    frames_[f.lru_prev].lru_next = f.lru_next;
  }
  if (f.lru_next == kNoFrame) {
    lru_tail_ = f.lru_prev;
  } else {
    frames_[f.lru_next].lru_prev = f.lru_prev;
  }
  f.lru_prev = f.lru_next = kNoFrame;
  f.in_lru = false;
}

Result<uint32_t> BufferPool::Evict() {
  // The LRU list holds exactly the unpinned frames: Pin unlinks a frame, and
  // Unpin relinks it only once its last pin is gone.
  if (lru_head_ == kNoFrame) {
    return Status::Busy("all buffer frames are pinned");
  }
  const uint32_t idx = lru_head_;
  Frame& f = frames_[idx];
  assert(f.pins == 0);
  flash::FlashDevice* dev = store_->device();
  const bool was_dirty = f.dirty;
  const uint64_t start = dev->clock().now_us();
  if (f.dirty) {
    FLASHDB_RETURN_IF_ERROR(store_->WriteBack(f.pid, f.data));
    stats_.dirty_writebacks++;
    f.dirty = false;
  }
  if (dev->trace() != nullptr) {
    dev->trace()->Emit(obs::TraceCat::kBufEvict, start,
                       dev->clock().now_us() - start, f.pid,
                       was_dirty ? 1 : 0);
  }
  LruRemove(idx);
  table_[f.pid] = kNoFrame;
  stats_.evictions++;
  return idx;
}

Result<uint32_t> BufferPool::Pin(PageId pid) {
  if (const uint32_t idx = FrameOf(pid); idx != kNoFrame) {
    stats_.hits++;
    Frame& f = frames_[idx];
    if (f.in_lru) LruRemove(idx);
    f.pins++;
    return idx;
  }
  stats_.misses++;
  uint32_t idx;
  if (!free_frames_.empty()) {
    idx = free_frames_.back();
    free_frames_.pop_back();
  } else {
    FLASHDB_ASSIGN_OR_RETURN(idx, Evict());
  }
  Frame& f = frames_[idx];
  flash::FlashDevice* dev = store_->device();
  const uint64_t start = dev->clock().now_us();
  if (Status st = store_->ReadPage(pid, f.data); !st.ok()) {
    // Return the frame before propagating (a corrupt or failed read must not
    // leak the frame, or the pool shrinks to a permanent Busy).
    free_frames_.push_back(idx);
    return st;
  }
  if (dev->trace() != nullptr) {
    dev->trace()->Emit(obs::TraceCat::kBufMiss, start,
                       dev->clock().now_us() - start, pid);
  }
  f.pid = pid;
  f.dirty = false;
  f.pins = 1;
  // The store accepted pid, so it is below the store's page count.
  if (pid >= table_.size()) table_.resize(pid + 1, kNoFrame);
  table_[pid] = idx;
  return idx;
}

void BufferPool::Unpin(uint32_t frame_idx) {
  Frame& f = frames_[frame_idx];
  if (f.pins > 0) f.pins--;
  if (f.pins == 0 && !f.in_lru) {
    // Link at the tail: the most recently used end.
    f.lru_prev = lru_tail_;
    f.lru_next = kNoFrame;
    if (lru_tail_ == kNoFrame) {
      lru_head_ = frame_idx;
    } else {
      frames_[lru_tail_].lru_next = frame_idx;
    }
    lru_tail_ = frame_idx;
    f.in_lru = true;
  }
}

Status BufferPool::ReadPage(PageId pid, FunctionRef<Status(ConstBytes)> fn) {
  ConfinementScope confined(this);
  FLASHDB_ASSIGN_OR_RETURN(uint32_t idx, Pin(pid));
  Status st = fn(frames_[idx].data);
  Unpin(idx);
  return st;
}

Status BufferPool::WithPage(PageId pid, FunctionRef<Status(MutBytes)> fn) {
  ConfinementScope confined(this);
  FLASHDB_ASSIGN_OR_RETURN(uint32_t idx, Pin(pid));
  Frame& f = frames_[idx];
  // Per-depth snapshot: `fn` may reenter WithPage (a B-tree split mutates the
  // new right sibling while the parent call's frame is mid-mutation), and the
  // nested call must not overwrite this call's pre-image. Index the scratch
  // list afresh after `fn` returns -- a nested call may have grown it and
  // moved the buffers.
  const size_t depth_idx = depth_ - 1;
  if (scratch_.size() <= depth_idx) scratch_.resize(depth_idx + 1);
  if (scratch_[depth_idx].snapshot.size() != data_size_) {
    scratch_[depth_idx].snapshot.resize(data_size_);
  }
  std::memcpy(scratch_[depth_idx].snapshot.data(), f.data.data(), data_size_);
  Status st = fn(f.data);
  Scratch& scratch = scratch_[depth_idx];
  const ByteBuffer& snapshot = scratch.snapshot;
  if (!st.ok()) {
    // Roll the frame back so a failed mutation leaves no trace.
    std::memcpy(f.data.data(), snapshot.data(), data_size_);
    Unpin(idx);
    return st;
  }
  // Minimal changed range -> update log for tightly-coupled methods.
  const size_t lo = FirstMismatch(snapshot, f.data);
  if (lo < data_size_) {
    const size_t hi = LastMismatch(snapshot, f.data);
    scratch.log.offset = static_cast<uint32_t>(lo);
    scratch.log.data.assign(f.data.begin() + lo, f.data.begin() + hi);
    st = store_->OnUpdate(pid, f.data, scratch.log);
    f.dirty = true;
    if (!f.listed) {
      f.listed = true;
      dirty_frames_.push_back(idx);
    }
  }
  Unpin(idx);
  return st;
}

Status BufferPool::FlushPage(PageId pid) {
  ConfinementScope confined(this);
  const uint32_t idx = FrameOf(pid);
  if (idx == kNoFrame) return Status::OK();
  Frame& f = frames_[idx];
  if (f.dirty) {
    FLASHDB_RETURN_IF_ERROR(store_->WriteBack(f.pid, f.data));
    stats_.dirty_writebacks++;
    f.dirty = false;
  }
  return Status::OK();
}

Status BufferPool::FlushAll() {
  ConfinementScope confined(this);
  // Collect the dirty frames in frame-index order, so the batch is
  // deterministic, then hand the store one WriteBatch, which rejects a
  // malformed entry before writing any. A listed frame that an eviction or
  // FlushPage wrote back since is clean and skipped.
  std::sort(dirty_frames_.begin(), dirty_frames_.end());
  writes_.clear();
  for (uint32_t i : dirty_frames_) {
    const Frame& f = frames_[i];
    if (!f.dirty) continue;
    if (f.pins != 0) {
      return Status::Busy("dirty frame pinned during FlushAll");
    }
    writes_.push_back(PageWrite{f.pid, ConstBytes(f.data.data(), data_size_)});
  }
  if (!writes_.empty()) {
    FLASHDB_RETURN_IF_ERROR(store_->WriteBatch(writes_));
    stats_.dirty_writebacks += writes_.size();
  }
  for (uint32_t i : dirty_frames_) {
    frames_[i].dirty = false;
    frames_[i].listed = false;
  }
  dirty_frames_.clear();
  return store_->Flush();
}

Status BufferPool::Reset() {
  ConfinementScope confined(this);
  for (Frame& f : frames_) {
    if (f.pins != 0) return Status::Busy("frame pinned during Reset");
  }
  FLASHDB_RETURN_IF_ERROR(FlushAll());
  table_.clear();
  lru_head_ = lru_tail_ = kNoFrame;
  free_frames_.clear();
  for (uint32_t i = 0; i < num_frames_; ++i) {
    Frame& f = frames_[i];
    f.dirty = false;
    f.in_lru = false;
    f.lru_prev = f.lru_next = kNoFrame;
    free_frames_.push_back(num_frames_ - 1 - i);
  }
  return Status::OK();
}

}  // namespace flashdb::storage
