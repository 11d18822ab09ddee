#include "storage/buffer_pool.h"

#include <algorithm>
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

Result<uint32_t> BufferPool::Evict() {
  for (auto it = lru_.begin(); it != lru_.end(); ++it) {
    Frame& f = frames_[*it];
    if (f.pins != 0) continue;
    const uint32_t idx = *it;
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
    lru_.erase(it);
    f.in_lru = false;
    table_.erase(f.pid);
    stats_.evictions++;
    return idx;
  }
  return Status::Busy("all buffer frames are pinned");
}

Result<uint32_t> BufferPool::Pin(PageId pid) {
  auto it = table_.find(pid);
  if (it != table_.end()) {
    stats_.hits++;
    Frame& f = frames_[it->second];
    if (f.in_lru) {
      lru_.erase(f.lru_pos);
      f.in_lru = false;
    }
    f.pins++;
    return it->second;
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
  f.in_lru = false;
  table_[pid] = idx;
  return idx;
}

void BufferPool::Unpin(uint32_t frame_idx) {
  Frame& f = frames_[frame_idx];
  if (f.pins > 0) f.pins--;
  if (f.pins == 0 && !f.in_lru) {
    lru_.push_back(frame_idx);
    f.lru_pos = std::prev(lru_.end());
    f.in_lru = true;
  }
}

Status BufferPool::ReadPage(PageId pid,
                            const std::function<Status(ConstBytes)>& fn) {
  ConfinementScope confined(this);
  FLASHDB_ASSIGN_OR_RETURN(uint32_t idx, Pin(pid));
  Status st = fn(frames_[idx].data);
  Unpin(idx);
  return st;
}

Status BufferPool::WithPage(PageId pid,
                            const std::function<Status(MutBytes)>& fn) {
  ConfinementScope confined(this);
  FLASHDB_ASSIGN_OR_RETURN(uint32_t idx, Pin(pid));
  Frame& f = frames_[idx];
  // Per-depth snapshot: `fn` may reenter WithPage (a B-tree split mutates the
  // new right sibling while the parent call's frame is mid-mutation), and the
  // nested call must not overwrite this call's pre-image. Index the scratch
  // list afresh after `fn` returns -- a nested call may have grown it and
  // moved the buffers.
  const size_t snap_idx = depth_ - 1;
  if (snapshots_.size() <= snap_idx) snapshots_.resize(snap_idx + 1);
  if (snapshots_[snap_idx].size() != data_size_) {
    snapshots_[snap_idx].resize(data_size_);
  }
  std::memcpy(snapshots_[snap_idx].data(), f.data.data(), data_size_);
  Status st = fn(f.data);
  const ByteBuffer& snapshot = snapshots_[snap_idx];
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
    UpdateLog log;
    log.offset = static_cast<uint32_t>(lo);
    log.data.assign(f.data.begin() + lo, f.data.begin() + hi);
    st = store_->OnUpdate(pid, f.data, log);
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
  auto it = table_.find(pid);
  if (it == table_.end()) return Status::OK();
  Frame& f = frames_[it->second];
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
  std::vector<PageWrite> writes;
  for (uint32_t i : dirty_frames_) {
    const Frame& f = frames_[i];
    if (!f.dirty) continue;
    if (f.pins != 0) {
      return Status::Busy("dirty frame pinned during FlushAll");
    }
    writes.push_back(PageWrite{f.pid, ConstBytes(f.data.data(), data_size_)});
  }
  if (!writes.empty()) {
    FLASHDB_RETURN_IF_ERROR(store_->WriteBatch(writes));
    stats_.dirty_writebacks += writes.size();
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
  lru_.clear();
  free_frames_.clear();
  for (uint32_t i = 0; i < num_frames_; ++i) {
    frames_[i].dirty = false;
    frames_[i].in_lru = false;
    free_frames_.push_back(num_frames_ - 1 - i);
  }
  return Status::OK();
}

}  // namespace flashdb::storage
