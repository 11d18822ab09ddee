#include "ftl/block_manager.h"

#include <algorithm>
#include <string>

#include "ftl/spare_codec.h"

namespace flashdb::ftl {

namespace {

/// The GC reserve. Each stream keeps one open block per plane, and one GC
/// round may open a fresh block on each of them: streams x planes blocks,
/// plus 2 for a round whose relocated data spills past its fresh block.
/// Tiny chips cannot afford the one-plane share, streams + 2: it is clamped
/// to max(2, data blocks / 8) so they stay usable (GC's transient demand
/// shrinks with the lighter workloads such chips carry). The other planes'
/// share, streams x (planes - 1), is never clamped: a round opens those
/// blocks whatever the chip size.
uint32_t GcReserveBlocks(const flash::FlashGeometry& g, uint32_t streams) {
  const uint32_t one_plane =
      std::min(streams + 2, std::max(2u, g.num_data_blocks() / 8));
  return one_plane + streams * (g.planes_per_chip() - 1);
}

}  // namespace

BlockManager::BlockManager(flash::FlashDevice* dev, uint32_t num_streams)
    : dev_(dev),
      pages_per_block_(dev->geometry().pages_per_block),
      num_streams_(num_streams == 0 ? 1 : num_streams),
      num_planes_(dev->geometry().planes_per_chip()),
      gc_reserve_blocks_(GcReserveBlocks(dev->geometry(), num_streams_)) {
  open_block_.assign(static_cast<size_t>(num_streams_) * num_planes_, -1);
  next_page_.assign(static_cast<size_t>(num_streams_) * num_planes_, 0);
  plane_cursor_.assign(num_streams_, 0);
  Reset();
}

void BlockManager::Reset() {
  const auto& g = dev_->geometry();
  page_state_.assign(g.total_pages(), PageState::kFree);
  block_obsolete_.assign(g.num_blocks, 0);
  block_programmed_.assign(g.num_blocks, 0);
  free_by_plane_.assign(num_planes_, {});
  num_free_blocks_ = 0;
  // Only the data region is allocatable: the trailing meta_blocks (if any)
  // belong to the durable-metadata journal and must never be handed to the
  // page-update method or erased by GC. Ascending block order per plane, so
  // the 1-plane layout matches the historical single free list exactly.
  for (uint32_t b = 0; b < g.num_data_blocks(); ++b) {
    free_by_plane_[g.plane_of_block(b)].push_back(b);
    ++num_free_blocks_;
  }
  std::fill(open_block_.begin(), open_block_.end(), -1);
  std::fill(next_page_.begin(), next_page_.end(), 0);
  std::fill(plane_cursor_.begin(), plane_cursor_.end(), 0);
  bad_block_.assign(g.num_blocks, 0);
  num_bad_blocks_ = 0;
}

Status BlockManager::OpenNewBlock(bool for_gc, uint32_t stream,
                                  uint32_t plane) {
  const uint32_t reserve = for_gc ? 0 : gc_reserve_blocks_;
  if (num_free_blocks_ <= reserve) {
    return Status::NoSpace("free blocks (" + std::to_string(num_free_blocks_) +
                           ") at or below reserve (" + std::to_string(reserve) +
                           ")");
  }
  auto& fl = free_by_plane_[plane];
  if (fl.empty()) {
    // Other planes still have blocks; the caller routes around this plane.
    return Status::NoSpace("plane " + std::to_string(plane) +
                           " has no free blocks");
  }
  const size_t slot = Slot(stream, plane);
  open_block_[slot] = fl.front();
  fl.pop_front();
  --num_free_blocks_;
  next_page_[slot] = 0;
  return Status::OK();
}

Result<flash::PhysAddr> BlockManager::AllocatePage(bool for_gc,
                                                   uint32_t stream) {
  if (stream >= num_streams_) {
    return Status::InvalidArgument("bad allocation stream");
  }
  for (uint32_t attempt = 0; attempt < num_planes_; ++attempt) {
    const uint32_t plane = (plane_cursor_[stream] + attempt) % num_planes_;
    const size_t slot = Slot(stream, plane);
    if (open_block_[slot] < 0 || next_page_[slot] >= pages_per_block_) {
      if (!OpenNewBlock(for_gc, stream, plane).ok()) continue;
    }
    const uint32_t block = static_cast<uint32_t>(open_block_[slot]);
    const flash::PhysAddr addr = dev_->AddrOf(block, next_page_[slot]);
    ++next_page_[slot];
    page_state_[addr] = PageState::kValid;
    block_programmed_[block]++;
    plane_cursor_[stream] = (plane + 1) % num_planes_;
    return addr;
  }
  const uint32_t reserve = for_gc ? 0 : gc_reserve_blocks_;
  return Status::NoSpace("free blocks (" + std::to_string(num_free_blocks_) +
                         ") at or below reserve (" + std::to_string(reserve) +
                         ")");
}

void BlockManager::SetValidForRecovery(flash::PhysAddr addr) {
  page_state_[addr] = PageState::kValid;
}

void BlockManager::SetObsoleteForRecovery(flash::PhysAddr addr) {
  page_state_[addr] = PageState::kObsolete;
}

Status BlockManager::MarkObsoleteForRecovery(flash::PhysAddr addr) {
  uint8_t spare[flash::FlashGeometry::spare_size];
  EncodeObsoleteMark(spare);
  FLASHDB_RETURN_IF_ERROR(dev_->ProgramSpare(addr, spare));
  SetObsoleteForRecovery(addr);
  return Status::OK();
}

void BlockManager::MarkBadForRecovery(uint32_t block) {
  if (bad_block_[block]) return;
  bad_block_[block] = 1;
  ++num_bad_blocks_;
  auto& fl = free_by_plane_[dev_->geometry().plane_of_block(block)];
  auto it = std::find(fl.begin(), fl.end(), block);
  if (it != fl.end()) {
    fl.erase(it);
    --num_free_blocks_;
  }
  // Defensive: a bad block must never be an open block.
  for (auto& ob : open_block_) {
    if (ob == static_cast<int64_t>(block)) ob = -1;
  }
}

void BlockManager::FinalizeRecovery() {
  const auto& g = dev_->geometry();
  for (auto& fl : free_by_plane_) fl.clear();
  num_free_blocks_ = 0;
  std::fill(open_block_.begin(), open_block_.end(), -1);
  std::fill(next_page_.begin(), next_page_.end(), 0);
  std::fill(plane_cursor_.begin(), plane_cursor_.end(), 0);
  for (uint32_t b = 0; b < g.num_data_blocks(); ++b) {
    uint32_t programmed = 0;
    uint32_t obsolete = 0;
    for (uint32_t p = 0; p < pages_per_block_; ++p) {
      const flash::PhysAddr addr = dev_->AddrOf(b, p);
      switch (page_state_[addr]) {
        case PageState::kFree:
          break;
        case PageState::kValid:
          ++programmed;
          break;
        case PageState::kObsolete:
          ++programmed;
          ++obsolete;
          break;
      }
    }
    block_programmed_[b] = programmed;
    block_obsolete_[b] = obsolete;
    if (bad_block_[b]) {
      // Out of service: never freed, never a victim (GC policies skip it).
      continue;
    }
    if (programmed == 0) {
      free_by_plane_[g.plane_of_block(b)].push_back(b);
      ++num_free_blocks_;
    } else if (programmed < pages_per_block_) {
      // Treat as closed: mark the unprogrammed tail unusable until erased by
      // accounting it as programmed (it is reclaimed when the block is
      // erased, and greedy victim selection still sees it as reclaimable
      // space).
      block_programmed_[b] = pages_per_block_;
    }
  }
}

Status BlockManager::MarkObsolete(flash::PhysAddr addr) {
  if (page_state_[addr] != PageState::kValid) {
    return Status::InvalidArgument("MarkObsolete on non-valid page " +
                                   std::to_string(addr));
  }
  uint8_t spare[flash::FlashGeometry::spare_size];
  EncodeObsoleteMark(spare);
  FLASHDB_RETURN_IF_ERROR(dev_->ProgramSpare(addr, spare));
  page_state_[addr] = PageState::kObsolete;
  block_obsolete_[dev_->BlockOf(addr)]++;
  return Status::OK();
}

bool BlockManager::LowOnSpace(uint32_t stream) const {
  // Replenish the reserve proactively: garbage collection itself may need to
  // open up to the full reserve of blocks mid-run, so the free count must
  // never linger below it just because an open block still has room.
  if (num_free_blocks_ < gc_reserve_blocks_) return true;
  for (uint32_t plane = 0; plane < num_planes_; ++plane) {
    const size_t slot = Slot(stream, plane);
    if (open_block_[slot] >= 0 && next_page_[slot] < pages_per_block_) {
      return false;
    }
  }
  return num_free_blocks_ <= gc_reserve_blocks_;
}

void BlockManager::FreeErasedBlock(uint32_t block) {
  for (uint32_t p = 0; p < pages_per_block_; ++p) {
    page_state_[dev_->AddrOf(block, p)] = PageState::kFree;
  }
  block_obsolete_[block] = 0;
  block_programmed_[block] = 0;
  free_by_plane_[dev_->geometry().plane_of_block(block)].push_back(block);
  ++num_free_blocks_;
}

Status BlockManager::MarkGrownBad(uint32_t block) {
  // The erase latency was already charged by the failed attempt; the mark
  // itself costs one spare program. Pages keep their (obsolete) contents,
  // so a later recovery scan sees both the old spares and the OOB mark.
  FLASHDB_RETURN_IF_ERROR(dev_->MarkBadBlockOob(block));
  if (!bad_block_[block]) {
    bad_block_[block] = 1;
    ++num_bad_blocks_;
  }
  return Status::OK();
}

Status BlockManager::EraseAndFree(uint32_t block) {
  if (IsOpenBlock(block)) {
    return Status::InvalidArgument("cannot erase an open block");
  }
  if (bad_block_[block]) {
    return Status::InvalidArgument("cannot erase bad block " +
                                   std::to_string(block));
  }
  Status st = dev_->EraseBlock(block);
  if (!st.ok()) {
    if (st.code() == StatusCode::kIOError) {
      // Grown bad block: take it out of service and keep running -- the
      // capacity loss is the device wearing out, not a store failure.
      return MarkGrownBad(block);
    }
    return st;
  }
  FreeErasedBlock(block);
  return Status::OK();
}

Status BlockManager::EraseAndFreeGroup(const std::vector<uint32_t>& blocks) {
  if (blocks.empty()) return Status::OK();
  if (blocks.size() == 1 || dev_->geometry().planes_per_die <= 1) {
    for (uint32_t b : blocks) FLASHDB_RETURN_IF_ERROR(EraseAndFree(b));
    return Status::OK();
  }
  for (uint32_t b : blocks) {
    if (IsOpenBlock(b)) {
      return Status::InvalidArgument("cannot erase an open block");
    }
    if (bad_block_[b]) {
      return Status::InvalidArgument("cannot erase bad block " +
                                     std::to_string(b));
    }
  }
  Status st = dev_->EraseBlocksMultiPlane(blocks);
  if (st.ok()) {
    for (uint32_t b : blocks) FreeErasedBlock(b);
    return Status::OK();
  }
  // The multi-plane command failed (a grown bad block poisons the whole
  // command, like real chips' per-plane status). Retry block by block: the
  // good planes get erased, the bad one is marked and taken out of service.
  for (uint32_t b : blocks) FLASHDB_RETURN_IF_ERROR(EraseAndFree(b));
  return Status::OK();
}

std::vector<uint32_t> BlockManager::bad_blocks() const {
  std::vector<uint32_t> out;
  out.reserve(num_bad_blocks_);
  for (uint32_t b = 0; b < static_cast<uint32_t>(bad_block_.size()); ++b) {
    if (bad_block_[b]) out.push_back(b);
  }
  return out;
}

uint64_t BlockManager::CountValidPages() const {
  uint64_t n = 0;
  for (PageState s : page_state_) n += (s == PageState::kValid) ? 1 : 0;
  return n;
}

uint64_t BlockManager::usable_pages() const {
  const auto& g = dev_->geometry();
  const uint64_t reserved = static_cast<uint64_t>(gc_reserve_blocks_) +
                            num_bad_blocks_;
  if (reserved >= g.num_data_blocks()) return 0;
  return (g.num_data_blocks() - reserved) * pages_per_block_;
}

Result<std::vector<uint32_t>> ScanFactoryBadBlocks(flash::FlashDevice* dev) {
  const auto& g = dev->geometry();
  std::vector<uint32_t> bad;
  ByteBuffer spare(g.spare_size);
  for (uint32_t b = 0; b < g.num_data_blocks(); ++b) {
    FLASHDB_RETURN_IF_ERROR(dev->ReadSpare(dev->AddrOf(b, 0), spare));
    if (DecodeSpare(spare).bad_block) bad.push_back(b);
  }
  return bad;
}

}  // namespace flashdb::ftl
