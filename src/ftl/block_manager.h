// Page-granular free-space and block-lifecycle management shared by the
// out-place methods (OPU and PDL).
//
// The manager keeps an in-RAM mirror of every physical page's state
// (free / valid / obsolete), allocates pages sequentially within an "open"
// block (NAND programming order), and performs the obsolete-marking spare
// program on behalf of callers. A reserve of free blocks guarantees garbage
// collection can always relocate a victim's valid pages. Victim selection
// lives in ftl/gc_policy.h, which reads the per-block occupancy this manager
// exposes.
//
// Plane striping: on multi-plane chips each allocation stream keeps one open
// block *per plane* and hands out pages round-robin across the planes, so a
// stream of consecutive programs fans over every plane (the device overlaps
// them in virtual time). Free blocks are tracked per plane; a plane whose
// free list runs dry is routed around deterministically. On the default
// 1-plane geometry the striping collapses to the historical single open
// block per stream, bit for bit.
//
// Bad blocks: blocks marked bad -- factory-marked in the OOB or grown when
// an erase fails mid-workload -- are excluded from the free lists, from
// allocation, and from GC victim selection. Growing a bad block programs the
// OOB mark so the exclusion is rediscoverable by recovery scans.

#ifndef FLASHDB_FTL_BLOCK_MANAGER_H_
#define FLASHDB_FTL_BLOCK_MANAGER_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "flash/flash_device.h"

namespace flashdb::ftl {

/// In-RAM view of a physical page's lifecycle.
enum class PageState : uint8_t {
  kFree = 0,     ///< Erased, available for programming.
  kValid = 1,    ///< Holds live data.
  kObsolete = 2, ///< Holds dead data; reclaimable by erasing the block.
};

/// See file comment.
class BlockManager {
 public:
  /// `num_streams` is the number of allocation streams (see AllocatePage):
  /// callers may segregate page kinds (e.g. PDL base pages vs differential
  /// pages) into different open blocks so blocks stay homogeneous and
  /// garbage-collection victims carry less cold data.
  ///
  /// The GC reserve, the free blocks withheld from normal allocation so
  /// garbage collection can always relocate a victim's live data, is
  /// streams x planes + 2: each stream keeps one open block per plane, and
  /// one GC round may open a fresh block on each of them. Tiny chips clamp
  /// the one-plane share (block_manager.cc states the rule).
  explicit BlockManager(flash::FlashDevice* dev, uint32_t num_streams = 1);

  /// Resets all state to "everything free" without touching the device.
  /// Call after formatting (the caller erases blocks itself if needed).
  /// Bad-block marks are cleared too; re-apply them (MarkBadForRecovery)
  /// after a format-time OOB scan.
  void Reset();

  uint32_t num_streams() const { return num_streams_; }

  /// Allocates the next physical page of `stream`. Pages come from the
  /// stream's open block of the current plane in ascending order, rotating
  /// planes between allocations; a fresh block is opened from the plane's
  /// free list when needed, routing around exhausted planes. With
  /// for_gc=false, fails with NoSpace once only the reserve is left (caller
  /// should then run garbage collection and retry). With for_gc=true the
  /// reserve may be consumed.
  Result<flash::PhysAddr> AllocatePage(bool for_gc, uint32_t stream = 0);

  /// Marks a page valid (used when replaying state during recovery).
  void SetValidForRecovery(flash::PhysAddr addr);
  /// Marks a page obsolete in RAM only (recovery replay; no device write).
  void SetObsoleteForRecovery(flash::PhysAddr addr);
  /// Recovery replay of a page found dead: programs the obsolete mark into
  /// its spare area (one write op), then SetObsoleteForRecovery.
  Status MarkObsoleteForRecovery(flash::PhysAddr addr);
  /// Marks a block bad in RAM only: removed from its plane's free list (if
  /// there) and never allocated or picked as a GC victim again. Used when a
  /// recovery scan or the format-time OOB scan finds the bad-block mark, and
  /// when a journal snapshot replays a persisted bad-block list. Idempotent.
  void MarkBadForRecovery(uint32_t block);
  /// Recomputes block occupancy after recovery replay. Partially-programmed
  /// blocks are treated as closed; their unprogrammed pages are reclaimed
  /// only when the block is erased. Bad blocks never re-enter free lists.
  void FinalizeRecovery();

  /// Programs the obsolete mark into the page's spare area (one write op)
  /// and transitions the RAM state. No-op with an error if already free.
  Status MarkObsolete(flash::PhysAddr addr);

  /// True when a normal allocation from `stream` would fail and GC should
  /// run (every open block of the stream is exhausted and only the reserve
  /// is left).
  bool LowOnSpace(uint32_t stream = 0) const;

  /// Erases `block` on the device and returns it to its plane's free list.
  /// All its pages must already be obsolete or relocated by the caller.
  /// When the device reports an erase failure (grown bad block), the block
  /// is marked bad -- OOB mark programmed, excluded from future allocation
  /// and GC -- and OK is returned: capacity shrank but the store continues.
  Status EraseAndFree(uint32_t block);

  /// Erases a victim group (see ftl::PickVictimGroup) with one multi-plane
  /// command when the group spans several planes of one die, falling back to
  /// per-block erases -- which isolate any grown bad block -- when the
  /// multi-plane command fails or the group is a single block.
  Status EraseAndFreeGroup(const std::vector<uint32_t>& blocks);

  /// Stops filling every open block, making them eligible as GC victims.
  /// Their unprogrammed tails (if any) are reclaimed when erased. Used when
  /// the open blocks hold the only reclaimable space left.
  void CloseOpenBlocks() {
    for (auto& b : open_block_) b = -1;
  }

  // --- Occupancy views read by GC victim selection (ftl/gc_policy.h) -----
  PageState state(flash::PhysAddr addr) const { return page_state_[addr]; }
  uint32_t num_blocks() const {
    return static_cast<uint32_t>(block_programmed_.size());
  }
  /// Obsolete-page count of `block`.
  uint32_t block_obsolete(uint32_t block) const {
    return block_obsolete_[block];
  }
  /// Allocated-page count of `block` (0 = free block).
  uint32_t block_programmed(uint32_t block) const {
    return block_programmed_[block];
  }
  /// True when `block` is some stream's open block (never a legal victim).
  bool IsOpenBlock(uint32_t block) const {
    for (int64_t ob : open_block_) {
      if (ob == static_cast<int64_t>(block)) return true;
    }
    return false;
  }
  /// True when `block` is marked bad (factory or grown).
  bool is_bad_block(uint32_t block) const { return bad_block_[block] != 0; }
  /// Sorted list of bad blocks (persisted by the sharded store's journal).
  std::vector<uint32_t> bad_blocks() const;
  /// Count of bad blocks (diagnostics).
  uint32_t num_bad_blocks() const { return num_bad_blocks_; }
  /// Plane of `block` on the underlying device.
  uint32_t plane_of_block(uint32_t block) const {
    return dev_->geometry().plane_of_block(block);
  }
  /// Planes per die of the underlying device (multi-plane command width).
  uint32_t planes_per_die() const { return dev_->geometry().planes_per_die; }
  /// Linear address of page `page` in block `block`.
  flash::PhysAddr AddrOf(uint32_t block, uint32_t page) const {
    return dev_->AddrOf(block, page);
  }

  uint32_t free_blocks() const { return num_free_blocks_; }
  /// Free blocks withheld for garbage collection (see the constructor).
  uint32_t gc_reserve_blocks() const { return gc_reserve_blocks_; }

  /// Number of pages in state kValid (diagnostics / tests).
  uint64_t CountValidPages() const;

  /// Pages per block of the underlying device.
  uint32_t pages_per_block() const { return pages_per_block_; }
  /// Data bytes per page of the underlying device.
  uint32_t data_size() const { return dev_->geometry().data_size; }

  /// Total pages the store may fill before GC stops reclaiming anything:
  /// capacity minus the GC reserve and any bad blocks. Format refuses a
  /// database that does not leave one of them free.
  uint64_t usable_pages() const;

 private:
  Status OpenNewBlock(bool for_gc, uint32_t stream, uint32_t plane);
  /// Returns the erased block to its plane's free list and clears occupancy.
  void FreeErasedBlock(uint32_t block);
  /// Transitions a block whose erase failed into the bad set: OOB mark,
  /// exclusion from free lists / allocation / GC.
  Status MarkGrownBad(uint32_t block);
  /// open_block_/next_page_ slot of (stream, plane).
  size_t Slot(uint32_t stream, uint32_t plane) const {
    return static_cast<size_t>(stream) * num_planes_ + plane;
  }

  flash::FlashDevice* dev_;
  uint32_t pages_per_block_;
  uint32_t num_streams_;
  uint32_t num_planes_;
  uint32_t gc_reserve_blocks_;
  std::vector<PageState> page_state_;
  std::vector<uint32_t> block_obsolete_;  ///< Obsolete-page count per block.
  std::vector<uint32_t> block_programmed_;///< Allocated-page count per block.
  /// Free blocks of each plane, FIFO. num_free_blocks_ caches the total.
  std::vector<std::deque<uint32_t>> free_by_plane_;
  uint32_t num_free_blocks_ = 0;
  /// Block currently being filled per (stream, plane) slot (-1 = none).
  std::vector<int64_t> open_block_;
  /// Next page index within the open block per (stream, plane) slot.
  std::vector<uint32_t> next_page_;
  /// Plane to try first for the next allocation, per stream (round-robin).
  std::vector<uint32_t> plane_cursor_;
  std::vector<uint8_t> bad_block_;        ///< 1 = excluded from service.
  uint32_t num_bad_blocks_ = 0;
};

/// Reads page 0's spare of every data block (charged reads) and returns the
/// blocks carrying the bad-block OOB mark, ascending. Used by stores at
/// Format time when FlashConfig::scan_bad_blocks is set; recovery gets the
/// same information for free from its full spare scan.
Result<std::vector<uint32_t>> ScanFactoryBadBlocks(flash::FlashDevice* dev);

}  // namespace flashdb::ftl

#endif  // FLASHDB_FTL_BLOCK_MANAGER_H_
