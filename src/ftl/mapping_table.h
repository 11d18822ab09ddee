// MappingTable: the pid -> physical-address tables of the out-place core
// (ftl/out_place_store.h) that OpuStore and PdlStore share.
//
// The table tracks, per logical page, the base (or data) page address and --
// when differential tracking is enabled -- the differential page address plus
// the bookkeeping PDL needs around it: the per-physical-page valid
// differential count (VDCT), the live differential bytes per differential
// page, and the size of each pid's last flushed differential. Per block it
// keeps the two sums GC victim scoring reads (ftl/gc_policy.h): the pages
// with VDCT > 0 and their live differential bytes, updated by every call
// that moves a page's VDCT or live bytes, so a block's score is O(1).
//
// It also owns the timestamp-arbitrated *recovery replay*: during a full-chip
// spare scan (see ForEachProgrammedSpare) the store feeds every surviving
// base page / differential record into ReplayBase / ReplayDiff, and the table
// resolves which version wins, reporting displaced pages so the store can
// mark them obsolete on flash.

#ifndef FLASHDB_FTL_MAPPING_TABLE_H_
#define FLASHDB_FTL_MAPPING_TABLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/function_ref.h"
#include "common/result.h"
#include "common/status.h"
#include "flash/flash_device.h"
#include "ftl/page_store.h"
#include "ftl/spare_codec.h"

namespace flashdb::ftl {

/// See file comment.
///
/// Thread-safety: none (plain vectors, no synchronization). The table is
/// part of a single-chip store's private state and inherits the
/// shard-confinement contract: touched only by the shard's worker thread,
/// or by the submitting thread while that worker is quiescent (see
/// flash_device.h).
///
/// Determinism: pure bookkeeping -- every mutation is a deterministic
/// function of the store's (deterministic) operation sequence, and replay
/// arbitration is by on-flash timestamps, so recovery rebuilds identical
/// tables from identical flash images.
class MappingTable {
 public:
  /// `track_diffs` enables the differential-page side tables (PDL); a plain
  /// page-level mapping (OPU) skips them. Physical page `addr` lies in block
  /// addr / pages_per_block.
  MappingTable(bool track_diffs, uint32_t pages_per_block)
      : track_diffs_(track_diffs), pages_per_block_(pages_per_block) {}

  /// Re-initializes for `num_pids` logical pages over `num_phys_pages`
  /// physical pages (everything unmapped).
  void Reset(uint32_t num_pids, uint32_t num_phys_pages);

  uint32_t num_pids() const { return static_cast<uint32_t>(base_.size()); }
  bool track_diffs() const { return track_diffs_; }

  /// Base-page (or data-page) mapping.
  flash::PhysAddr base(PageId pid) const { return base_[pid]; }
  void SetBase(PageId pid, flash::PhysAddr addr) { base_[pid] = addr; }

  /// Differential-page mapping and accounting (track_diffs only).
  flash::PhysAddr diff(PageId pid) const { return diff_[pid]; }
  uint32_t vdct(flash::PhysAddr addr) const { return vdct_[addr]; }
  uint32_t diff_live_bytes(flash::PhysAddr addr) const {
    return diff_live_bytes_[addr];
  }
  uint32_t flushed_diff_size(PageId pid) const {
    return flushed_diff_size_[pid];
  }

  /// Pages of `block` with a nonzero valid-differential count (0 without
  /// differential tracking).
  uint32_t block_diff_pages(uint32_t block) const {
    return track_diffs_ ? block_diff_pages_[block] : 0;
  }
  /// Live differential bytes on the pages of `block` (0 without
  /// differential tracking).
  uint64_t block_diff_live_bytes(uint32_t block) const {
    return track_diffs_ ? block_diff_live_bytes_[block] : 0;
  }

  /// Points pid's differential at page `dp` holding `size` encoded bytes:
  /// updates the mapping, the page's valid-differential count, its live-byte
  /// total, its block's sums and the pid's flushed size in one step.
  void AttachDiff(PageId pid, flash::PhysAddr dp, uint32_t size) {
    const uint32_t block = dp / pages_per_block_;
    diff_[pid] = dp;
    if (vdct_[dp]++ == 0) block_diff_pages_[block]++;
    diff_live_bytes_[dp] += size;
    block_diff_live_bytes_[block] += size;
    flushed_diff_size_[pid] = size;
  }

  /// Detaches pid's differential accounting (live bytes, flushed size,
  /// mapping) and returns the page it lived on, or kNullAddr when none.
  /// The page's valid-differential count is NOT decremented: the caller
  /// follows up with ReleaseDiffRef, which may require an obsolete mark.
  flash::PhysAddr DetachDiff(PageId pid) {
    const flash::PhysAddr dp = diff_[pid];
    if (dp == flash::kNullAddr) return dp;
    diff_live_bytes_[dp] -= flushed_diff_size_[pid];
    block_diff_live_bytes_[dp / pages_per_block_] -= flushed_diff_size_[pid];
    flushed_diff_size_[pid] = 0;
    diff_[pid] = flash::kNullAddr;
    return dp;
  }

  /// Decrements `dp`'s valid-differential count. Returns true when it
  /// reached zero, i.e. no live differential references the page any more
  /// and the caller should mark it obsolete (unless its block is about to be
  /// erased). Corruption on underflow.
  Result<bool> ReleaseDiffRef(flash::PhysAddr dp) {
    if (vdct_[dp] == 0) {
      return Status::Corruption("VDCT underflow at page " + std::to_string(dp));
    }
    if (--vdct_[dp] != 0) return false;
    block_diff_pages_[dp / pages_per_block_]--;
    return true;
  }

  /// Drops the per-physical-page accounting of a page whose block is being
  /// erased.
  void ForgetPhysPage(flash::PhysAddr addr) {
    if (!track_diffs_) return;
    const uint32_t block = addr / pages_per_block_;
    if (vdct_[addr] != 0) block_diff_pages_[block]--;
    block_diff_live_bytes_[block] -= diff_live_bytes_[addr];
    vdct_[addr] = 0;
    diff_live_bytes_[addr] = 0;
  }

  // --- Recovery replay -----------------------------------------------------
  // Protocol: Reset(capacity, num_phys_pages) where capacity bounds every
  // possible pid (typically the chip's page count), BeginReplay(), feed the
  // scan through ReplayBase/ReplayDiff, then EndReplay(replayed_num_pids())
  // to shrink the tables to the observed database size.

  /// Starts a replay: allocates the per-pid timestamp arbiters.
  void BeginReplay();

  struct BaseReplay {
    /// False when a newer base for this pid was already replayed; the caller
    /// marks the offered page obsolete.
    bool accepted = false;
    /// Older base displaced by this one (kNullAddr when first sighting);
    /// the caller marks it obsolete.
    flash::PhysAddr displaced_base = flash::kNullAddr;
    /// Differential page that predates the new base and lost its record for
    /// this pid; the caller releases one reference (ReleaseDiffRef).
    flash::PhysAddr stale_diff = flash::kNullAddr;
  };
  BaseReplay ReplayBase(PageId pid, flash::PhysAddr addr, uint64_t ts);

  struct DiffReplay {
    /// False when the pid's base or a differential already replayed is newer.
    bool accepted = false;
    /// Older differential page displaced by this record; the caller releases
    /// one reference (ReleaseDiffRef).
    flash::PhysAddr displaced_diff = flash::kNullAddr;
  };
  DiffReplay ReplayDiff(PageId pid, flash::PhysAddr addr, uint64_t ts,
                        uint32_t size);

  /// Number of logical pages witnessed by accepted base replays
  /// (max pid + 1, or 0 when the chip held no base page).
  uint32_t replayed_num_pids() const { return any_pid_ ? max_pid_ + 1 : 0; }

  /// Ends a replay: shrinks the pid-indexed tables to `num_pids` and frees
  /// the timestamp arbiters.
  void EndReplay(uint32_t num_pids);

 private:
  bool track_diffs_;
  uint32_t pages_per_block_;
  std::vector<flash::PhysAddr> base_;  ///< pid -> base/data page address.
  std::vector<flash::PhysAddr> diff_;  ///< pid -> differential page address.
  std::vector<uint32_t> vdct_;         ///< Per-phys-page valid-diff count.
  std::vector<uint32_t> diff_live_bytes_;  ///< Per-phys-page live diff bytes.
  std::vector<uint32_t> flushed_diff_size_;  ///< Per-pid last flushed size.
  /// Per block: pages with vdct_ > 0, and the sum of their diff_live_bytes_.
  std::vector<uint32_t> block_diff_pages_;
  std::vector<uint64_t> block_diff_live_bytes_;
  // Replay state (allocated between BeginReplay and EndReplay).
  std::vector<uint64_t> base_ts_;
  std::vector<uint64_t> diff_ts_;
  uint32_t max_pid_ = 0;
  bool any_pid_ = false;
};

/// Data-region recovery scan shared by every method that rebuilds its tables
/// from the spare areas: reads each page's spare in physical order over
/// [0, geometry().data_pages()) and calls `fn` for every *programmed* page
/// (erased pages are skipped). Reserved meta blocks are excluded -- they
/// belong to the MetaJournal, not to the store. A programmed spare that is
/// not marked obsolete and fails its CRC stops the scan with Corruption;
/// every other decode result is passed through verbatim, including the CRC
/// failures of obsolete pages -- filtering is the store's policy.
Status ForEachProgrammedSpare(
    flash::FlashDevice* dev,
    FunctionRef<Status(flash::PhysAddr, const SpareInfo&)> fn);

}  // namespace flashdb::ftl

#endif  // FLASHDB_FTL_MAPPING_TABLE_H_
