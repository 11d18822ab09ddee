// OutPlaceStore: the out-place core under OpuStore and PdlStore.
//
// Both methods keep every logical page as one *base page* written out-place
// -- into a freshly allocated physical page, never over the old copy -- under
// a page-level mapping (paper Section 3, Fig. 3). OPU stops there; PDL adds
// differential pages on top (Section 4, Figs. 7-11). This class owns what the
// two share: the chip, the BlockManager, the logical clock, the MappingTable,
// the page count, the formatted flag and the journaled bad-block list. It
// states once the steps both stores take, as protected member functions the
// stores call (the core never calls back into a store):
//   * Format: the erase sweep, factory-bad marks and the initial base pages;
//   * Recover: the prologue, the bad-block head, the dead-page rule, the
//     base-page replay and the epilogue;
//   * the scrub liveness gate;
//   * the new-base write (program a fresh page, retire the old copy, remap);
//   * GC relocation of a live base page under its original timestamp.
// Allocation, the garbage-collection loop and its victim walk stay with each
// store: OPU collects only when an allocation fails, PDL ahead of it.
//
// The dead-page rule: during recovery a page whose spare is marked obsolete
// is dead in RAM only, never marked on flash. Programs are atomic, so a
// spare that fails its CRC was misread (a read error or bit rot): when it is
// not marked obsolete, recovery stops with Corruption and the store stays
// unformatted, since the page may be the only copy of its pid and a later
// remount that reads it recovers it.

#ifndef FLASHDB_FTL_OUT_PLACE_STORE_H_
#define FLASHDB_FTL_OUT_PLACE_STORE_H_

#include <cstdint>
#include <vector>

#include "common/function_ref.h"
#include "ftl/block_manager.h"
#include "ftl/logical_clock.h"
#include "ftl/mapping_table.h"
#include "ftl/page_store.h"
#include "ftl/spare_codec.h"

namespace flashdb::ftl {

/// See file comment.
class OutPlaceStore : public PageStore {
 public:
  uint32_t num_logical_pages() const override { return num_pages_; }
  std::vector<uint32_t> bad_blocks() const override {
    return bm_.bad_blocks();
  }
  void NoteBadBlocksForRecovery(const std::vector<uint32_t>& blocks) override {
    pending_bad_ = blocks;
  }
  flash::FlashDevice* device() override { return dev_; }

  /// Physical location of pid's base page (tests / diagnostics).
  flash::PhysAddr base_addr(PageId pid) const { return map_.base(pid); }
  /// Garbage-collection rounds run so far.
  uint64_t gc_runs() const { return gc_runs_; }

 protected:
  /// Allocation stream of base pages.
  static constexpr uint32_t kBaseStream = 0;

  /// Base pages carry spare type `base_type`. The BlockManager runs
  /// `num_streams` allocation streams and sizes its GC reserve from them;
  /// `track_diffs` enables the MappingTable's differential tables.
  OutPlaceStore(flash::FlashDevice* dev, PageType base_type,
                uint32_t num_streams, bool track_diffs);

  /// Format, once the store has checked its arguments: runs the erase sweep
  /// (factory bad blocks stay unerased and out of service) and programs each
  /// pid's initial image as a base page. NoSpace, with no page programmed,
  /// unless the pages leave at least one of the BlockManager's
  /// usable_pages() free for the first out-of-place write.
  Status FormatBases(uint32_t num_logical_pages, PageInitializer initial,
                     void* initial_arg);

  /// Recover: rebuilds the block states, clock and mapping from a scan of
  /// every programmed spare. A block's bad mark takes it out of service, a
  /// live-looking spare that fails its CRC returns Corruption, the dead-page
  /// rule drops dead pages, base pages replay through ReplayBasePage, and
  /// every other live page goes to `replay_other` (its timestamp already
  /// observed).
  using SpareReplay = FunctionRef<Status(flash::PhysAddr, const SpareInfo&)>;
  Status RecoverBases(SpareReplay replay_other);

  /// Drops one recovered reference on differential page `dp` (no-op for
  /// kNullAddr), marking the page obsolete when none remains.
  Status ReleaseDiffForRecovery(flash::PhysAddr dp);

  /// The scrub liveness gate: sets *relocated = false, then returns the
  /// decoded spare of `addr` when the page is valid in RAM and its spare
  /// reads as programmed and not obsolete, or a blank (kFree) tag otherwise.
  Result<SpareInfo> ScrubTag(flash::PhysAddr addr, bool* relocated);

  /// True when `tag`, read from `addr`, is the live base page of its pid.
  bool IsLiveBase(flash::PhysAddr addr, const SpareInfo& tag) const {
    return tag.type == base_type_ && tag.pid < num_pages_ &&
           map_.base(tag.pid) == addr;
  }

  /// The new-base write: programs `page` as pid's base page at the freshly
  /// allocated `q` under the next timestamp, marks the old copy obsolete and
  /// remaps pid to `q`.
  Status WriteBasePage(flash::PhysAddr q, PageId pid, ConstBytes page);

  /// GC relocation: copies live base page `tag` (data `page`) to a page
  /// from the reserve under its original timestamp -- so newer records
  /// still post-date it during recovery -- and remaps its pid.
  Status RelocateBasePage(const SpareInfo& tag, ConstBytes page);

  /// Programs `page` at `q` as pid's base page stamped `ts`.
  Status ProgramBase(flash::PhysAddr q, PageId pid, uint64_t ts,
                     ConstBytes page);

  flash::FlashDevice* dev_;
  uint32_t data_size_;
  BlockManager bm_;
  LogicalClock clock_;
  MappingTable map_;
  uint32_t num_pages_ = 0;
  uint64_t gc_runs_ = 0;
  bool formatted_ = false;

 private:
  /// Base-page replay: keeps the newest copy per pid, marks the others
  /// obsolete, and releases a differential older than the kept base.
  Status ReplayBasePage(flash::PhysAddr addr, const SpareInfo& info);

  PageType base_type_;
  /// Journaled bad-block list to re-apply at the next Recover().
  std::vector<uint32_t> pending_bad_;
};

}  // namespace flashdb::ftl

#endif  // FLASHDB_FTL_OUT_PLACE_STORE_H_
