// OpuStore: the page-based method with the out-place update scheme and
// page-level mapping (paper Section 3, Fig. 3) -- the strongest conventional
// baseline ("known to have good performance even though the method consumes
// memory excessively").
//
// WriteBack programs the whole logical page into a freshly allocated physical
// page, then marks the previous copy obsolete (two write operations per
// reflected page, as counted in Fig. 12b). ReadPage is a single page read.

#ifndef FLASHDB_METHODS_OPU_STORE_H_
#define FLASHDB_METHODS_OPU_STORE_H_

#include <vector>

#include "ftl/block_manager.h"
#include "ftl/logical_clock.h"
#include "ftl/mapping_table.h"
#include "ftl/page_store.h"
#include "ftl/spare_codec.h"

namespace flashdb::methods {

/// See file comment.
class OpuStore : public PageStore {
 public:
  explicit OpuStore(flash::FlashDevice* dev);

  std::string_view name() const override { return "OPU"; }
  Status Format(uint32_t num_logical_pages, PageInitializer initial,
                void* initial_arg) override;
  Status ReadPage(PageId pid, MutBytes out) override;
  Status WriteBack(PageId pid, ConstBytes page) override;
  Status Flush() override { return Status::OK(); }  // nothing buffered
  /// Relocates the live page at `addr` via the normal out-place write path.
  Status ScrubPhysPage(flash::PhysAddr addr, bool* relocated) override;
  Status Recover() override;
  uint32_t num_logical_pages() const override { return num_pages_; }
  std::vector<uint32_t> bad_blocks() const override {
    return bm_.bad_blocks();
  }
  void NoteBadBlocksForRecovery(const std::vector<uint32_t>& blocks) override {
    pending_bad_ = blocks;
  }
  flash::FlashDevice* device() override { return dev_; }

  /// Physical location of pid (tests / diagnostics).
  flash::PhysAddr map(PageId pid) const { return map_.base(pid); }
  uint64_t gc_runs() const { return gc_runs_; }

 private:
  /// Free blocks withheld so garbage collection can always relocate a
  /// victim's valid pages.
  static constexpr uint32_t kGcReserveBlocks = 3;

  Result<flash::PhysAddr> AllocatePage(bool for_gc);
  Status RunGcOnce();

  flash::FlashDevice* dev_;
  uint32_t data_size_;
  uint32_t spare_size_;
  ftl::BlockManager bm_;
  ftl::LogicalClock clock_;
  ftl::MappingTable map_;  ///< Page-level logical->physical table.
  uint32_t num_pages_ = 0;
  uint64_t gc_runs_ = 0;
  bool formatted_ = false;
  /// Journaled bad-block list to re-apply at the next Recover().
  std::vector<uint32_t> pending_bad_;
};

}  // namespace flashdb::methods

#endif  // FLASHDB_METHODS_OPU_STORE_H_
