// OpuStore: the page-based method with the out-place update scheme and
// page-level mapping (paper Section 3, Fig. 3) -- the strongest conventional
// baseline ("known to have good performance even though the method consumes
// memory excessively").
//
// WriteBack programs the whole logical page into a freshly allocated physical
// page, then marks the previous copy obsolete (two write operations per
// reflected page, as counted in Fig. 12b). ReadPage is a single page read.
// Format, recovery, the scrub gate and the page writes themselves are the
// out-place core's (ftl/out_place_store.h); OPU adds its allocation loop,
// which collects garbage only when an allocation fails, and its GC walk.

#ifndef FLASHDB_METHODS_OPU_STORE_H_
#define FLASHDB_METHODS_OPU_STORE_H_

#include "ftl/out_place_store.h"

namespace flashdb::methods {

/// See file comment.
class OpuStore : public ftl::OutPlaceStore {
 public:
  explicit OpuStore(flash::FlashDevice* dev);

  std::string_view name() const override { return "OPU"; }
  Status Format(uint32_t num_logical_pages, PageInitializer initial,
                void* initial_arg) override {
    FLASHDB_RETURN_IF_ERROR(CheckPageCount(num_logical_pages));
    return FormatBases(num_logical_pages, initial, initial_arg);
  }
  Status ReadPage(PageId pid, MutBytes out) override;
  Status WriteBack(PageId pid, ConstBytes page) override;
  Status Flush() override { return Status::OK(); }  // nothing buffered
  /// Relocates the live page at `addr` via the normal out-place write path.
  Status ScrubPhysPage(flash::PhysAddr addr, bool* relocated) override;
  Status Recover() override;

 private:
  /// Allocates a page for a normal write, collecting garbage until one frees.
  Result<flash::PhysAddr> AllocatePage();
  Status RunGcOnce();

  /// GC's page scratch, reused every round: a round allocates only its
  /// victim list.
  ByteBuffer gc_page_;
};

}  // namespace flashdb::methods

#endif  // FLASHDB_METHODS_OPU_STORE_H_
