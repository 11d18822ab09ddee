// IpuStore: the page-based method with the in-place update scheme (paper
// Section 3). A logical page lives at a fixed physical page forever; every
// WriteBack therefore rewrites the page's whole block:
//   (1) read every other programmed page of the block,
//   (2) erase the block,
//   (3) program the updated page,
//   (4) re-program the pages read in (1).
// The paper includes IPU as the "rarely used" worst-case baseline; it needs
// no mapping table. Its crash contract is weaker than the other methods': a
// power cut between steps (2) and (4) loses the block's pages not yet
// re-programmed. Recover() still succeeds, and reading a lost page is a typed
// error: Corruption naming the pid, or NotFound when the lost pages were the
// highest pids (the page count is re-derived from the largest programmed
// one). Every other page reads back its old or new version.

#ifndef FLASHDB_METHODS_IPU_STORE_H_
#define FLASHDB_METHODS_IPU_STORE_H_

#include <vector>

#include "ftl/logical_clock.h"
#include "ftl/page_store.h"
#include "ftl/spare_codec.h"

namespace flashdb::methods {

/// See file comment.
class IpuStore : public PageStore {
 public:
  explicit IpuStore(flash::FlashDevice* dev);

  std::string_view name() const override { return "IPU"; }
  Status Format(uint32_t num_logical_pages, PageInitializer initial,
                void* initial_arg) override;
  Status ReadPage(PageId pid, MutBytes out) override;
  Status WriteBack(PageId pid, ConstBytes page) override;
  Status Flush() override { return Status::OK(); }
  /// In-place "relocation": rewrites the page's whole block (IPU's only
  /// write primitive), which erases it and so resets read-disturb exposure.
  Status ScrubPhysPage(flash::PhysAddr addr, bool* relocated) override;
  Status Recover() override;
  uint32_t num_logical_pages() const override { return num_pages_; }
  flash::FlashDevice* device() override { return dev_; }

 private:
  flash::FlashDevice* dev_;
  uint32_t data_size_;
  ftl::LogicalClock clock_;
  uint32_t num_pages_ = 0;
  bool formatted_ = false;
};

}  // namespace flashdb::methods

#endif  // FLASHDB_METHODS_IPU_STORE_H_
