#include "ftl/page_store.h"

#include <algorithm>
#include <string>

#include "ftl/block_manager.h"

namespace flashdb {

Status CheckPageCount(uint32_t num_logical_pages) {
  if (num_logical_pages < flash::kNullAddr) return Status::OK();
  return Status::InvalidArgument(
      "num_logical_pages collides with the reserved pid sentinel");
}

Status CheckFormatted(bool formatted) {
  return formatted ? Status::OK()
                   : Status::InvalidArgument("store not formatted");
}

Status CheckPid(bool formatted, PageId pid, uint32_t num_pages) {
  FLASHDB_RETURN_IF_ERROR(CheckFormatted(formatted));
  if (pid >= num_pages) {
    return Status::NotFound("pid out of range: " + std::to_string(pid));
  }
  return Status::OK();
}

Status CheckPageArgs(bool formatted, PageId pid, uint32_t num_pages,
                     size_t bytes, uint32_t data_size) {
  FLASHDB_RETURN_IF_ERROR(CheckPid(formatted, pid, num_pages));
  if (bytes != data_size) {
    return Status::InvalidArgument("page buffer must be one page");
  }
  return Status::OK();
}

Status Check16BitOffsets(std::string_view method, uint32_t data_size) {
  if (data_size <= kMaxDataSizeFor16BitOffsets) return Status::OK();
  return Status::InvalidArgument(
      std::string(method) + " stores 16-bit page offsets: data_size=" +
      std::to_string(data_size) + " exceeds " +
      std::to_string(kMaxDataSizeFor16BitOffsets));
}

Result<std::vector<uint32_t>> EraseForFormat(flash::FlashDevice* dev,
                                             bool remaps_bad_blocks) {
  std::vector<uint32_t> bad;
  if (dev->config().scan_bad_blocks) {
    FLASHDB_ASSIGN_OR_RETURN(bad, ftl::ScanFactoryBadBlocks(dev));
  }
  if (!remaps_bad_blocks && !bad.empty()) {
    return Status::InvalidArgument(
        "block " + std::to_string(bad.front()) +
        " carries a factory bad-block mark, and this method cannot remap "
        "bad blocks");
  }
  const auto& g = dev->geometry();
  // Reserved meta blocks are the journal's, not the store's.
  for (uint32_t b = 0; b < g.num_data_blocks(); ++b) {
    if (std::binary_search(bad.begin(), bad.end(), b)) continue;
    bool dirty = false;
    for (uint32_t p = 0; p < g.pages_per_block && !dirty; ++p) {
      dirty = !dev->IsErased(dev->AddrOf(b, p));
    }
    if (dirty) FLASHDB_RETURN_IF_ERROR(dev->EraseBlock(b));
  }
  return bad;
}

Status ProgramInitialPages(
    flash::FlashDevice* dev, uint32_t num_pages,
    PageStore::PageInitializer initial, void* initial_arg, ftl::PageType type,
    ftl::LogicalClock* clock,
    FunctionRef<Result<flash::PhysAddr>(PageId)> place) {
  ByteBuffer page(dev->geometry().data_size, 0);
  uint8_t spare[flash::FlashGeometry::spare_size];
  for (PageId pid = 0; pid < num_pages; ++pid) {
    std::fill(page.begin(), page.end(), 0);
    if (initial != nullptr) initial(pid, page, initial_arg);
    FLASHDB_ASSIGN_OR_RETURN(const flash::PhysAddr addr, place(pid));
    ftl::EncodeSpare(spare, type, pid, clock->Next(), page);
    FLASHDB_RETURN_IF_ERROR(dev->ProgramPage(addr, page, spare));
  }
  return Status::OK();
}

}  // namespace flashdb
