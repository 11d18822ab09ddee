#include "methods/ipu_store.h"

#include <algorithm>
#include <string>
#include <vector>

#include "ftl/mapping_table.h"

namespace flashdb::methods {

using flash::PhysAddr;

IpuStore::IpuStore(flash::FlashDevice* dev)
    : dev_(dev),
      data_size_(dev->geometry().data_size) {}

Status IpuStore::Format(uint32_t num_logical_pages, PageInitializer initial,
                        void* initial_arg) {
  FLASHDB_RETURN_IF_ERROR(CheckPageCount(num_logical_pages));
  const auto& g = dev_->geometry();
  if (num_logical_pages > g.data_pages()) {
    return Status::NoSpace("IPU requires one physical page per logical page");
  }
  // Every page has a fixed home: a factory bad block is fatal, not skipped.
  FLASHDB_RETURN_IF_ERROR(
      EraseForFormat(dev_, /*remaps_bad_blocks=*/false).status());
  clock_.Reset();
  num_pages_ = num_logical_pages;
  // The mapping is the identity: logical page pid lives at physical page pid.
  FLASHDB_RETURN_IF_ERROR(ProgramInitialPages(
      dev_, num_logical_pages, initial, initial_arg, ftl::PageType::kData,
      &clock_, [](PageId pid) -> Result<PhysAddr> { return pid; }));
  formatted_ = true;
  return Status::OK();
}

Status IpuStore::ReadPage(PageId pid, MutBytes out) {
  FLASHDB_RETURN_IF_ERROR(
      CheckPageArgs(formatted_, pid, num_pages_, out.size(), data_size_));
  ftl::SpareInfo info;
  FLASHDB_RETURN_IF_ERROR(ftl::ReadVerifiedPage(dev_, pid, out, {}, &info));
  // Format programs every home page, so an erased one lost its data to a
  // power cut between its block's erase and re-programs.
  if (!info.programmed) {
    return Status::Corruption("IPU home page of pid " + std::to_string(pid) +
                              " is erased: lost to a cut mid-rewrite");
  }
  return Status::OK();
}

Status IpuStore::WriteBack(PageId pid, ConstBytes page) {
  FLASHDB_RETURN_IF_ERROR(
      CheckPageArgs(formatted_, pid, num_pages_, page.size(), data_size_));
  const auto& g = dev_->geometry();
  const uint32_t block = dev_->BlockOf(pid);
  const uint32_t in_block = dev_->PageInBlock(pid);
  const PhysAddr first = dev_->AddrOf(block, 0);
  // Only pages that hold logical data need preserving.
  const uint32_t live_pages =
      std::min(g.pages_per_block,
               num_pages_ > first ? num_pages_ - first : 0u);

  // Step 1: read every other live page of the block.
  std::vector<ByteBuffer> saved_data(live_pages);
  std::vector<ByteBuffer> saved_spare(live_pages);
  for (uint32_t p = 0; p < live_pages; ++p) {
    if (p == in_block) continue;
    saved_data[p].resize(data_size_);
    saved_spare[p].resize(flash::FlashGeometry::spare_size);
    FLASHDB_RETURN_IF_ERROR(
        dev_->ReadPage(first + p, saved_data[p], saved_spare[p]));
    // The erase below destroys the only copy of these pages: a corrupt read
    // here would be reprogrammed as if it were good, so verify before the
    // point of no return.
    FLASHDB_RETURN_IF_ERROR(ftl::VerifyPageRead(
        ftl::DecodeSpare(saved_spare[p]), saved_data[p], first + p));
  }
  // Step 2: erase the block.
  FLASHDB_RETURN_IF_ERROR(dev_->EraseBlock(block));
  // Steps 3+4: program all live pages back in ascending (NAND) order, with
  // the updated image in its fixed slot.
  uint8_t spare[flash::FlashGeometry::spare_size];
  for (uint32_t p = 0; p < live_pages; ++p) {
    if (p == in_block) {
      ftl::EncodeSpare(spare, ftl::PageType::kData, pid, clock_.Next(), page);
      FLASHDB_RETURN_IF_ERROR(dev_->ProgramPage(pid, page, spare));
    } else {
      FLASHDB_RETURN_IF_ERROR(
          dev_->ProgramPage(first + p, saved_data[p], saved_spare[p]));
    }
  }
  return Status::OK();
}

Status IpuStore::ScrubPhysPage(PhysAddr addr, bool* relocated) {
  *relocated = false;
  FLASHDB_RETURN_IF_ERROR(CheckFormatted(formatted_));
  // The mapping is the identity: a data-region address below num_pages_ IS
  // the logical page. WriteBack rewrites the whole block -- the erase zeroes
  // every resident page's read-disturb exposure, not just this one's.
  if (addr >= num_pages_) return Status::OK();
  ByteBuffer image(data_size_);
  FLASHDB_RETURN_IF_ERROR(ReadPage(addr, image));
  FLASHDB_RETURN_IF_ERROR(WriteBack(addr, image));
  *relocated = true;
  return Status::OK();
}

Status IpuStore::Recover() {
  // The mapping is the identity; only the page count must be re-derived.
  flash::CategoryScope cat(dev_, flash::OpCategory::kRecovery);
  uint32_t max_pid = 0;
  bool any = false;
  FLASHDB_RETURN_IF_ERROR(ftl::ForEachProgrammedSpare(
      dev_, [&](PhysAddr, const ftl::SpareInfo& info) -> Status {
        if (info.type != ftl::PageType::kData || !info.crc_ok) {
          return Status::OK();
        }
        clock_.Observe(info.timestamp);
        if (!any || info.pid > max_pid) max_pid = info.pid;
        any = true;
        return Status::OK();
      }));
  num_pages_ = any ? max_pid + 1 : 0;
  formatted_ = true;
  return Status::OK();
}

}  // namespace flashdb::methods
