#include "methods/opu_store.h"

#include <vector>

#include "ftl/gc_policy.h"

namespace flashdb::methods {

using flash::PhysAddr;

OpuStore::OpuStore(flash::FlashDevice* dev)
    : OutPlaceStore(dev, ftl::PageType::kData, /*num_streams=*/1,
                    /*track_diffs=*/false),
      gc_page_(data_size_) {}

Status OpuStore::ReadPage(PageId pid, MutBytes out) {
  FLASHDB_RETURN_IF_ERROR(
      CheckPageArgs(formatted_, pid, num_pages_, out.size(), data_size_));
  return ftl::ReadVerifiedPage(dev_, map_.base(pid), out);
}

Status OpuStore::WriteBack(PageId pid, ConstBytes page) {
  FLASHDB_RETURN_IF_ERROR(
      CheckPageArgs(formatted_, pid, num_pages_, page.size(), data_size_));
  // Program the up-to-date page into a new physical page first, then set the
  // old copy obsolete (crash between the two leaves duplicates, arbitrated by
  // timestamp during recovery).
  FLASHDB_ASSIGN_OR_RETURN(const PhysAddr q, AllocatePage());
  return WriteBasePage(q, pid, page);
}

Status OpuStore::ScrubPhysPage(PhysAddr addr, bool* relocated) {
  FLASHDB_ASSIGN_OR_RETURN(const ftl::SpareInfo tag,
                           ScrubTag(addr, relocated));
  if (!IsLiveBase(addr, tag)) return Status::OK();  // GC will reclaim it
  ByteBuffer image(data_size_);
  FLASHDB_RETURN_IF_ERROR(ReadPage(tag.pid, image));
  FLASHDB_RETURN_IF_ERROR(WriteBack(tag.pid, image));
  *relocated = true;
  return Status::OK();
}

Status OpuStore::Recover() {
  // Any live page that is not a data page is foreign: reclaim it via GC.
  return RecoverBases([this](PhysAddr addr, const ftl::SpareInfo&) {
    return bm_.MarkObsoleteForRecovery(addr);
  });
}

Result<PhysAddr> OpuStore::AllocatePage() {
  while (true) {
    Result<PhysAddr> r = bm_.AllocatePage(/*for_gc=*/false);
    if (r.ok() || !r.status().IsNoSpace()) return r;
    FLASHDB_RETURN_IF_ERROR(RunGcOnce());
  }
}

Status OpuStore::RunGcOnce() {
  flash::CategoryScope cat(dev_, flash::OpCategory::kGc);
  // Whole pages only: OPU's mapping tracks no differentials, so a valid
  // data page reclaims nothing.
  FLASHDB_ASSIGN_OR_RETURN(const std::vector<uint32_t> victims,
                           ftl::PickGcVictims(dev_, &bm_, map_));
  ++gc_runs_;
  uint8_t spare[flash::FlashGeometry::spare_size];
  for (uint32_t block : victims) {
    for (uint32_t p = 0; p < bm_.pages_per_block(); ++p) {
      const PhysAddr addr = dev_->AddrOf(block, p);
      if (bm_.state(addr) != ftl::PageState::kValid) continue;
      FLASHDB_RETURN_IF_ERROR(dev_->ReadPage(addr, gc_page_, spare));
      const ftl::SpareInfo info = ftl::DecodeSpare(spare);
      if (!IsLiveBase(addr, info)) continue;  // stale; dropped by the erase
      // Corrupt live data must not be relocated as if it were good.
      FLASHDB_RETURN_IF_ERROR(ftl::VerifyPageRead(info, gc_page_, addr));
      FLASHDB_RETURN_IF_ERROR(RelocateBasePage(info, gc_page_));
    }
  }
  return bm_.EraseAndFreeGroup(victims);
}

}  // namespace flashdb::methods
