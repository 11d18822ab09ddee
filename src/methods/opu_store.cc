#include "methods/opu_store.h"

#include <algorithm>
#include <string>

#include "ftl/gc_policy.h"

namespace flashdb::methods {

using flash::kNullAddr;
using flash::PhysAddr;

OpuStore::OpuStore(flash::FlashDevice* dev)
    : dev_(dev),
      data_size_(dev->geometry().data_size),
      spare_size_(dev->geometry().spare_size),
      bm_(dev, kGcReserveBlocks),
      map_(/*track_diffs=*/false) {}

Status OpuStore::Format(uint32_t num_logical_pages, PageInitializer initial,
                        void* initial_arg) {
  FLASHDB_RETURN_IF_ERROR(CheckPageCount(num_logical_pages));
  // Factory bad blocks are left unerased and out of service.
  FLASHDB_ASSIGN_OR_RETURN(const std::vector<uint32_t> factory_bad,
                           EraseForFormat(dev_, /*remaps_bad_blocks=*/true));
  bm_.Reset();
  for (uint32_t b : factory_bad) bm_.MarkBadForRecovery(b);
  clock_.Reset();
  num_pages_ = num_logical_pages;
  map_.Reset(num_logical_pages, dev_->geometry().total_pages());
  FLASHDB_RETURN_IF_ERROR(ProgramInitialPages(
      dev_, num_logical_pages, initial, initial_arg, ftl::PageType::kData,
      &clock_, [this](PageId pid) -> Result<PhysAddr> {
        FLASHDB_ASSIGN_OR_RETURN(const PhysAddr q, bm_.AllocatePage(false));
        map_.SetBase(pid, q);
        return q;
      }));
  formatted_ = true;
  return Status::OK();
}

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
  FLASHDB_ASSIGN_OR_RETURN(PhysAddr q, AllocatePage(false));
  ByteBuffer spare(spare_size_, 0xFF);
  ftl::EncodeSpare(spare, ftl::PageType::kData, pid, clock_.Next(), page);
  FLASHDB_RETURN_IF_ERROR(dev_->ProgramPage(q, page, spare));
  const PhysAddr old = map_.base(pid);  // resolve after GC may have moved it
  FLASHDB_RETURN_IF_ERROR(bm_.MarkObsolete(old));
  map_.SetBase(pid, q);
  return Status::OK();
}

Status OpuStore::ScrubPhysPage(PhysAddr addr, bool* relocated) {
  *relocated = false;
  FLASHDB_RETURN_IF_ERROR(CheckFormatted(formatted_));
  if (addr >= dev_->geometry().data_pages() ||
      bm_.state(addr) != ftl::PageState::kValid) {
    return Status::OK();  // obsolete/erased: the block erase clears the wear
  }
  ByteBuffer spare(spare_size_);
  FLASHDB_RETURN_IF_ERROR(dev_->ReadSpare(addr, spare));
  const ftl::SpareInfo tag = ftl::DecodeSpare(spare);
  if (!tag.programmed || tag.obsolete || tag.type != ftl::PageType::kData ||
      tag.pid >= num_pages_ || map_.base(tag.pid) != addr) {
    return Status::OK();  // stale duplicate; GC will reclaim it
  }
  ByteBuffer image(data_size_);
  FLASHDB_RETURN_IF_ERROR(ReadPage(tag.pid, image));
  FLASHDB_RETURN_IF_ERROR(WriteBack(tag.pid, image));
  *relocated = true;
  return Status::OK();
}

Result<PhysAddr> OpuStore::AllocatePage(bool for_gc) {
  while (true) {
    Result<PhysAddr> r = bm_.AllocatePage(for_gc);
    if (r.ok() || for_gc || !r.status().IsNoSpace()) return r;
    FLASHDB_RETURN_IF_ERROR(RunGcOnce());
  }
}

Status OpuStore::RunGcOnce() {
  flash::CategoryScope cat(dev_, flash::OpCategory::kGc);
  // Whole pages only: a valid data page reclaims nothing.
  FLASHDB_ASSIGN_OR_RETURN(const std::vector<uint32_t> victims,
                           ftl::PickGcVictims(dev_, &bm_, nullptr));
  ++gc_runs_;
  const uint32_t ppb = dev_->geometry().pages_per_block;
  ByteBuffer data(data_size_);
  ByteBuffer spare(spare_size_);
  for (uint32_t block : victims) {
    for (uint32_t p = 0; p < ppb; ++p) {
      const PhysAddr addr = dev_->AddrOf(block, p);
      if (bm_.state(addr) != ftl::PageState::kValid) continue;
      FLASHDB_RETURN_IF_ERROR(dev_->ReadPage(addr, data, spare));
      const ftl::SpareInfo info = ftl::DecodeSpare(spare);
      if (info.type != ftl::PageType::kData || info.pid >= num_pages_ ||
          map_.base(info.pid) != addr) {
        continue;  // stale duplicate; dropped by the erase
      }
      // Corrupt live data must not be relocated as if it were good.
      FLASHDB_RETURN_IF_ERROR(ftl::VerifyPageRead(info, data, addr));
      FLASHDB_ASSIGN_OR_RETURN(PhysAddr q, bm_.AllocatePage(true));
      ByteBuffer new_spare(spare_size_, 0xFF);
      ftl::EncodeSpare(new_spare, ftl::PageType::kData, info.pid,
                       info.timestamp, data);
      FLASHDB_RETURN_IF_ERROR(dev_->ProgramPage(q, data, new_spare));
      map_.SetBase(info.pid, q);
    }
  }
  return bm_.EraseAndFreeGroup(victims);
}

Status OpuStore::Recover() {
  flash::CategoryScope cat(dev_, flash::OpCategory::kRecovery);
  const auto& g = dev_->geometry();
  const uint32_t total = g.data_pages();
  bm_.Reset();
  // Journaled bad blocks first (a crash may have cut power before the OOB
  // mark hit flash); the scan below rediscovers on-flash marks on its own.
  for (uint32_t b : pending_bad_) bm_.MarkBadForRecovery(b);
  pending_bad_.clear();
  clock_.Reset();
  map_.Reset(total, total);
  map_.BeginReplay();
  Status scan = ftl::ForEachProgrammedSpare(
      dev_, [&](PhysAddr addr, const ftl::SpareInfo& info) -> Status {
        if (info.bad_block && dev_->PageInBlock(addr) == 0) {
          bm_.MarkBadForRecovery(dev_->BlockOf(addr));
          if (!info.programmed) return Status::OK();
        }
        if (info.obsolete || !info.crc_ok ||
            info.type != ftl::PageType::kData || info.pid >= total) {
          if (!info.obsolete) return bm_.MarkObsoleteForRecovery(addr);
          bm_.SetObsoleteForRecovery(addr);
          return Status::OK();
        }
        clock_.Observe(info.timestamp);
        const ftl::MappingTable::BaseReplay r =
            map_.ReplayBase(info.pid, addr, info.timestamp);
        if (!r.accepted) return bm_.MarkObsoleteForRecovery(addr);
        if (r.displaced_base != kNullAddr) {
          FLASHDB_RETURN_IF_ERROR(
              bm_.MarkObsoleteForRecovery(r.displaced_base));
        }
        bm_.SetValidForRecovery(addr);
        return Status::OK();
      });
  FLASHDB_RETURN_IF_ERROR(scan);
  bm_.FinalizeRecovery();
  num_pages_ = map_.replayed_num_pids();
  map_.EndReplay(num_pages_);
  formatted_ = true;
  return Status::OK();
}

}  // namespace flashdb::methods
