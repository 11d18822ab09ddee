#include "ftl/out_place_store.h"

#include <string>

namespace flashdb::ftl {

using flash::kNullAddr;
using flash::PhysAddr;

OutPlaceStore::OutPlaceStore(flash::FlashDevice* dev, PageType base_type,
                             uint32_t num_streams, bool track_diffs)
    : dev_(dev),
      data_size_(dev->geometry().data_size),
      bm_(dev, num_streams),
      map_(track_diffs, dev->geometry().pages_per_block),
      base_type_(base_type) {}

Status OutPlaceStore::FormatBases(uint32_t num_logical_pages,
                                  PageInitializer initial, void* initial_arg) {
  // The sweep below destroys the old contents: a failure from here on must
  // not leave a usable instance.
  formatted_ = false;
  // Factory bad blocks are left unerased and out of service.
  FLASHDB_ASSIGN_OR_RETURN(const std::vector<uint32_t> factory_bad,
                           EraseForFormat(dev_, /*remaps_bad_blocks=*/true));
  bm_.Reset();
  for (uint32_t b : factory_bad) bm_.MarkBadForRecovery(b);
  // Refuse a database that cannot fit before programming any of it. An
  // out-of-place write needs a free page beside the live ones, so a
  // database that fills every usable page could never be written.
  const uint64_t usable = bm_.usable_pages();
  if (num_logical_pages >= usable) {
    return Status::NoSpace(
        std::to_string(num_logical_pages) + " pages fill the " +
        std::to_string(usable) + " usable pages (GC reserve " +
        std::to_string(bm_.gc_reserve_blocks()) + " blocks, bad blocks " +
        std::to_string(bm_.num_bad_blocks()) + ")");
  }
  clock_.Reset();
  num_pages_ = num_logical_pages;
  map_.Reset(num_logical_pages, dev_->geometry().total_pages());
  FLASHDB_RETURN_IF_ERROR(ProgramInitialPages(
      dev_, num_logical_pages, initial, initial_arg, base_type_, &clock_,
      [this](PageId pid) -> Result<PhysAddr> {
        FLASHDB_ASSIGN_OR_RETURN(const PhysAddr q,
                                 bm_.AllocatePage(false, kBaseStream));
        map_.SetBase(pid, q);
        return q;
      }));
  formatted_ = true;
  return Status::OK();
}

Status OutPlaceStore::RecoverBases(SpareReplay replay_other) {
  flash::CategoryScope cat(dev_, flash::OpCategory::kRecovery);
  // From here on the store is mid-recovery: a failure below must not leave
  // a usable instance over half-rebuilt tables.
  formatted_ = false;
  const uint32_t total = dev_->geometry().data_pages();
  bm_.Reset();
  // Journaled bad blocks first (a crash may have cut power before the OOB
  // mark hit flash); the scan below rediscovers on-flash marks on its own.
  for (uint32_t b : pending_bad_) bm_.MarkBadForRecovery(b);
  pending_bad_.clear();
  clock_.Reset();
  map_.Reset(total, total);
  map_.BeginReplay();
  FLASHDB_RETURN_IF_ERROR(ForEachProgrammedSpare(
      dev_, [&](PhysAddr addr, const SpareInfo& info) -> Status {
        if (info.bad_block && dev_->PageInBlock(addr) == 0) {
          bm_.MarkBadForRecovery(dev_->BlockOf(addr));
          if (!info.programmed) return Status::OK();
        }
        if (info.obsolete) {
          bm_.SetObsoleteForRecovery(addr);  // the dead-page rule
          return Status::OK();
        }
        clock_.Observe(info.timestamp);
        if (info.type == base_type_) return ReplayBasePage(addr, info);
        return replay_other(addr, info);
      }));
  bm_.FinalizeRecovery();
  num_pages_ = map_.replayed_num_pids();
  map_.EndReplay(num_pages_);
  formatted_ = true;
  return Status::OK();
}

Status OutPlaceStore::ReplayBasePage(PhysAddr addr, const SpareInfo& info) {
  if (info.pid >= map_.num_pids()) return bm_.MarkObsoleteForRecovery(addr);
  const MappingTable::BaseReplay r =
      map_.ReplayBase(info.pid, addr, info.timestamp);
  if (!r.accepted) return bm_.MarkObsoleteForRecovery(addr);
  if (r.displaced_base != kNullAddr) {
    FLASHDB_RETURN_IF_ERROR(bm_.MarkObsoleteForRecovery(r.displaced_base));
  }
  bm_.SetValidForRecovery(addr);
  return ReleaseDiffForRecovery(r.stale_diff);
}

Status OutPlaceStore::ReleaseDiffForRecovery(PhysAddr dp) {
  if (dp == kNullAddr) return Status::OK();
  FLASHDB_ASSIGN_OR_RETURN(const bool unreferenced, map_.ReleaseDiffRef(dp));
  return unreferenced ? bm_.MarkObsoleteForRecovery(dp) : Status::OK();
}

Result<SpareInfo> OutPlaceStore::ScrubTag(PhysAddr addr, bool* relocated) {
  *relocated = false;
  FLASHDB_RETURN_IF_ERROR(CheckFormatted(formatted_));
  if (addr >= dev_->geometry().data_pages() ||
      bm_.state(addr) != PageState::kValid) {
    return SpareInfo{};  // obsolete/erased: the block erase clears the wear
  }
  uint8_t spare[flash::FlashGeometry::spare_size];
  FLASHDB_RETURN_IF_ERROR(dev_->ReadSpare(addr, spare));
  const SpareInfo tag = DecodeSpare(spare);
  if (!tag.programmed || tag.obsolete) return SpareInfo{};
  return tag;
}

Status OutPlaceStore::WriteBasePage(PhysAddr q, PageId pid, ConstBytes page) {
  FLASHDB_RETURN_IF_ERROR(ProgramBase(q, pid, clock_.Next(), page));
  // Resolve the old copy only now: a GC run that made room for `q` may have
  // moved it.
  FLASHDB_RETURN_IF_ERROR(bm_.MarkObsolete(map_.base(pid)));
  map_.SetBase(pid, q);
  return Status::OK();
}

Status OutPlaceStore::RelocateBasePage(const SpareInfo& tag, ConstBytes page) {
  FLASHDB_ASSIGN_OR_RETURN(const PhysAddr q,
                           bm_.AllocatePage(/*for_gc=*/true, kBaseStream));
  FLASHDB_RETURN_IF_ERROR(
      ProgramBase(q, tag.pid, tag.timestamp, page, tag.data_crc));
  map_.SetBase(tag.pid, q);
  return Status::OK();
}

Status OutPlaceStore::ProgramBase(PhysAddr q, PageId pid, uint64_t ts,
                                  ConstBytes page,
                                  std::optional<uint32_t> verified_crc) {
  uint8_t spare[flash::FlashGeometry::spare_size];
  EncodeSpare(spare, base_type_, pid, ts, page, verified_crc);
  return dev_->ProgramPage(q, page, spare);
}

}  // namespace flashdb::ftl
