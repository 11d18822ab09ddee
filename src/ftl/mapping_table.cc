#include "ftl/mapping_table.h"

#include <string>

namespace flashdb::ftl {

void MappingTable::Reset(uint32_t num_pids, uint32_t num_phys_pages) {
  base_.assign(num_pids, flash::kNullAddr);
  if (track_diffs_) {
    diff_.assign(num_pids, flash::kNullAddr);
    vdct_.assign(num_phys_pages, 0);
    diff_live_bytes_.assign(num_phys_pages, 0);
    flushed_diff_size_.assign(num_pids, 0);
    const uint32_t num_blocks =
        (num_phys_pages + pages_per_block_ - 1) / pages_per_block_;
    block_diff_pages_.assign(num_blocks, 0);
    block_diff_live_bytes_.assign(num_blocks, 0);
  }
  base_ts_.clear();
  diff_ts_.clear();
  max_pid_ = 0;
  any_pid_ = false;
}

void MappingTable::BeginReplay() {
  base_ts_.assign(base_.size(), 0);
  if (track_diffs_) diff_ts_.assign(base_.size(), 0);
  max_pid_ = 0;
  any_pid_ = false;
}

MappingTable::BaseReplay MappingTable::ReplayBase(PageId pid,
                                                  flash::PhysAddr addr,
                                                  uint64_t ts) {
  BaseReplay r;
  if (ts <= base_ts_[pid]) return r;  // an equal-or-newer base already won
  r.accepted = true;
  r.displaced_base = base_[pid];
  base_[pid] = addr;
  base_ts_[pid] = ts;
  // A differential older than its base is dead: its record was folded into
  // the base before the base was written.
  if (track_diffs_ && diff_[pid] != flash::kNullAddr && ts > diff_ts_[pid]) {
    r.stale_diff = DetachDiff(pid);
    diff_ts_[pid] = 0;
  }
  if (!any_pid_ || pid > max_pid_) max_pid_ = pid;
  any_pid_ = true;
  return r;
}

MappingTable::DiffReplay MappingTable::ReplayDiff(PageId pid,
                                                  flash::PhysAddr addr,
                                                  uint64_t ts, uint32_t size) {
  DiffReplay r;
  if (ts <= base_ts_[pid] || ts <= diff_ts_[pid]) return r;
  r.accepted = true;
  r.displaced_diff = DetachDiff(pid);
  AttachDiff(pid, addr, size);
  diff_ts_[pid] = ts;
  return r;
}

void MappingTable::EndReplay(uint32_t num_pids) {
  base_.resize(num_pids);
  if (track_diffs_) {
    diff_.resize(num_pids);
    flushed_diff_size_.resize(num_pids);
  }
  base_ts_.clear();
  base_ts_.shrink_to_fit();
  diff_ts_.clear();
  diff_ts_.shrink_to_fit();
}

Status ForEachProgrammedSpare(
    flash::FlashDevice* dev,
    FunctionRef<Status(flash::PhysAddr, const SpareInfo&)> fn) {
  // Scan the data region only: the trailing meta blocks (if reserved) hold
  // MetaJournal frames, which are not the store's pages -- replaying them
  // here would mark them obsolete and corrupt the journal.
  const uint32_t total = dev->geometry().data_pages();
  ByteBuffer spare(dev->geometry().spare_size);
  for (flash::PhysAddr addr = 0; addr < total; ++addr) {
    FLASHDB_RETURN_IF_ERROR(dev->ReadSpare(addr, spare));
    const SpareInfo info = DecodeSpare(spare);
    if (!info.programmed) {
      // A free page is skipped -- except page 0 of a block carrying the
      // bad-block OOB mark (a factory-bad block is otherwise erased), which
      // is surfaced so recovery can take the block out of service. No extra
      // reads: every spare in the region is read regardless.
      if (!(info.bad_block && dev->PageInBlock(addr) == 0)) continue;
    } else if (!info.crc_ok && !info.obsolete) {
      // Programs are atomic, so this spare was misread. It may hold its
      // pid's only copy, or the highest pid, which sets the page count: stop
      // before a store acts on a scan without it.
      return Status::Corruption(
          "uncorrectable read: recovery cannot decode the spare of page " +
          std::to_string(addr));
    }
    FLASHDB_RETURN_IF_ERROR(fn(addr, info));
  }
  return Status::OK();
}

}  // namespace flashdb::ftl
