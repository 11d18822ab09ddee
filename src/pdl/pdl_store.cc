#include "pdl/pdl_store.h"

#include <algorithm>
#include <cassert>
#include <string>

#include "ftl/gc_policy.h"

namespace flashdb::pdl {

using flash::kNullAddr;
using flash::PhysAddr;

PdlStore::PdlStore(flash::FlashDevice* dev, const PdlConfig& config)
    : OutPlaceStore(dev, ftl::PageType::kBase, /*num_streams=*/2,
                    /*track_diffs=*/true),
      config_(config),
      name_("PDL(" + std::to_string(config.max_differential_size) + "B)"),
      buffer_(data_size_),
      base_scratch_(data_size_),
      page_scratch_(data_size_) {}

Status PdlStore::ValidateConfig() const {
  // A single differential record must fit in one differential page. Checked
  // on every mount path (Format and Recover): an oversized limit would let
  // differentials past the write buffer's one-page capacity.
  if (config_.max_differential_size == 0 ||
      config_.max_differential_size > data_size_) {
    return Status::InvalidArgument(
        "max_differential_size (" +
        std::to_string(config_.max_differential_size) +
        ") must be in [1, data_size=" + std::to_string(data_size_) + "]");
  }
  // Every extent offset must fit the record's 16-bit field. Lengths fit too:
  // a stored record is at most one page, so its extents are shorter than
  // 65,536 bytes (a larger differential is written as a new base page).
  return Check16BitOffsets(name_, data_size_);
}

Status PdlStore::Format(uint32_t num_logical_pages, PageInitializer initial,
                        void* initial_arg) {
  FLASHDB_RETURN_IF_ERROR(CheckPageCount(num_logical_pages));
  FLASHDB_RETURN_IF_ERROR(ValidateConfig());
  buffer_.Clear();
  counters_ = PdlCounters{};
  return FormatBases(num_logical_pages, initial, initial_arg);
}

Status PdlStore::ReadPage(PageId pid, MutBytes out) {
  FLASHDB_RETURN_IF_ERROR(
      CheckPageArgs(formatted_, pid, num_pages_, out.size(), data_size_));
  // Step 1: read the base page (CRC-verified end to end).
  FLASHDB_RETURN_IF_ERROR(ftl::ReadVerifiedPage(dev_, map_.base(pid), out));
  // Step 2: find the differential -- the write buffer shadows flash.
  if (const Differential* d = buffer_.Find(pid)) {
    return d->ApplyTo(out);  // Step 3: merge.
  }
  const PhysAddr dp = map_.diff(pid);
  if (dp == kNullAddr) return Status::OK();  // no differential page
  FLASHDB_RETURN_IF_ERROR(ftl::ReadVerifiedPage(dev_, dp, page_scratch_));
  Differential& d = ParsedSlot(0);
  bool found = false;
  FLASHDB_RETURN_IF_ERROR(FindDifferential(page_scratch_, pid, &d, &found));
  if (!found) {
    return Status::Corruption("PPMT points at differential page " +
                              std::to_string(dp) +
                              " lacking a record for pid " +
                              std::to_string(pid));
  }
  return d.ApplyTo(out);  // Step 3: merge.
}

Status PdlStore::WriteBack(PageId pid, ConstBytes page) {
  FLASHDB_RETURN_IF_ERROR(
      CheckPageArgs(formatted_, pid, num_pages_, page.size(), data_size_));
  // Step 1: read the base page (into the reused write-path scratch).
  FLASHDB_RETURN_IF_ERROR(
      ftl::ReadVerifiedPage(dev_, map_.base(pid), base_scratch_));
  // Step 2: create the differential.
  ComputeDifferentialInto(base_scratch_, page, pid, clock_.Next(),
                          kDiffCoalesceGap, &diff_scratch_);
  counters_.diff_bytes_written += diff_scratch_.EncodedSize();
  // Step 3: write the differential into the differential write buffer
  // (a copy: the scratch keeps its capacity for the next write).
  buffer_.Remove(pid);
  if (buffer_.Fits(diff_scratch_)) {
    // Case 1: fits in the buffer's free space.
    buffer_.Insert(diff_scratch_);
    counters_.diffs_buffered++;
    return Status::OK();
  }
  if (diff_scratch_.EncodedSize() <= config_.max_differential_size) {
    // Case 2: flush the buffer, then insert.
    FLASHDB_RETURN_IF_ERROR(FlushBuffer());
    // GC triggered by the flush may have re-added a (stale, now superseded)
    // compacted differential for this pid; drop it before inserting.
    buffer_.Remove(pid);
    buffer_.Insert(diff_scratch_);
    counters_.diffs_buffered++;
    return Status::OK();
  }
  // Case 3: differential too large -- write the page as a new base page.
  return WriteNewBasePage(pid, page);
}

Status PdlStore::Flush() {
  FLASHDB_RETURN_IF_ERROR(CheckFormatted(formatted_));
  return FlushBuffer();
}

Status PdlStore::FlushBuffer() {
  FLASHDB_RETURN_IF_ERROR(ReclaimUntilSpace(kDiffStream));
  if (buffer_.empty()) return Status::OK();
  // The buffer holds at most one page of records: one page is written.
  FLASHDB_RETURN_IF_ERROR(WriteDiffPages(buffer_.entries(), /*for_gc=*/false));
  buffer_.Clear();
  counters_.buffer_flushes++;
  return Status::OK();
}

Status PdlStore::WriteDiffPages(std::span<const Differential> records,
                                bool for_gc) {
  while (!records.empty()) {
    page_scratch_.clear();  // keeps its one-page capacity
    size_t n = 0;
    while (n < records.size() &&
           page_scratch_.size() + records[n].EncodedSize() <= data_size_) {
      records[n++].AppendTo(&page_scratch_);
    }
    assert(n > 0 && "a record is at most one page");
    page_scratch_.resize(data_size_, 0xFF);
    FLASHDB_ASSIGN_OR_RETURN(const PhysAddr q,
                             bm_.AllocatePage(for_gc, kDiffStream));
    uint8_t spare[flash::FlashGeometry::spare_size];
    ftl::EncodeSpare(spare, ftl::PageType::kDiff, kPaddingPid - 1,
                     clock_.Next(), page_scratch_);
    FLASHDB_RETURN_IF_ERROR(dev_->ProgramPage(q, page_scratch_, spare));
    // Remap only once the new copy is durable. A power cut before the old
    // page's obsolete mark leaves both copies on flash, and recovery's
    // timestamp arbitration keeps exactly one.
    for (const Differential& d : records.first(n)) {
      FLASHDB_RETURN_IF_ERROR(
          DecreaseValidDifferentialCount(map_.DetachDiff(d.pid())));
      map_.AttachDiff(d.pid(), q, static_cast<uint32_t>(d.EncodedSize()));
    }
    records = records.subspan(n);
  }
  return Status::OK();
}

Differential& PdlStore::ParsedSlot(size_t i) {
  if (i == parsed_.size()) parsed_.emplace_back();
  return parsed_[i];
}

Status PdlStore::ScrubPhysPage(PhysAddr addr, bool* relocated) {
  FLASHDB_ASSIGN_OR_RETURN(const ftl::SpareInfo tag,
                           ScrubTag(addr, relocated));
  if (IsLiveBase(addr, tag)) {
    // Fold base + differential into one fresh self-contained base page (the
    // relocation must carry the *logical* content: relocating the stale base
    // bytes alone would be wasted work the moment the differential merges).
    ByteBuffer image(data_size_);
    FLASHDB_RETURN_IF_ERROR(ReadPage(tag.pid, image));
    buffer_.Remove(tag.pid);  // folded into `image`; a later flush must not
                              // re-attach it as if it post-dated the new base
    FLASHDB_RETURN_IF_ERROR(WriteNewBasePage(tag.pid, image));
    *relocated = true;
    return Status::OK();
  }
  if (tag.type != ftl::PageType::kDiff || map_.vdct(addr) == 0) {
    return Status::OK();
  }
  // Differential page: compact its live records into a fresh page, exactly
  // like GC compaction but without an erase. Reclaim space up front -- a GC
  // triggered mid-relocation could itself move the victim records -- and
  // re-validate after, since the reclaim may have handled the page already.
  FLASHDB_RETURN_IF_ERROR(ReclaimUntilSpace(kDiffStream));
  if (bm_.state(addr) != ftl::PageState::kValid || map_.vdct(addr) == 0) {
    return Status::OK();
  }
  FLASHDB_RETURN_IF_ERROR(ftl::ReadVerifiedPage(dev_, addr, page_scratch_));
  BufferReader reader(page_scratch_);
  size_t live = 0;  // live records in parsed_[0, live)
  Status parse_status;
  while (Differential::ParseNext(&reader, &ParsedSlot(live), &parse_status)) {
    const PageId pid = parsed_[live].pid();
    if (pid < num_pages_ && map_.diff(pid) == addr) ++live;
  }
  FLASHDB_RETURN_IF_ERROR(parse_status);
  if (live == 0) return Status::OK();
  // The live records are a subset of one page, so they fill one fresh page;
  // the last one to leave marks the old page obsolete.
  FLASHDB_RETURN_IF_ERROR(
      WriteDiffPages(std::span(parsed_).first(live), /*for_gc=*/false));
  counters_.gc_diffs_compacted += live;
  *relocated = true;
  return Status::OK();
}

Status PdlStore::ReclaimUntilSpace(uint32_t stream) {
  // On a chip so small that GC output nearly equals what each erase reclaims
  // (a few blocks total), this loop can make net-zero progress forever:
  // every round frees one block and consumes one. Bound the rounds so the
  // degenerate regime surfaces as a clean NoSpace from the allocator instead
  // of a livelock; on real geometries the loop exits after a round or two.
  const uint32_t max_rounds = 2 * bm_.num_blocks();
  for (uint32_t round = 0; bm_.LowOnSpace(stream); ++round) {
    if (round >= max_rounds) {
      return Status::NoSpace(
          "garbage collection made no net progress after " +
          std::to_string(max_rounds) + " rounds (chip too small/full)");
    }
    Status gc = RunGcOnce();
    if (gc.IsNoSpace()) break;  // nothing reclaimable yet; allocation may
                                // still succeed from the open block
    FLASHDB_RETURN_IF_ERROR(gc);
  }
  return Status::OK();
}

Status PdlStore::DecreaseValidDifferentialCount(PhysAddr dp) {
  if (dp == kNullAddr) return Status::OK();
  FLASHDB_ASSIGN_OR_RETURN(const bool unreferenced, map_.ReleaseDiffRef(dp));
  // No valid differential remains: make it available for garbage collection.
  return unreferenced ? bm_.MarkObsolete(dp) : Status::OK();
}

Status PdlStore::WriteNewBasePage(PageId pid, ConstBytes page) {
  FLASHDB_RETURN_IF_ERROR(ReclaimUntilSpace(kBaseStream));
  FLASHDB_ASSIGN_OR_RETURN(PhysAddr q, bm_.AllocatePage(false, kBaseStream));
  // Step 1: write the page itself as a new base page, retiring the old one.
  FLASHDB_RETURN_IF_ERROR(WriteBasePage(q, pid, page));
  // Step 2: drop the differential. Resolve it only now: the GC run above may
  // have relocated it.
  FLASHDB_RETURN_IF_ERROR(DecreaseValidDifferentialCount(map_.DetachDiff(pid)));
  counters_.new_base_pages++;
  return Status::OK();
}

Status PdlStore::RunGcOnce() {
  flash::CategoryScope cat(dev_, flash::OpCategory::kGc);
  // Byte-scored victim selection: obsolete pages reclaim a whole page;
  // valid differential pages reclaim their dead fraction via compaction;
  // valid base pages reclaim nothing (they must be relocated).
  FLASHDB_ASSIGN_OR_RETURN(const std::vector<uint32_t> victims,
                           ftl::PickGcVictims(dev_, &bm_, map_));
  ++gc_runs_;
  auto in_victims = [&](uint32_t b) {
    return std::find(victims.begin(), victims.end(), b) != victims.end();
  };
  const uint32_t ppb = dev_->geometry().pages_per_block;
  // Live differentials of the victim are compacted into fresh differential
  // pages written directly (not through the one-page write buffer, whose
  // premature flushes would fragment unrelated pending differentials). They
  // collect in parsed_[0, compacted).
  size_t compacted = 0;
  // GC must emit fewer pages than the erases will reclaim, or the free list
  // drains. Track the pages this run has produced (relocated bases, merge
  // output, compaction output estimate) and stop merging -- the only
  // discretionary output -- once the budget is nearly spent. The budget
  // scales with the group: every victim's pages come back with the erase.
  const uint32_t reclaim_budget =
      ppb * static_cast<uint32_t>(victims.size());
  uint32_t output_pages = 0;
  size_t compacted_bytes = 0;
  auto output_estimate = [&]() {
    return output_pages +
           static_cast<uint32_t>((compacted_bytes + data_size_ - 1) /
                                 data_size_);
  };
  auto scan_victim = [&](uint32_t block) -> Status {
    for (uint32_t p = 0; p < ppb; ++p) {
      const PhysAddr addr = dev_->AddrOf(block, p);
      if (bm_.state(addr) != ftl::PageState::kValid) continue;
      // Corrupt live data must not be relocated as if it were good: the
      // verified read surfaces the typed error instead of laundering bad
      // bits into a fresh page.
      ftl::SpareInfo info;
      FLASHDB_RETURN_IF_ERROR(
          ftl::ReadVerifiedPage(dev_, addr, page_scratch_, {}, &info));
      if (IsLiveBase(addr, info)) {
        // The original timestamp keeps the page's differential (if any)
        // post-dating its base during crash recovery.
        FLASHDB_RETURN_IF_ERROR(RelocateBasePage(info, page_scratch_));
        counters_.gc_bases_moved++;
        ++output_pages;
      } else if (info.type == ftl::PageType::kDiff) {
        // Collect the valid differentials; dead records vanish with the
        // erase.
        BufferReader reader(page_scratch_);
        Status parse_status;
        while (Differential::ParseNext(&reader, &ParsedSlot(compacted),
                                       &parse_status)) {
          const Differential& d = parsed_[compacted];
          if (d.pid() >= num_pages_ || map_.diff(d.pid()) != addr) continue;
          // The record leaves this page either way; the erase below reclaims
          // the page, so the zero-count obsolete mark is skipped.
          map_.DetachDiff(d.pid());
          FLASHDB_ASSIGN_OR_RETURN(const bool unref,
                                   map_.ReleaseDiffRef(addr));
          (void)unref;
          if (buffer_.Contains(d.pid())) continue;  // newer version in memory
          // Merging pays off only for big differentials: it trades d bytes of
          // compaction output for a full page write, but permanently removes
          // d live bytes and obsoletes the old base. Small differentials are
          // always cheaper to compact.
          // Merge only while this run's output stays safely below what the
          // erases will reclaim (merging is the only discretionary output).
          if (d.EncodedSize() >= data_size_ / kGcMergeDivisor &&
              output_estimate() + 2 < reclaim_budget - 4) {
            ++output_pages;
            // Merge the differential into a fresh base page: shrinks the live
            // footprint (base + differential -> one page) and guarantees GC
            // makes global progress even when the chip is nearly full of live
            // data.
            const PageId pid = d.pid();
            FLASHDB_RETURN_IF_ERROR(
                ftl::ReadVerifiedPage(dev_, map_.base(pid), base_scratch_));
            FLASHDB_RETURN_IF_ERROR(d.ApplyTo(base_scratch_));
            FLASHDB_ASSIGN_OR_RETURN(PhysAddr q,
                                     bm_.AllocatePage(true, kBaseStream));
            FLASHDB_RETURN_IF_ERROR(
                ProgramBase(q, pid, clock_.Next(), base_scratch_));
            const PhysAddr old_bp = map_.base(pid);
            // Skip the obsolete mark when the old base sits in any victim of
            // the group: the erases below reclaim it anyway.
            if (!in_victims(dev_->BlockOf(old_bp)) &&
                bm_.state(old_bp) == ftl::PageState::kValid) {
              FLASHDB_RETURN_IF_ERROR(bm_.MarkObsolete(old_bp));
            }
            map_.SetBase(pid, q);
            counters_.gc_diffs_merged++;
            continue;
          }
          compacted_bytes += d.EncodedSize();
          ++compacted;
          counters_.gc_diffs_compacted++;
        }
        FLASHDB_RETURN_IF_ERROR(parse_status);
      }
      // Stale bases and unknown page types are dropped with the erase below.
    }
    return Status::OK();
  };
  for (uint32_t block : victims) {
    FLASHDB_RETURN_IF_ERROR(scan_victim(block));
  }
  // Write the compacted differentials, densely packed, before destroying
  // their old home (durability: they exist nowhere else). The scan above
  // detached them, so no old page is released.
  FLASHDB_RETURN_IF_ERROR(
      WriteDiffPages(std::span(parsed_).first(compacted), /*for_gc=*/true));
  for (uint32_t block : victims) {
    for (uint32_t p = 0; p < ppb; ++p) {
      map_.ForgetPhysPage(dev_->AddrOf(block, p));
    }
  }
  return bm_.EraseAndFreeGroup(victims);
}

Status PdlStore::Recover() {
  FLASHDB_RETURN_IF_ERROR(ValidateConfig());
  buffer_.Clear();
  return RecoverBases([&](PhysAddr addr, const ftl::SpareInfo& info) {
    if (info.type != ftl::PageType::kDiff) {
      // Foreign or invalid type: unusable, reclaim via GC.
      return bm_.MarkObsoleteForRecovery(addr);
    }
    // Case 2: r is a differential page -- inspect each differential (case 1,
    // a base page, is the core's). Re-read data+spare in one verified read.
    FLASHDB_RETURN_IF_ERROR(ftl::ReadVerifiedPage(dev_, addr, page_scratch_));
    BufferReader reader(page_scratch_);
    Differential& d = ParsedSlot(0);
    Status parse_status;
    while (Differential::ParseNext(&reader, &d, &parse_status)) {
      if (d.pid() >= map_.num_pids()) continue;
      clock_.Observe(d.timestamp());
      const ftl::MappingTable::DiffReplay r =
          map_.ReplayDiff(d.pid(), addr, d.timestamp(),
                          static_cast<uint32_t>(d.EncodedSize()));
      if (r.accepted) {
        FLASHDB_RETURN_IF_ERROR(ReleaseDiffForRecovery(r.displaced_diff));
      }
    }
    FLASHDB_RETURN_IF_ERROR(parse_status);
    if (map_.vdct(addr) == 0) return bm_.MarkObsoleteForRecovery(addr);
    bm_.SetValidForRecovery(addr);
    return Status::OK();
  });
}

}  // namespace flashdb::pdl
