#include "methods/ipl_store.h"

#include <algorithm>
#include <tuple>
#include <unordered_map>

#include "common/coding.h"
#include "common/crc32.h"

namespace flashdb::methods {

using flash::PhysAddr;

namespace {
/// Slot header: owning pid (u32) + record count (u16) + CRC-32C (u32).
///
/// Log pages carry no data CRC in their spare (the page's data area keeps
/// evolving via partial programs), but each *slot* is programmed exactly once
/// with its final bytes -- so integrity lives here instead: the CRC covers
/// the pid+count header fields and the record payload, and every slot parse
/// (read path, merge, recovery) verifies it before trusting the records.
constexpr uint32_t kSlotHeaderSize = 10;
constexpr uint32_t kSlotCrcOffset = 6;
/// Per-record header: offset (u16) + length (u16).
constexpr uint32_t kRecordHeaderSize = 4;
constexpr uint32_t kEmptySlotPid = 0xFFFFFFFFu;

/// CRC-32C over a slot's covered bytes: header fields before the CRC, then
/// `record_bytes` payload bytes starting right after the header.
uint32_t SlotCrc(ConstBytes slot_bytes, size_t record_bytes) {
  uint32_t crc = Crc32c(slot_bytes.subspan(0, kSlotCrcOffset));
  return Crc32c(slot_bytes.subspan(kSlotHeaderSize, record_bytes), crc);
}

/// A log slot: its owner and, for an owned slot, its record list.
struct Slot {
  uint32_t owner = kEmptySlotPid;
  uint16_t count = 0;
  ConstBytes records;  ///< `count` serialized records.
};

/// The one parser of a log slot. Reads the owner; for an owned slot it also
/// bounds-checks every record header against the slot and verifies the slot
/// CRC, so no record is trusted before both checks pass.
Result<Slot> ParseSlot(ConstBytes slot_bytes) {
  BufferReader r(slot_bytes);
  Slot slot;
  slot.owner = r.GetU32();
  if (slot.owner == kEmptySlotPid) return slot;
  slot.count = r.GetU16();
  const uint32_t stored_crc = r.GetU32();
  const size_t start = r.position();
  for (uint16_t i = 0; i < slot.count; ++i) {
    r.GetU16();  // offset
    r.GetBytes(r.GetU16());
    if (r.failed()) return Status::Corruption("malformed IPL slot records");
  }
  slot.records = slot_bytes.subspan(start, r.position() - start);
  if (SlotCrc(slot_bytes, slot.records.size()) != stored_crc) {
    return Status::Corruption("uncorrectable read: IPL slot CRC mismatch");
  }
  return slot;
}

/// Applies `count` serialized records {offset u16, length u16, bytes} from
/// `records` onto `page`. A record running past the buffer or the page is
/// Corruption.
Status ApplyRecords(ConstBytes records, uint32_t count, MutBytes page) {
  BufferReader r(records);
  for (uint32_t i = 0; i < count; ++i) {
    const uint16_t off = r.GetU16();
    const uint16_t len = r.GetU16();
    ConstBytes data = r.GetBytes(len);
    if (r.failed() || static_cast<size_t>(off) + len > page.size()) {
      return Status::Corruption("malformed IPL log record");
    }
    std::memcpy(page.data() + off, data.data(), len);
  }
  return Status::OK();
}

/// Reads the spare of `addr`, a page the device holds programmed. Programs
/// are atomic, so a spare that does not decode (bad magic or CRC) was misread
/// -- a read error, not a torn write -- and recovery must stop rather than
/// take the page's block for merge debris and erase it.
Result<ftl::SpareInfo> ReadProgrammedSpare(flash::FlashDevice* dev,
                                           PhysAddr addr) {
  uint8_t spare[flash::FlashGeometry::spare_size];
  FLASHDB_RETURN_IF_ERROR(dev->ReadSpare(addr, spare));
  const ftl::SpareInfo info = ftl::DecodeSpare(spare);
  if (info.programmed && info.crc_ok) return info;
  return Status::Corruption("uncorrectable read: IPL recovery cannot decode "
                            "the spare of page " + std::to_string(addr) +
                            " (block " + std::to_string(dev->BlockOf(addr)) +
                            ")");
}
}  // namespace

IplStore::IplStore(flash::FlashDevice* dev, const IplConfig& config)
    : dev_(dev),
      config_(config),
      data_size_(dev->geometry().data_size) {
  slot_size_ = data_size_ / kLogSlotDivisor;
  if (slot_size_ < kSlotHeaderSize + kRecordHeaderSize + 1) {
    slot_size_ = kSlotHeaderSize + kRecordHeaderSize + 1;
  }
  if (slot_size_ > data_size_) slot_size_ = data_size_;
  slots_per_page_ = data_size_ / slot_size_;
  const uint32_t ppb = dev->geometry().pages_per_block;
  log_pages_per_block_ = config_.log_bytes_per_block / data_size_;
  if (log_pages_per_block_ == 0) log_pages_per_block_ = 1;
  if (log_pages_per_block_ >= ppb) log_pages_per_block_ = ppb - 1;
  orig_per_block_ = ppb - log_pages_per_block_;
  slots_per_block_ = log_pages_per_block_ * slots_per_page_;
  max_record_payload_ = slot_size_ - kSlotHeaderSize - kRecordHeaderSize;
  name_ = "IPL(" + std::to_string(config_.log_bytes_per_block / 1024) + "KB)";
  log_pages_.resize(size_t{log_pages_per_block_} * data_size_);
  slot_image_.resize(data_size_);
  merge_page_.resize(data_size_);
}

uint32_t IplStore::LivePagesIn(uint32_t g) const {
  const uint32_t first = g * orig_per_block_;
  return std::min(orig_per_block_, num_pages_ - first);
}

Status IplStore::Format(uint32_t num_logical_pages, PageInitializer initial,
                        void* initial_arg) {
  FLASHDB_RETURN_IF_ERROR(CheckPageCount(num_logical_pages));
  // Log records store in-page offsets in 16 bits (lengths are at most one
  // slot, data_size / kLogSlotDivisor).
  FLASHDB_RETURN_IF_ERROR(Check16BitOffsets(name_, data_size_));
  const auto& g = dev_->geometry();
  num_groups_ = (num_logical_pages + orig_per_block_ - 1) / orig_per_block_;
  if (num_groups_ + 1 > g.num_data_blocks()) {
    return Status::NoSpace("IPL needs one block per " +
                           std::to_string(orig_per_block_) +
                           " logical pages plus one spare block");
  }
  // Block groups map to whole blocks with no bad-block remapping: a factory
  // bad block is fatal, not skipped.
  FLASHDB_RETURN_IF_ERROR(
      EraseForFormat(dev_, /*remaps_bad_blocks=*/false).status());
  clock_.Reset();
  num_pages_ = num_logical_pages;
  block_map_.resize(num_groups_);
  for (uint32_t grp = 0; grp < num_groups_; ++grp) block_map_[grp] = grp;
  next_slot_.assign(num_groups_, 0);
  pid_slots_.assign(num_pages_, {});
  pending_.assign(num_pages_, {});
  free_blocks_.clear();
  counters_ = IplCounters{};
  FLASHDB_RETURN_IF_ERROR(ProgramInitialPages(
      dev_, num_pages_, initial, initial_arg, ftl::PageType::kOrig, &clock_,
      [this](PageId pid) -> Result<PhysAddr> {
        return dev_->AddrOf(LogicalBlockOf(pid), pid % orig_per_block_);
      }));
  for (uint32_t b = num_groups_; b < g.num_data_blocks(); ++b) {
    free_blocks_.push_back(b);
  }
  formatted_ = true;
  return Status::OK();
}

Status IplStore::ReadPage(PageId pid, MutBytes out) {
  FLASHDB_RETURN_IF_ERROR(
      CheckPageArgs(formatted_, pid, num_pages_, out.size(), data_size_));
  const PhysAddr orig =
      dev_->AddrOf(block_map_[LogicalBlockOf(pid)], pid % orig_per_block_);
  // Read the original page (CRC-verified end to end)...
  FLASHDB_RETURN_IF_ERROR(ftl::ReadVerifiedPage(dev_, orig, out));
  // ...then only the log pages of the same block holding this page's logs...
  FLASHDB_RETURN_IF_ERROR(ApplyFlushedSlots(pid, out, /*read_log_pages=*/0));
  // ...and finally the logs still pending in memory.
  return ApplyRecords(pending_[pid].bytes, pending_[pid].count, out);
}

Status IplStore::ApplyFlushedSlots(PageId pid, MutBytes page,
                                   uint32_t read_log_pages) {
  const uint32_t block = block_map_[LogicalBlockOf(pid)];
  for (uint16_t slot : pid_slots_[pid]) {
    const uint32_t lp = LogPageOfIndex(slot);
    if (lp >= read_log_pages) {
      // Slots ascend, so each page is read once. Log pages carry no spare
      // data CRC (integrity lives in the per-slot CRC, checked by
      // ParseSlot); this still verifies the spare metadata.
      FLASHDB_RETURN_IF_ERROR(ftl::ReadVerifiedPage(
          dev_, dev_->AddrOf(block, orig_per_block_ + lp), LogPage(lp)));
      read_log_pages = lp + 1;
    }
    FLASHDB_ASSIGN_OR_RETURN(const Slot s, ParseSlot(SlotBytes(slot)));
    if (s.owner != pid) {
      return Status::Corruption("slot index table points at foreign slot");
    }
    FLASHDB_RETURN_IF_ERROR(ApplyRecords(s.records, s.count, page));
  }
  return Status::OK();
}

Status IplStore::OnUpdate(PageId pid, ConstBytes page_after,
                          const UpdateLog& log) {
  FLASHDB_RETURN_IF_ERROR(CheckPageArgs(formatted_, pid, num_pages_,
                                        page_after.size(), data_size_));
  if (log.offset + log.data.size() > data_size_) {
    return Status::InvalidArgument("update log beyond page bounds");
  }
  // Chunk oversized logs so each record fits an empty slot.
  size_t pos = 0;
  const size_t n = log.data.size();
  if (n > max_record_payload_) counters_.chunked_logs++;
  do {
    const size_t chunk = std::min<size_t>(n - pos, max_record_payload_);
    FLASHDB_RETURN_IF_ERROR(
        AppendRecord(pid, log.offset + static_cast<uint32_t>(pos),
                     ConstBytes(log.data.data() + pos, chunk)));
    pos += chunk;
  } while (pos < n);
  return Status::OK();
}

Status IplStore::AppendRecord(PageId pid, uint32_t offset, ConstBytes data) {
  PendingLogs& pl = pending_[pid];
  const size_t rec = kRecordHeaderSize + data.size();
  const size_t capacity = slot_size_ - kSlotHeaderSize;
  if (pl.bytes.size() + rec > capacity) {
    // "When this buffer is full, it is written into [the log region]."
    FLASHDB_RETURN_IF_ERROR(FlushPending(pid));
  }
  BufferWriter w(&pl.bytes);
  w.PutU16(static_cast<uint16_t>(offset));
  w.PutU16(static_cast<uint16_t>(data.size()));
  w.PutBytes(data);
  pl.count++;
  return Status::OK();
}

Status IplStore::FlushPending(PageId pid) {
  PendingLogs& pl = pending_[pid];
  if (pl.count == 0) return Status::OK();
  const uint32_t grp = LogicalBlockOf(pid);
  if (next_slot_[grp] >= slots_per_block_) {
    // No free log slot: merge originals with logs into a fresh block.
    FLASHDB_RETURN_IF_ERROR(MergeBlock(grp));
  }
  const uint32_t slot = next_slot_[grp];
  const uint32_t lp = LogPageOfIndex(slot);
  const uint32_t s = SlotOfIndex(slot);
  const uint32_t block = block_map_[grp];
  const PhysAddr addr = dev_->AddrOf(block, orig_per_block_ + lp);

  // Partial program: an all-0xFF image except the slot's bytes. The count
  // field ends the slot's record list, so its unused tail stays erased, like
  // the later slots, which remain programmable.
  std::fill(slot_image_.begin(), slot_image_.end(), 0xFF);
  uint8_t* base = slot_image_.data() + s * slot_size_;
  EncodeFixed32(base, pid);
  EncodeFixed16(base + 4, pl.count);
  std::memcpy(base + kSlotHeaderSize, pl.bytes.data(), pl.bytes.size());
  EncodeFixed32(base + kSlotCrcOffset,
                SlotCrc(ConstBytes(base, slot_size_), pl.bytes.size()));
  if (s == 0 && dev_->IsErased(addr)) {
    uint8_t spare[flash::FlashGeometry::spare_size];
    ftl::EncodeSpare(spare, ftl::PageType::kLog, kEmptySlotPid - 1,
                     clock_.Next());
    FLASHDB_RETURN_IF_ERROR(dev_->ProgramPage(addr, slot_image_, spare));
  } else {
    // Later slots partial-program the already-written log page (1 bits leave
    // the earlier slots' cells untouched).
    FLASHDB_RETURN_IF_ERROR(dev_->PartialProgramPage(addr, slot_image_));
  }
  // Take the slot only now: a failed program leaves its cells erased, and
  // recovery stops at the first erased slot, so a skipped slot would hide
  // every later one. The retry reuses it.
  next_slot_[grp] = static_cast<uint16_t>(slot + 1);
  pid_slots_[pid].push_back(static_cast<uint16_t>(slot));
  pl.bytes.clear();
  pl.count = 0;
  counters_.slot_writes++;
  return Status::OK();
}

Status IplStore::WriteBack(PageId pid, ConstBytes page) {
  FLASHDB_RETURN_IF_ERROR(
      CheckPageArgs(formatted_, pid, num_pages_, page.size(), data_size_));
  // Log-based: reflecting a page means persisting its pending update logs.
  return FlushPending(pid);
}

Status IplStore::Flush() {
  FLASHDB_RETURN_IF_ERROR(CheckFormatted(formatted_));
  for (PageId pid = 0; pid < num_pages_; ++pid) {
    if (pending_[pid].count != 0) FLASHDB_RETURN_IF_ERROR(FlushPending(pid));
  }
  return Status::OK();
}

Status IplStore::MergeBlock(uint32_t grp) {
  flash::CategoryScope cat(dev_, flash::OpCategory::kGc);
  if (free_blocks_.empty()) {
    return Status::NoSpace("IPL merge has no free block");
  }
  counters_.merges++;
  const uint32_t old_block = block_map_[grp];
  const uint32_t new_block = free_blocks_.front();
  free_blocks_.pop_front();
  const uint32_t live = LivePagesIn(grp);

  // Read the used log pages once. The erase below destroys the only copy of
  // their records, so every used slot is verified before anything is
  // programmed.
  const uint32_t used_slots = next_slot_[grp];
  for (uint32_t slot = 0; slot < used_slots; ++slot) {
    if (SlotOfIndex(slot) == 0) {
      const uint32_t lp = LogPageOfIndex(slot);
      FLASHDB_RETURN_IF_ERROR(ftl::ReadVerifiedPage(
          dev_, dev_->AddrOf(old_block, orig_per_block_ + lp), LogPage(lp)));
    }
    FLASHDB_RETURN_IF_ERROR(ParseSlot(SlotBytes(slot)).status());
  }
  const uint32_t used_log_pages =
      (used_slots + slots_per_page_ - 1) / slots_per_page_;

  // Rebuild each live original page and program it into the new block.
  uint8_t spare[flash::FlashGeometry::spare_size];
  const uint64_t merge_ts = clock_.Next();
  for (uint32_t i = 0; i < live; ++i) {
    const PageId pid = grp * orig_per_block_ + i;
    FLASHDB_RETURN_IF_ERROR(
        ftl::ReadVerifiedPage(dev_, dev_->AddrOf(old_block, i), merge_page_));
    FLASHDB_RETURN_IF_ERROR(
        ApplyFlushedSlots(pid, merge_page_, used_log_pages));
    ftl::EncodeSpare(spare, ftl::PageType::kOrig, pid, merge_ts, merge_page_);
    FLASHDB_RETURN_IF_ERROR(
        dev_->ProgramPage(dev_->AddrOf(new_block, i), merge_page_, spare));
    pid_slots_[pid].clear();
  }
  // The old block is subsequently erased and garbage-collected.
  FLASHDB_RETURN_IF_ERROR(dev_->EraseBlock(old_block));
  free_blocks_.push_back(old_block);
  block_map_[grp] = new_block;
  next_slot_[grp] = 0;
  return Status::OK();
}

Status IplStore::ScrubPhysPage(flash::PhysAddr addr, bool* relocated) {
  *relocated = false;
  FLASHDB_RETURN_IF_ERROR(CheckFormatted(formatted_));
  if (addr >= dev_->geometry().data_pages()) return Status::OK();
  // Find the logical block mapped to this physical block (reverse lookup;
  // num_groups_ is small). A free/unmapped block needs no scrub -- the next
  // merge into it erases it first.
  const uint32_t block = dev_->BlockOf(addr);
  for (uint32_t g = 0; g < num_groups_; ++g) {
    if (block_map_[g] == block) {
      FLASHDB_RETURN_IF_ERROR(MergeBlock(g));
      *relocated = true;
      return Status::OK();
    }
  }
  return Status::OK();
}

uint32_t IplStore::LogPagesOf(PageId pid) const {
  uint32_t n = 0;
  int32_t last = -1;
  for (uint16_t slot : pid_slots_[pid]) {
    const int32_t lp = static_cast<int32_t>(LogPageOfIndex(slot));
    if (lp != last) {
      ++n;
      last = lp;
    }
  }
  return n;
}

Status IplStore::Recover() {
  FLASHDB_RETURN_IF_ERROR(Check16BitOffsets(name_, data_size_));
  flash::CategoryScope cat(dev_, flash::OpCategory::kRecovery);
  const auto& g = dev_->geometry();
  clock_.Reset();
  // Pass 1: inspect every block's original pages (spare reads) and keep one
  // block per logical block. A merge cut short leaves its target with fewer
  // programmed originals than its complete source, and a target drawn from
  // the recycled free list can sit below its source, so the scan may meet
  // either first. The block with more programmed originals wins; among
  // complete copies the newer, the merge output, does.
  struct Candidate {
    uint32_t block;
    uint32_t programmed;
    uint64_t ts;
  };
  std::unordered_map<uint32_t, Candidate> winner;  // logical block -> choice
  std::vector<uint32_t> losers;
  uint32_t max_pid = 0;
  bool any = false;

  for (uint32_t b = 0; b < g.num_data_blocks(); ++b) {
    if (dev_->IsErased(dev_->AddrOf(b, 0))) continue;  // free block
    FLASHDB_ASSIGN_OR_RETURN(const ftl::SpareInfo first,
                             ReadProgrammedSpare(dev_, dev_->AddrOf(b, 0)));
    if (first.type != ftl::PageType::kOrig) {
      losers.push_back(b);  // foreign block
      continue;
    }
    const uint32_t grp = first.pid / orig_per_block_;
    uint64_t ts_max = 0;
    uint32_t programmed = 0;
    bool consistent = (first.pid % orig_per_block_ == 0);
    for (uint32_t i = 0; i < orig_per_block_ && consistent; ++i) {
      const PhysAddr addr = dev_->AddrOf(b, i);
      if (dev_->IsErased(addr)) break;  // a merge target cut short
      FLASHDB_ASSIGN_OR_RETURN(const ftl::SpareInfo info,
                               ReadProgrammedSpare(dev_, addr));
      if (info.type != ftl::PageType::kOrig ||
          info.pid != grp * orig_per_block_ + i) {
        consistent = false;
        break;
      }
      ++programmed;
      ts_max = std::max(ts_max, info.timestamp);
      if (!any || info.pid > max_pid) max_pid = info.pid;
      any = true;
    }
    if (!consistent) {
      losers.push_back(b);
      continue;
    }
    clock_.Observe(ts_max);
    const Candidate cand{b, programmed, ts_max};
    const auto [it, first_seen] = winner.try_emplace(grp, cand);
    if (first_seen) continue;
    Candidate& cur = it->second;
    const bool cand_wins = std::tie(cand.programmed, cand.ts) >
                           std::tie(cur.programmed, cur.ts);
    losers.push_back(cand_wins ? cur.block : b);
    if (cand_wins) cur = cand;
  }

  num_pages_ = any ? max_pid + 1 : 0;
  num_groups_ = (num_pages_ + orig_per_block_ - 1) / orig_per_block_;
  block_map_.assign(num_groups_, flash::kNullAddr);
  next_slot_.assign(num_groups_, 0);
  pid_slots_.assign(num_pages_, {});
  pending_.assign(num_pages_, {});
  free_blocks_.clear();

  std::vector<bool> used(g.num_blocks, false);
  for (auto& [grp, cand] : winner) {
    if (grp >= num_groups_) continue;
    block_map_[grp] = cand.block;
    used[cand.block] = true;
  }
  // Erase leftover merge debris so those blocks are reusable.
  for (uint32_t b : losers) {
    FLASHDB_RETURN_IF_ERROR(dev_->EraseBlock(b));
  }
  for (uint32_t b = 0; b < g.num_data_blocks(); ++b) {
    if (!used[b] && dev_->IsErased(dev_->AddrOf(b, 0))) {
      free_blocks_.push_back(b);
    }
  }

  // Pass 2: rebuild the slot tables from each winner's log region.
  for (uint32_t grp = 0; grp < num_groups_; ++grp) {
    const uint32_t block = block_map_[grp];
    if (block == flash::kNullAddr) continue;  // group without a surviving block
    uint32_t slot = 0;
    for (; slot < slots_per_block_; ++slot) {
      if (SlotOfIndex(slot) == 0) {
        const uint32_t lp = LogPageOfIndex(slot);
        const PhysAddr addr = dev_->AddrOf(block, orig_per_block_ + lp);
        if (dev_->IsErased(addr)) break;
        FLASHDB_RETURN_IF_ERROR(ftl::ReadVerifiedPage(dev_, addr, LogPage(lp)));
      }
      // Recovery scans are data reads too: a slot either parses and passes
      // its CRC or recovery fails with the typed corruption error.
      FLASHDB_ASSIGN_OR_RETURN(const Slot parsed, ParseSlot(SlotBytes(slot)));
      if (parsed.owner == kEmptySlotPid) break;
      if (parsed.owner < num_pages_) {
        pid_slots_[parsed.owner].push_back(static_cast<uint16_t>(slot));
      }
    }
    next_slot_[grp] = static_cast<uint16_t>(slot);
  }
  formatted_ = true;
  return Status::OK();
}

}  // namespace flashdb::methods
