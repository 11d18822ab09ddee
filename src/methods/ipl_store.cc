#include "methods/ipl_store.h"

#include <algorithm>
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

/// Walks a slot's record list without applying it: bounds-checks every
/// record header and verifies the slot CRC. Returns the payload length in
/// `record_bytes`.
Status CheckSlot(ConstBytes slot_bytes, size_t* record_bytes) {
  BufferReader r(slot_bytes);
  r.GetU32();  // owner
  const uint16_t count = r.GetU16();
  const uint32_t stored_crc = r.GetU32();
  const size_t start = r.position();
  for (uint16_t i = 0; i < count; ++i) {
    r.GetU16();  // offset
    const uint16_t len = r.GetU16();
    r.GetBytes(len);
    if (r.failed()) return Status::Corruption("malformed IPL slot records");
  }
  *record_bytes = r.position() - start;
  if (SlotCrc(slot_bytes, *record_bytes) != stored_crc) {
    return Status::Corruption("uncorrectable read: IPL slot CRC mismatch");
  }
  return Status::OK();
}

/// Applies `count` serialized records {offset u16, length u16, bytes} from
/// `r` onto `page`. A record running past the buffer or the page is
/// Corruption.
Status ApplyRecords(BufferReader* r, uint32_t count, MutBytes page) {
  for (uint32_t i = 0; i < count; ++i) {
    const uint16_t off = r->GetU16();
    const uint16_t len = r->GetU16();
    ConstBytes data = r->GetBytes(len);
    if (r->failed() || static_cast<size_t>(off) + len > page.size()) {
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
                                           PhysAddr addr, MutBytes spare) {
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
      data_size_(dev->geometry().data_size),
      spare_size_(dev->geometry().spare_size) {
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
  const uint32_t grp = LogicalBlockOf(pid);
  const uint32_t block = block_map_[grp];
  const PhysAddr orig = dev_->AddrOf(block, pid % orig_per_block_);
  // Read the original page (CRC-verified end to end)...
  FLASHDB_RETURN_IF_ERROR(ftl::ReadVerifiedPage(dev_, orig, out));
  // ...then only the log pages of the same block holding this page's logs.
  const auto& slots = pid_slots_[pid];
  ByteBuffer log_page(data_size_);
  int32_t loaded_page = -1;
  for (uint16_t slot : slots) {
    const uint32_t lp = LogPageOfIndex(slot);
    if (static_cast<int32_t>(lp) != loaded_page) {
      const PhysAddr addr = dev_->AddrOf(block, orig_per_block_ + lp);
      // Log pages carry no spare data CRC (integrity lives in the per-slot
      // CRC, checked by ApplySlot); this still verifies the spare metadata.
      FLASHDB_RETURN_IF_ERROR(ftl::ReadVerifiedPage(dev_, addr, log_page));
      loaded_page = static_cast<int32_t>(lp);
    }
    const uint32_t s = SlotOfIndex(slot);
    bool belongs = false;
    FLASHDB_RETURN_IF_ERROR(
        ApplySlot(ConstBytes(log_page.data() + s * slot_size_, slot_size_),
                  pid, out, &belongs));
    if (!belongs) {
      return Status::Corruption("slot index table points at foreign slot");
    }
  }
  // Finally the logs still pending in memory.
  BufferReader pending(pending_[pid].bytes);
  return ApplyRecords(&pending, pending_[pid].count, out);
}

Status IplStore::ApplySlot(ConstBytes slot_bytes, PageId pid, MutBytes page,
                           bool* belongs) {
  *belongs = false;
  BufferReader r(slot_bytes);
  const uint32_t owner = r.GetU32();
  if (owner != pid) return Status::OK();
  *belongs = true;
  size_t record_bytes = 0;
  FLASHDB_RETURN_IF_ERROR(CheckSlot(slot_bytes, &record_bytes));
  const uint16_t count = r.GetU16();
  r.GetU32();  // slot CRC, verified by CheckSlot above
  return ApplyRecords(&r, count, page);
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
  const uint32_t slot = next_slot_[grp]++;
  const uint32_t lp = LogPageOfIndex(slot);
  const uint32_t s = SlotOfIndex(slot);
  const uint32_t block = block_map_[grp];
  const PhysAddr addr = dev_->AddrOf(block, orig_per_block_ + lp);

  // Partial program: all-0xFF image except the slot's bytes.
  ByteBuffer image(data_size_, 0xFF);
  uint8_t* base = image.data() + s * slot_size_;
  EncodeFixed32(base, pid);
  EncodeFixed16(base + 4, pl.count);
  std::memcpy(base + kSlotHeaderSize, pl.bytes.data(), pl.bytes.size());
  EncodeFixed32(base + kSlotCrcOffset,
                SlotCrc(ConstBytes(base, slot_size_), pl.bytes.size()));
  // Unused tail of the slot must stay 0xFF? No: it must parse as "record list
  // exhausted", which the count field already guarantees. Leave it erased so
  // later slots in the same page remain programmable.
  if (s == 0 && dev_->IsErased(addr)) {
    ByteBuffer spare(spare_size_, 0xFF);
    ftl::EncodeSpare(spare, ftl::PageType::kLog, kEmptySlotPid - 1,
                     clock_.Next());
    FLASHDB_RETURN_IF_ERROR(dev_->ProgramPage(addr, image, spare));
  } else {
    // Later slots partial-program the already-written log page (1 bits leave
    // the earlier slots' cells untouched).
    FLASHDB_RETURN_IF_ERROR(dev_->PartialProgramPage(addr, image));
  }
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

  // Read the used log pages once and bucket records per pid, in slot order.
  const uint32_t used_slots = next_slot_[grp];
  const uint32_t used_log_pages =
      (used_slots + slots_per_page_ - 1) / slots_per_page_;
  std::unordered_map<PageId, ByteBuffer> logs;  // concatenated records
  std::unordered_map<PageId, uint32_t> log_counts;
  ByteBuffer log_page(data_size_);
  for (uint32_t lp = 0; lp < used_log_pages; ++lp) {
    const PhysAddr addr = dev_->AddrOf(old_block, orig_per_block_ + lp);
    FLASHDB_RETURN_IF_ERROR(ftl::ReadVerifiedPage(dev_, addr, log_page));
    for (uint32_t s = 0; s < slots_per_page_; ++s) {
      const uint32_t slot = lp * slots_per_page_ + s;
      if (slot >= used_slots) break;
      ConstBytes sb(log_page.data() + s * slot_size_, slot_size_);
      const uint32_t owner = DecodeFixed32(sb.data());
      if (owner == kEmptySlotPid) continue;
      // The erase below destroys the only copy of these records; verify the
      // slot CRC before they are folded into fresh original pages.
      size_t record_bytes = 0;
      FLASHDB_RETURN_IF_ERROR(CheckSlot(sb, &record_bytes));
      const uint16_t count = DecodeFixed16(sb.data() + 4);
      ByteBuffer& dst = logs[owner];
      dst.insert(dst.end(), sb.begin() + kSlotHeaderSize,
                 sb.begin() + kSlotHeaderSize + record_bytes);
      log_counts[owner] += count;
    }
  }

  // Rebuild each live original page and program it into the new block.
  ByteBuffer page(data_size_);
  ByteBuffer spare(spare_size_, 0xFF);
  const uint64_t merge_ts = clock_.Next();
  for (uint32_t i = 0; i < live; ++i) {
    const PageId pid = grp * orig_per_block_ + i;
    FLASHDB_RETURN_IF_ERROR(
        ftl::ReadVerifiedPage(dev_, dev_->AddrOf(old_block, i), page));
    auto it = logs.find(pid);
    if (it != logs.end()) {
      BufferReader r(it->second);
      FLASHDB_RETURN_IF_ERROR(ApplyRecords(&r, log_counts[pid], page));
    }
    std::fill(spare.begin(), spare.end(), 0xFF);
    ftl::EncodeSpare(spare, ftl::PageType::kOrig, pid, merge_ts, page);
    FLASHDB_RETURN_IF_ERROR(
        dev_->ProgramPage(dev_->AddrOf(new_block, i), page, spare));
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
  // Pass 1: inspect every block's original pages (spare reads) to find, per
  // logical block, the complete candidate with the highest timestamp.
  struct Candidate {
    uint32_t block = 0;
    uint64_t ts = 0;
    bool valid = false;
  };
  std::unordered_map<uint32_t, Candidate> winner;  // logical block -> choice
  std::vector<uint32_t> losers;
  ByteBuffer spare(spare_size_);
  uint32_t max_pid = 0;
  bool any = false;

  for (uint32_t b = 0; b < g.num_data_blocks(); ++b) {
    if (dev_->IsErased(dev_->AddrOf(b, 0))) continue;  // free block
    FLASHDB_ASSIGN_OR_RETURN(
        const ftl::SpareInfo first,
        ReadProgrammedSpare(dev_, dev_->AddrOf(b, 0), spare));
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
                               ReadProgrammedSpare(dev_, addr, spare));
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
    Candidate& cur = winner[grp];
    // Completeness is judged after num_pages_ is known; keep both candidates'
    // info by preferring higher (programmed, ts).
    Candidate cand{b, ts_max, true};
    auto better = [&](const Candidate& x, const Candidate& y) {
      return x.ts > y.ts;
    };
    if (!cur.valid) {
      cur = cand;
    } else {
      // Prefer the one with more programmed originals only when the newer is
      // an incomplete merge target; approximate by checking programmed count
      // lazily below. A merge target has strictly newer ts; it wins only if
      // it programmed at least as many pages as the old block.
      uint32_t cur_prog = 0;
      for (uint32_t i = 0; i < orig_per_block_; ++i) {
        if (!dev_->IsErased(dev_->AddrOf(cur.block, i))) ++cur_prog;
      }
      if (programmed >= cur_prog && better(cand, cur)) {
        losers.push_back(cur.block);
        cur = cand;
      } else if (programmed >= cur_prog && better(cur, cand)) {
        losers.push_back(b);
      } else if (programmed < cur_prog) {
        losers.push_back(b);  // incomplete merge target
      } else {
        losers.push_back(cur.block);
        cur = cand;
      }
    }
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
  ByteBuffer log_page(data_size_);
  for (uint32_t grp = 0; grp < num_groups_; ++grp) {
    const uint32_t block = block_map_[grp];
    if (block == flash::kNullAddr) continue;  // group without a surviving block
    uint32_t slot = 0;
    bool done = false;
    for (uint32_t lp = 0; lp < log_pages_per_block_ && !done; ++lp) {
      const PhysAddr addr = dev_->AddrOf(block, orig_per_block_ + lp);
      if (dev_->IsErased(addr)) break;
      FLASHDB_RETURN_IF_ERROR(ftl::ReadVerifiedPage(dev_, addr, log_page));
      for (uint32_t s = 0; s < slots_per_page_; ++s, ++slot) {
        ConstBytes sb(log_page.data() + s * slot_size_, slot_size_);
        const uint32_t owner = DecodeFixed32(sb.data());
        if (owner == kEmptySlotPid) {
          done = true;
          break;
        }
        // Recovery scans are data reads too: a slot either parses and passes
        // its CRC or recovery fails with the typed corruption error.
        size_t record_bytes = 0;
        FLASHDB_RETURN_IF_ERROR(CheckSlot(sb, &record_bytes));
        if (owner < num_pages_) {
          pid_slots_[owner].push_back(static_cast<uint16_t>(slot));
        }
      }
    }
    next_slot_[grp] = static_cast<uint16_t>(slot);
  }
  formatted_ = true;
  return Status::OK();
}

}  // namespace flashdb::methods
