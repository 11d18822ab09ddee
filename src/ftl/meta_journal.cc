#include "ftl/meta_journal.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <string>

#include "common/coding.h"
#include "common/crc32.h"
#include "ftl/spare_codec.h"
#include "obs/trace_recorder.h"

namespace flashdb::ftl {

namespace {

constexpr uint32_t kFrameMagic = 0x4A4D4446;  // 'FDMJ' little-endian
constexpr uint32_t kFrameHeaderSize = 32;

struct FrameHeader {
  uint64_t seq = 0;
  uint32_t frame_index = 0;
  uint32_t frame_count = 0;
  uint32_t payload_len = 0;
  uint32_t record_crc = 0;
};

/// Outcome of parsing one programmed meta page as a journal frame. The
/// distinction matters for recovery semantics: a page without the frame
/// magic was never a journal frame (foreign data), while a page that
/// carries the magic but fails validation held a frame whose bits rotted --
/// that is corruption, not a clean torn end.
enum class FrameParse {
  kOk,
  kNotAFrame,  ///< No frame magic: foreign or garbage page.
  kBadCrc,     ///< Magic present but header nonsense or frame-CRC mismatch.
};

/// Parses and validates one frame's header + frame CRC.
FrameParse ParseFrame(ConstBytes data, uint32_t payload_cap,
                      FrameHeader* hdr) {
  if (data.size() < kFrameHeaderSize) return FrameParse::kNotAFrame;
  if (DecodeFixed32(data.data()) != kFrameMagic) return FrameParse::kNotAFrame;
  hdr->seq = DecodeFixed64(data.data() + 4);
  hdr->frame_index = DecodeFixed32(data.data() + 12);
  hdr->frame_count = DecodeFixed32(data.data() + 16);
  hdr->payload_len = DecodeFixed32(data.data() + 20);
  hdr->record_crc = DecodeFixed32(data.data() + 24);
  const uint32_t frame_crc = DecodeFixed32(data.data() + 28);
  if (hdr->frame_count == 0 || hdr->frame_index >= hdr->frame_count) {
    return FrameParse::kBadCrc;
  }
  if (hdr->payload_len > payload_cap) return FrameParse::kBadCrc;
  uint32_t crc = Crc32c(data.subspan(0, 28));
  crc = Crc32c(data.subspan(kFrameHeaderSize, hdr->payload_len), crc);
  return crc == frame_crc ? FrameParse::kOk : FrameParse::kBadCrc;
}

}  // namespace

MetaJournal::MetaJournal(flash::FlashDevice* dev) : dev_(dev) {
  const auto& g = dev_->geometry();
  assert(g.meta_blocks >= 2 &&
         "MetaJournal needs >= 2 reserved meta blocks (ping-pong halves)");
  assert(g.data_size >= 2 * kFrameHeaderSize && "page too small for frames");
  first_meta_block_ = g.num_data_blocks();
  half_blocks_ = g.meta_blocks / 2;
  pages_per_block_ = g.pages_per_block;
  data_size_ = g.data_size;
}

uint32_t MetaJournal::PayloadPerFrame() const {
  return data_size_ - kFrameHeaderSize;
}

uint32_t MetaJournal::FramesFor(size_t bytes) const {
  return static_cast<uint32_t>((bytes + PayloadPerFrame() - 1) /
                               PayloadPerFrame());
}

flash::PhysAddr MetaJournal::HalfStart(uint32_t half) const {
  return (first_meta_block_ + half * half_blocks_) * pages_per_block_;
}

Status MetaJournal::EraseHalf(uint32_t half) {
  flash::CategoryScope cat(dev_, flash::OpCategory::kMeta);
  for (uint32_t b = 0; b < half_blocks_; ++b) {
    const uint32_t block = first_meta_block_ + half * half_blocks_ + b;
    bool dirty = false;
    for (uint32_t p = 0; p < pages_per_block_ && !dirty; ++p) {
      dirty = !dev_->IsErased(dev_->AddrOf(block, p));
    }
    if (dirty) FLASHDB_RETURN_IF_ERROR(dev_->EraseBlock(block));
  }
  return Status::OK();
}

Status MetaJournal::Format() {
  FLASHDB_RETURN_IF_ERROR(EraseHalf(0));
  FLASHDB_RETURN_IF_ERROR(EraseHalf(1));
  active_half_ = 0;
  next_page_ = 0;
  next_seq_ = 0;
  next_epoch_ = 0;
  last_snapshot_.reset();
  return Status::OK();
}

// Serialize and Deserialize must stay in lock-step.
std::vector<uint8_t> MetaJournal::Serialize(const Record& rec) const {
  ByteBuffer out;
  BufferWriter w(&out);
  w.PutU8(static_cast<uint8_t>(rec.type));
  w.PutU64(rec.epoch);
  if (rec.type == Record::Type::kComplete) return out;
  w.PutU32(rec.num_pages);
  w.PutU32(rec.num_shards);
  w.PutU32(rec.buckets_per_shard);
  w.PutU64(rec.swaps_committed);
  w.PutU32(static_cast<uint32_t>(rec.shard_of_bucket.size()));
  for (uint32_t v : rec.shard_of_bucket) w.PutU32(v);
  for (uint32_t v : rec.slot_of_bucket) w.PutU32(v);
  w.PutU32(static_cast<uint32_t>(rec.erase_baseline.size()));
  for (uint64_t v : rec.erase_baseline) w.PutU64(v);
  w.PutU32(static_cast<uint32_t>(rec.bad_blocks.size()));
  for (const std::vector<uint32_t>& list : rec.bad_blocks) {
    w.PutU32(static_cast<uint32_t>(list.size()));
    for (uint32_t b : list) w.PutU32(b);
  }
  w.PutU32(static_cast<uint32_t>(rec.redo.size()));
  for (const RedoSet& set : rec.redo) {
    w.PutU32(set.shard);
    w.PutU32(static_cast<uint32_t>(set.inner_pids.size()));
    w.PutU32(data_size_);
    for (PageId pid : set.inner_pids) w.PutU32(pid);
    for (const ByteBuffer& img : set.images) {
      assert(img.size() == data_size_ && "redo images must be full pages");
      w.PutBytes(img);
    }
  }
  return out;
}

Status MetaJournal::Deserialize(ConstBytes bytes, Record* rec) {
  BufferReader r(bytes);
  const uint8_t type = r.GetU8();
  rec->epoch = r.GetU64();
  if (r.failed()) return Status::Corruption("meta record truncated");
  if (type == static_cast<uint8_t>(Record::Type::kComplete)) {
    rec->type = Record::Type::kComplete;
    return r.remaining() == 0
               ? Status::OK()
               : Status::Corruption("meta complete-record overlong");
  }
  if (type != static_cast<uint8_t>(Record::Type::kSnapshot)) {
    return Status::Corruption("unknown meta record type " +
                              std::to_string(type));
  }
  rec->type = Record::Type::kSnapshot;
  rec->num_pages = r.GetU32();
  rec->num_shards = r.GetU32();
  rec->buckets_per_shard = r.GetU32();
  rec->swaps_committed = r.GetU64();
  const uint32_t buckets = r.GetU32();
  if (r.failed()) return Status::Corruption("meta snapshot truncated");
  if (rec->num_shards == 0 || rec->buckets_per_shard == 0 ||
      buckets != rec->num_shards * rec->buckets_per_shard ||
      r.remaining() < static_cast<size_t>(buckets) * 8) {
    return Status::Corruption("meta snapshot bucket count inconsistent");
  }
  rec->shard_of_bucket.resize(buckets);
  rec->slot_of_bucket.resize(buckets);
  for (uint32_t& v : rec->shard_of_bucket) v = r.GetU32();
  for (uint32_t& v : rec->slot_of_bucket) v = r.GetU32();
  const uint32_t baselines = r.GetU32();
  if (r.failed() || baselines != rec->num_shards ||
      r.remaining() < static_cast<size_t>(baselines) * 8) {
    return Status::Corruption("meta snapshot baseline count inconsistent");
  }
  rec->erase_baseline.resize(baselines);
  for (uint64_t& v : rec->erase_baseline) v = r.GetU64();
  const uint32_t bad_lists = r.GetU32();
  if (r.failed() || bad_lists != rec->num_shards) {
    return Status::Corruption("meta snapshot bad-block list count mismatch");
  }
  rec->bad_blocks.assign(bad_lists, {});
  for (std::vector<uint32_t>& list : rec->bad_blocks) {
    const uint32_t n = r.GetU32();
    if (r.failed() || r.remaining() < static_cast<size_t>(n) * 4) {
      return Status::Corruption("meta snapshot bad-block list truncated");
    }
    list.resize(n);
    for (uint32_t& b : list) b = r.GetU32();
  }
  const uint32_t redo_sets = r.GetU32();
  if (r.failed()) return Status::Corruption("meta snapshot truncated");
  rec->redo.resize(redo_sets);
  for (RedoSet& set : rec->redo) {
    set.shard = r.GetU32();
    const uint32_t count = r.GetU32();
    const uint32_t image_size = r.GetU32();
    const size_t per_entry = 4 + static_cast<size_t>(image_size);
    if (r.failed() || r.remaining() < count * per_entry) {
      return Status::Corruption("meta redo set truncated");
    }
    set.inner_pids.resize(count);
    for (PageId& pid : set.inner_pids) pid = r.GetU32();
    set.images.reserve(count);
    for (uint32_t k = 0; k < count; ++k) {
      const ConstBytes img = r.GetBytes(image_size);
      set.images.emplace_back(img.begin(), img.end());
    }
  }
  if (r.failed()) return Status::Corruption("meta redo set truncated");
  return r.remaining() == 0 ? Status::OK()
                            : Status::Corruption("meta snapshot overlong");
}

uint32_t MetaJournal::frames_needed(const Record& rec) const {
  return FramesFor(Serialize(rec).size());
}

MetaJournal::Record MetaJournal::Stripped(const Record& rec) {
  Record copy = rec;
  copy.redo.clear();
  return copy;
}

Status MetaJournal::Append(const Record& rec) {
  if (rec.type == Record::Type::kSnapshot && rec.epoch != next_epoch_) {
    return Status::InvalidArgument(
        "snapshot epoch " + std::to_string(rec.epoch) + " breaks the chain "
        "(expected " + std::to_string(next_epoch_) + ")");
  }
  const std::vector<uint8_t> bytes = Serialize(rec);
  const uint32_t frames = FramesFor(bytes.size());
  if (frames > half_pages()) {
    return Status::NoSpace(
        "meta record needs " + std::to_string(frames) + " frames but a "
        "journal half holds " + std::to_string(half_pages()) +
        " pages -- reserve more meta_blocks");
  }
  if (next_page_ + frames > half_pages()) {
    // Ping-pong switch: the other half only holds records older than
    // everything in the (full) active half, so erasing it cannot destroy
    // anything newer. To keep the every-half-starts-with-a-snapshot
    // invariant (the full half we keep may later be erased by the *next*
    // switch), a switch for a non-snapshot record first re-checkpoints the
    // newest snapshot into the fresh half. The redo payload is stripped:
    // non-snapshot appends (kComplete) only happen once the epoch's copies
    // are durable, so the payload is no longer needed.
    const uint32_t other = 1 - active_half_;
    FLASHDB_RETURN_IF_ERROR(EraseHalf(other));
    active_half_ = other;
    next_page_ = 0;
    if (rec.type != Record::Type::kSnapshot && last_snapshot_ != nullptr) {
      FLASHDB_RETURN_IF_ERROR(
          WriteRecord(last_snapshot_->epoch, Serialize(*last_snapshot_)));
    }
    if (next_page_ + frames > half_pages()) {
      return Status::NoSpace(
          "meta record does not fit beside the switch-time re-checkpoint -- "
          "reserve more meta_blocks");
    }
  }
  const uint64_t start = dev_->clock().now_us();
  FLASHDB_RETURN_IF_ERROR(WriteRecord(rec.epoch, bytes));
  if (dev_->trace() != nullptr) {
    dev_->trace()->Emit(obs::TraceCat::kMetaAppend, start,
                        dev_->clock().now_us() - start, rec.epoch, frames);
  }
  if (rec.type == Record::Type::kSnapshot) {
    next_epoch_ = rec.epoch + 1;
    last_snapshot_ = std::make_unique<Record>(Stripped(rec));
  }
  return Status::OK();
}

Status MetaJournal::WriteRecord(uint64_t epoch,
                                const std::vector<uint8_t>& bytes) {
  const uint32_t payload_cap = PayloadPerFrame();
  const uint32_t frames = FramesFor(bytes.size());
  flash::CategoryScope cat(dev_, flash::OpCategory::kMeta);
  const uint32_t record_crc = Crc32c(bytes);
  ByteBuffer data(data_size_, 0xFF);
  uint8_t spare[flash::FlashGeometry::spare_size];
  for (uint32_t f = 0; f < frames; ++f) {
    const uint32_t off = f * payload_cap;
    const uint32_t len = std::min<uint32_t>(
        payload_cap, static_cast<uint32_t>(bytes.size()) - off);
    std::fill(data.begin(), data.end(), 0xFF);
    EncodeFixed32(data.data(), kFrameMagic);
    EncodeFixed64(data.data() + 4, next_seq_);
    EncodeFixed32(data.data() + 12, f);
    EncodeFixed32(data.data() + 16, frames);
    EncodeFixed32(data.data() + 20, len);
    EncodeFixed32(data.data() + 24, record_crc);
    std::copy_n(bytes.data() + off, len, data.data() + kFrameHeaderSize);
    uint32_t frame_crc = Crc32c(ConstBytes(data).subspan(0, 28));
    frame_crc = Crc32c(ConstBytes(data).subspan(kFrameHeaderSize, len),
                       frame_crc);
    EncodeFixed32(data.data() + 28, frame_crc);
    EncodeSpare(spare, PageType::kMeta, static_cast<uint32_t>(next_seq_),
                epoch);
    FLASHDB_RETURN_IF_ERROR(
        dev_->ProgramPage(HalfStart(active_half_) + next_page_ + f, data,
                          spare));
  }
  next_page_ += frames;
  ++next_seq_;
  return Status::OK();
}

Result<MetaJournal::Recovered> MetaJournal::Recover() {
  flash::CategoryScope cat(dev_, flash::OpCategory::kRecovery);
  const uint32_t payload_cap = PayloadPerFrame();
  scan_stats_ = ScanStats{};

  struct PendingRecord {
    std::map<uint32_t, std::vector<uint8_t>> frames;  // index -> payload
    uint32_t frame_count = 0;
    uint32_t record_crc = 0;
    bool consistent = true;
  };
  std::map<uint64_t, PendingRecord> pending;  // seq -> frames seen
  // Which half each seq's frames were observed in (for resume).
  std::map<uint64_t, uint32_t> seq_half;
  int64_t max_programmed_page[2] = {-1, -1};
  bool any_programmed = false;
  uint64_t max_seq = 0;
  bool any_seq = false;

  ByteBuffer data(data_size_);
  uint8_t spare[flash::FlashGeometry::spare_size];
  for (uint32_t half = 0; half < 2; ++half) {
    for (uint32_t p = 0; p < half_pages(); ++p) {
      const flash::PhysAddr addr = HalfStart(half) + p;
      if (dev_->IsErased(addr)) continue;
      max_programmed_page[half] = p;
      any_programmed = true;
      FLASHDB_RETURN_IF_ERROR(dev_->ReadPage(addr, data, spare));
      scan_stats_.frames_scanned++;
      // The spare-area tag is verified like any other data read: a meta
      // frame whose spare metadata CRC fails (or that claims a foreign page
      // type) delivered rotten bits and is treated as a corrupt frame.
      const SpareInfo tag = DecodeSpare(spare);
      if (tag.programmed && (!tag.crc_ok || tag.type != PageType::kMeta)) {
        scan_stats_.frames_bad_crc++;
        continue;
      }
      FrameHeader hdr;
      const FrameParse parse = ParseFrame(data, payload_cap, &hdr);
      if (parse != FrameParse::kOk) {
        if (parse == FrameParse::kBadCrc) {
          scan_stats_.frames_bad_crc++;
        } else {
          scan_stats_.frames_foreign++;
        }
        continue;
      }
      PendingRecord& rec = pending[hdr.seq];
      if (rec.frames.empty()) {
        rec.frame_count = hdr.frame_count;
        rec.record_crc = hdr.record_crc;
      } else if (rec.frame_count != hdr.frame_count ||
                 rec.record_crc != hdr.record_crc ||
                 rec.frames.count(hdr.frame_index) != 0) {
        rec.consistent = false;  // duplicate seq across halves: corrupt
      }
      rec.frames[hdr.frame_index].assign(
          data.begin() + kFrameHeaderSize,
          data.begin() + kFrameHeaderSize + hdr.payload_len);
      seq_half[hdr.seq] = half;
      max_seq = std::max(max_seq, hdr.seq);
      any_seq = true;
    }
  }
  if (!any_programmed || !any_seq) {
    if (scan_stats_.frames_bad_crc > 0) {
      return Status::Corruption(
          "meta journal holds no readable record: " +
          std::to_string(scan_stats_.frames_bad_crc) +
          " frame(s) failed CRC validation (uncorrectable corruption)");
    }
    return Status::Corruption(
        "meta journal region holds no record -- the store was never "
        "formatted with a journal on this device");
  }

  // Reassemble: a record survives only when every frame is present and the
  // concatenated payload matches the record CRC. Torn appends (missing tail
  // frames) and bit rot both fail here and the record is simply discarded --
  // exactly how the spare-area timestamp replay treats torn data pages.
  struct ValidRecord {
    Record rec;
    uint64_t seq = 0;
  };
  std::vector<ValidRecord> valid;
  for (auto& [seq, p] : pending) {
    // A record missing frames at the newest sequence number -- with no
    // CRC-corrupt frame anywhere in the region -- is the expected footprint
    // of a power cut mid-append: a clean torn end. Any other discarded
    // record lost frames to corruption.
    if (!p.consistent || p.frames.size() != p.frame_count) {
      if (p.consistent && seq == max_seq && scan_stats_.frames_bad_crc == 0) {
        scan_stats_.records_torn++;
      } else {
        scan_stats_.records_discarded++;
      }
      continue;
    }
    std::vector<uint8_t> bytes;
    bool complete = true;
    for (uint32_t f = 0; f < p.frame_count; ++f) {
      auto it = p.frames.find(f);
      if (it == p.frames.end()) {
        complete = false;
        break;
      }
      bytes.insert(bytes.end(), it->second.begin(), it->second.end());
    }
    if (!complete || Crc32c(bytes) != p.record_crc) {
      scan_stats_.records_discarded++;
      continue;
    }
    ValidRecord v;
    v.seq = seq;
    if (!Deserialize(bytes, &v.rec).ok()) {
      scan_stats_.records_discarded++;
      continue;
    }
    valid.push_back(std::move(v));
  }
  // std::map iteration already sorted by seq.

  // Epoch-chain validation: snapshot epochs must be non-decreasing in
  // append order (they are assigned consecutively; equal epochs are
  // switch-time or recovery re-checkpoints; ping-pong erasure only ever
  // removes a prefix). A decrease means the region holds records of two
  // different store generations -- refuse rather than guess.
  const ValidRecord* best = nullptr;
  uint64_t prev_epoch = 0;
  bool have_prev = false;
  for (const ValidRecord& v : valid) {
    if (v.rec.type != Record::Type::kSnapshot) continue;
    if (have_prev && v.rec.epoch < prev_epoch) {
      return Status::Corruption(
          "meta journal epoch chain broken: snapshot epoch " +
          std::to_string(v.rec.epoch) + " after " +
          std::to_string(prev_epoch));
    }
    prev_epoch = v.rec.epoch;
    have_prev = true;
    best = &v;
  }
  if (best == nullptr) {
    if (scan_stats_.frames_bad_crc > 0) {
      return Status::Corruption(
          "meta journal holds no valid snapshot record: " +
          std::to_string(scan_stats_.frames_bad_crc) +
          " frame(s) failed CRC validation (uncorrectable corruption)");
    }
    return Status::Corruption("meta journal holds no valid snapshot record");
  }

  Recovered out;
  out.snapshot = best->rec;
  for (const ValidRecord& v : valid) {
    if (v.rec.type == Record::Type::kComplete && v.seq > best->seq &&
        v.rec.epoch == best->rec.epoch) {
      out.complete = true;
    }
    // The newest copy of the best epoch may be a payload-stripped
    // re-checkpoint; redo from a payload-carrying sibling (same epoch, so
    // identical routing) when one survives.
    if (v.rec.type == Record::Type::kSnapshot &&
        v.rec.epoch == best->rec.epoch && out.snapshot.redo.empty() &&
        !v.rec.redo.empty()) {
      out.snapshot.redo = v.rec.redo;
    }
  }

  // Resume the append position: the half holding the newest frames stays
  // active, and appends skip past every programmed page in it (torn frames
  // included -- NAND pages cannot be reprogrammed without an erase).
  active_half_ = seq_half[max_seq];
  next_page_ = static_cast<uint32_t>(max_programmed_page[active_half_] + 1);
  next_seq_ = max_seq + 1;
  next_epoch_ = best->rec.epoch + 1;
  last_snapshot_ = std::make_unique<Record>(Stripped(out.snapshot));

  // Self-heal the every-half-starts-with-a-snapshot invariant: if the
  // active half holds no valid snapshot (its first append tore before the
  // crash), re-checkpoint the best snapshot into it -- after re-erasing the
  // half when the torn frames left no room (only invalid frames and
  // already-harvested completion records are lost; redo stays idempotent).
  // Without this, a later switch could erase the other half -- the one
  // holding the only valid snapshot.
  bool active_has_snapshot = false;
  for (const ValidRecord& v : valid) {
    if (v.rec.type == Record::Type::kSnapshot &&
        seq_half[v.seq] == active_half_) {
      active_has_snapshot = true;
      break;
    }
  }
  if (!active_has_snapshot) {
    const std::vector<uint8_t> checkpoint = Serialize(*last_snapshot_);
    if (next_page_ + FramesFor(checkpoint.size()) > half_pages()) {
      FLASHDB_RETURN_IF_ERROR(EraseHalf(active_half_));
      next_page_ = 0;
    }
    FLASHDB_RETURN_IF_ERROR(WriteRecord(last_snapshot_->epoch, checkpoint));
  }
  return out;
}

}  // namespace flashdb::ftl
