#include "pdl/differential.h"

#include <string>

namespace flashdb::pdl {

void Differential::AddExtent(uint16_t offset, ConstBytes bytes) {
  // First extent: reserve for the common shape (a handful of extents, a few
  // dozen payload bytes) so the typical differential allocates once per
  // vector instead of growing through several doublings.
  if (extents_.empty()) {
    if (extents_.capacity() < 4) extents_.reserve(4);
    if (data_.capacity() < bytes.size() + 64) data_.reserve(bytes.size() + 64);
  }
  DiffExtent e;
  e.offset = offset;
  e.length = static_cast<uint16_t>(bytes.size());
  extents_.push_back(e);
  data_.insert(data_.end(), bytes.begin(), bytes.end());
}

void Differential::AppendTo(ByteBuffer* out) const {
  out->reserve(out->size() + EncodedSize());
  BufferWriter w(out);
  w.PutU32(pid_);
  w.PutU64(timestamp_);
  w.PutU16(static_cast<uint16_t>(extents_.size()));
  size_t data_pos = 0;
  for (const DiffExtent& e : extents_) {
    w.PutU16(e.offset);
    w.PutU16(e.length);
    w.PutBytes(ConstBytes(data_.data() + data_pos, e.length));
    data_pos += e.length;
  }
}

Status Differential::ApplyTo(MutBytes page) const {
  size_t data_pos = 0;
  for (const DiffExtent& e : extents_) {
    if (static_cast<size_t>(e.offset) + e.length > page.size()) {
      return Status::Corruption("differential extent beyond page bounds (pid " +
                                std::to_string(pid_) + ")");
    }
    std::memcpy(page.data() + e.offset, data_.data() + data_pos, e.length);
    data_pos += e.length;
  }
  return Status::OK();
}

bool Differential::ParseNext(BufferReader* reader, Differential* out,
                             Status* out_status) {
  *out_status = Status::OK();
  if (reader->remaining() < 4) return false;
  const uint32_t pid = reader->GetU32();
  if (pid == kPaddingPid) return false;  // erased padding: end of records
  const uint64_t timestamp = reader->GetU64();
  const uint16_t count = reader->GetU16();
  if (out != nullptr) {
    out->pid_ = pid;
    out->timestamp_ = timestamp;
    out->extents_.clear();
    out->data_.clear();
  }
  for (uint16_t i = 0; i < count; ++i) {
    DiffExtent e;
    e.offset = reader->GetU16();
    e.length = reader->GetU16();
    ConstBytes payload = reader->GetBytes(e.length);
    if (reader->failed()) {
      *out_status = Status::Corruption("truncated differential record");
      return false;
    }
    if (out != nullptr) {
      out->extents_.push_back(e);
      out->data_.insert(out->data_.end(), payload.begin(), payload.end());
    }
  }
  if (reader->failed()) {
    *out_status = Status::Corruption("truncated differential record header");
    return false;
  }
  return true;
}

Status FindDifferential(ConstBytes page, PageId pid, Differential* out,
                        bool* found) {
  *found = false;
  BufferReader reader(page);
  Status parse_status;
  // Peek each record's pid; only the match is copied out.
  while (reader.remaining() >= 4) {
    const bool match = DecodeFixed32(page.data() + reader.position()) == pid;
    if (!Differential::ParseNext(&reader, match ? out : nullptr,
                                 &parse_status)) {
      break;
    }
    if (match) {
      *found = true;
      break;
    }
  }
  return parse_status;
}

void ComputeDifferentialInto(ConstBytes base, ConstBytes updated, PageId pid,
                             uint64_t timestamp, size_t coalesce_gap,
                             Differential* out) {
  out->Reset(pid, timestamp);
  const size_t n = updated.size();
  size_t i = 0;
  while (i < n) {
    // Skip unchanged bytes (word-at-a-time: pages are mostly unchanged).
    i += FirstMismatch(base.subspan(i, n - i), updated.subspan(i));
    if (i >= n) break;
    // Extend the changed run; swallow equal-byte gaps of at most
    // `coalesce_gap` when more changes follow (cheaper than a new header).
    size_t end = i + 1;
    size_t run_end = end;  // one past the last *changed* byte
    while (end < n) {
      if (base[end] != updated[end]) {
        ++end;
        run_end = end;
      } else {
        // Peek ahead over an unchanged gap.
        size_t gap_end = end;
        while (gap_end < n && gap_end - end < coalesce_gap + 1 &&
               base[gap_end] == updated[gap_end]) {
          ++gap_end;
        }
        if (gap_end < n && base[gap_end] != updated[gap_end] &&
            gap_end - end <= coalesce_gap) {
          end = gap_end;  // fold the gap into this extent
        } else {
          break;
        }
      }
    }
    out->AddExtent(static_cast<uint16_t>(i),
                   updated.subspan(i, run_end - i));
    i = run_end;
  }
}

Differential ComputeDifferential(ConstBytes base, ConstBytes updated,
                                 PageId pid, uint64_t timestamp,
                                 size_t coalesce_gap) {
  Differential diff;
  ComputeDifferentialInto(base, updated, pid, timestamp, coalesce_gap, &diff);
  return diff;
}

}  // namespace flashdb::pdl
