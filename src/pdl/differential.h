// The page-differential: the difference between a base page on flash and the
// up-to-date logical page in memory (paper Section 4.1/4.2).
//
// Serialized record format, as stored inside a differential page:
//   pid        u32   -- logical page the differential belongs to
//   timestamp  u64   -- creation time stamp (crash recovery arbitration)
//   count      u16   -- number of extents
//   extents    count * { offset u16, length u16, data[length] }
//
// Records are packed back to back in a differential page's data area; the
// first record whose pid field reads 0xFFFFFFFF (erased padding) terminates
// the page. pid 0xFFFFFFFF is therefore reserved. Offsets and lengths are 16
// bits, so PdlStore refuses pages over kMaxDataSizeFor16BitOffsets bytes.

#ifndef FLASHDB_PDL_DIFFERENTIAL_H_
#define FLASHDB_PDL_DIFFERENTIAL_H_

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/coding.h"
#include "ftl/page_store.h"

namespace flashdb::pdl {

/// One changed extent of a page: bytes [offset, offset+length).
struct DiffExtent {
  uint16_t offset = 0;
  uint16_t length = 0;
};

/// Fixed per-record header size (pid + timestamp + extent count).
inline constexpr size_t kDiffHeaderSize = 4 + 8 + 2;
/// Fixed per-extent header size (offset + length).
inline constexpr size_t kExtentHeaderSize = 2 + 2;
/// Reserved pid marking erased padding in a differential page.
inline constexpr uint32_t kPaddingPid = 0xFFFFFFFFu;

/// A decoded (or freshly computed) page-differential.
class Differential {
 public:
  Differential() = default;
  Differential(PageId pid, uint64_t timestamp)
      : pid_(pid), timestamp_(timestamp) {}

  PageId pid() const { return pid_; }
  uint64_t timestamp() const { return timestamp_; }

  /// Reinitializes to an empty differential for `pid`, keeping the extent and
  /// payload capacity (hot-path reuse in ComputeDifferentialInto).
  void Reset(PageId pid, uint64_t timestamp) {
    pid_ = pid;
    timestamp_ = timestamp;
    extents_.clear();
    data_.clear();
  }

  const std::vector<DiffExtent>& extents() const { return extents_; }
  /// Concatenated extent payloads, in extent order.
  ConstBytes data() const { return data_; }

  /// Appends an extent whose payload is `bytes` at `offset`.
  void AddExtent(uint16_t offset, ConstBytes bytes);

  /// Total serialized size of this record.
  size_t EncodedSize() const {
    return kDiffHeaderSize + extents_.size() * kExtentHeaderSize + data_.size();
  }

  /// Sum of changed bytes (excluding headers); diagnostics.
  size_t payload_size() const { return data_.size(); }

  /// True when the differential records no change (identity merge).
  bool empty() const { return extents_.empty(); }

  /// Serializes the record onto `out`.
  void AppendTo(ByteBuffer* out) const;

  /// Applies (merges) this differential onto `page`, which must hold the base
  /// page image. Extents beyond page bounds indicate corruption.
  Status ApplyTo(MutBytes page) const;

  /// Parses the next record from `reader`. Returns false when the reader is
  /// positioned at padding / end of page (no record consumed). On malformed
  /// input returns a Corruption status through `*out_status`. When `out` is
  /// null the record is checked and skipped without copying its payload.
  static bool ParseNext(BufferReader* reader, Differential* out,
                        Status* out_status);

 private:
  PageId pid_ = kPaddingPid;
  uint64_t timestamp_ = 0;
  std::vector<DiffExtent> extents_;
  ByteBuffer data_;
};

/// Computes the differential between `base` (the page image on flash) and
/// `updated` (the up-to-date page in memory). Runs of equal bytes shorter
/// than or equal to `coalesce_gap` between two changed runs are folded into a
/// single extent when that is cheaper than starting a new extent. Equal-run
/// scanning compares a uint64 word at a time, so the common mostly-unchanged
/// page costs ~n/8 comparisons.
Differential ComputeDifferential(ConstBytes base, ConstBytes updated,
                                 PageId pid, uint64_t timestamp,
                                 size_t coalesce_gap = kExtentHeaderSize);

/// Allocation-free variant: recomputes into `*out`, reusing its capacity
/// (it allocates only when `*out` has never held a differential this large).
void ComputeDifferentialInto(ConstBytes base, ConstBytes updated, PageId pid,
                             uint64_t timestamp, size_t coalesce_gap,
                             Differential* out);

/// Looks up pid's record in the differential page `page`: skips the records
/// before it by their headers, without copying them, and parses the match
/// into `*out` (reusing its capacity). Sets *found = false when padding or
/// the end of the page comes first. Gives the same verdict and record as
/// ParseNext applied until the match: a truncated record before or at the
/// match returns Corruption.
Status FindDifferential(ConstBytes page, PageId pid, Differential* out,
                        bool* found);

}  // namespace flashdb::pdl

#endif  // FLASHDB_PDL_DIFFERENTIAL_H_
