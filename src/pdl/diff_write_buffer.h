// The one-page differential write buffer (paper Section 4.2).
//
// Differentials of updated logical pages are collected here and written out
// as a single differential page when the buffer is full (or on write-through
// Flush). The buffer holds at most one differential per pid: re-reflecting a
// page replaces its previous, now-superseded differential.
//
// The buffer allocates nothing once warm. It keeps every Differential slot it
// has filled: Remove and Clear recycle slots, and Insert copies into a
// recycled slot, reusing its extent and payload capacity. A pid is found by
// scanning a parallel pid array (a 2 KB page holds at most 146 records).

#ifndef FLASHDB_PDL_DIFF_WRITE_BUFFER_H_
#define FLASHDB_PDL_DIFF_WRITE_BUFFER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "pdl/differential.h"

namespace flashdb::pdl {

/// See file comment. Capacity equals one flash page data area.
class DiffWriteBuffer {
 public:
  explicit DiffWriteBuffer(size_t capacity_bytes)
      : capacity_(capacity_bytes) {}

  size_t capacity() const { return capacity_; }
  size_t used_bytes() const { return used_; }
  size_t free_bytes() const { return capacity_ - used_; }
  bool empty() const { return pids_.empty(); }
  size_t size() const { return pids_.size(); }

  /// True when a differential for `pid` is buffered.
  bool Contains(PageId pid) const { return IndexOf(pid) != size(); }

  /// Returns the buffered differential for `pid`, or nullptr.
  const Differential* Find(PageId pid) const;

  /// Removes the buffered differential for `pid` if present. The last entry
  /// takes its place.
  void Remove(PageId pid);

  /// True when `diff` would fit in the current free space.
  bool Fits(const Differential& diff) const {
    return diff.EncodedSize() <= free_bytes();
  }

  /// Appends a copy of `diff`; the caller must have ensured it fits (Fits())
  /// and that no entry for the same pid remains (Remove()).
  void Insert(const Differential& diff);

  /// All buffered differentials: insertion order, except that each Remove
  /// moved the then-last entry into the removed one's place. This is the
  /// record order of the differential page the buffer is flushed to.
  std::span<const Differential> entries() const {
    return std::span(slots_.data(), size());
  }

  void Clear();

 private:
  /// Index of pid's entry, or size() when none is buffered.
  size_t IndexOf(PageId pid) const;

  size_t capacity_;
  size_t used_ = 0;
  /// Entries in slots_[0, size()); later slots are recycled, kept for their
  /// capacity.
  std::vector<Differential> slots_;
  std::vector<PageId> pids_;  ///< pids_[i] == slots_[i].pid().
};

}  // namespace flashdb::pdl

#endif  // FLASHDB_PDL_DIFF_WRITE_BUFFER_H_
