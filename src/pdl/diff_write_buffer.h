// The one-page differential write buffer (paper Section 4.2).
//
// Differentials of updated logical pages are collected here and written out
// as a single differential page when the buffer is full (or on write-through
// Flush). The buffer holds at most one differential per pid: re-reflecting a
// page replaces its previous, now-superseded differential.

#ifndef FLASHDB_PDL_DIFF_WRITE_BUFFER_H_
#define FLASHDB_PDL_DIFF_WRITE_BUFFER_H_

#include <cstdint>
#include <unordered_map>
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
  bool empty() const { return entries_.empty(); }
  size_t size() const { return entries_.size(); }

  /// True when a differential for `pid` is buffered.
  bool Contains(PageId pid) const { return index_.count(pid) != 0; }

  /// Returns the buffered differential for `pid`, or nullptr.
  const Differential* Find(PageId pid) const;

  /// Removes the buffered differential for `pid` if present.
  void Remove(PageId pid);

  /// True when `diff` would fit in the current free space.
  bool Fits(const Differential& diff) const {
    return diff.EncodedSize() <= free_bytes();
  }

  /// Inserts `diff`; the caller must have ensured it fits (Fits()) and that
  /// no entry for the same pid remains (Remove()).
  void Insert(Differential diff);

  /// All buffered differentials, in insertion order.
  const std::vector<Differential>& entries() const { return entries_; }

  void Clear();

 private:
  size_t capacity_;
  size_t used_ = 0;
  std::vector<Differential> entries_;
  std::unordered_map<PageId, size_t> index_;  ///< pid -> index in entries_.
};

}  // namespace flashdb::pdl

#endif  // FLASHDB_PDL_DIFF_WRITE_BUFFER_H_
