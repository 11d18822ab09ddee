#include "pdl/diff_write_buffer.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace flashdb::pdl {

size_t DiffWriteBuffer::IndexOf(PageId pid) const {
  return static_cast<size_t>(std::find(pids_.begin(), pids_.end(), pid) -
                             pids_.begin());
}

const Differential* DiffWriteBuffer::Find(PageId pid) const {
  const size_t idx = IndexOf(pid);
  return idx == size() ? nullptr : &slots_[idx];
}

void DiffWriteBuffer::Remove(PageId pid) {
  const size_t idx = IndexOf(pid);
  if (idx == size()) return;
  used_ -= slots_[idx].EncodedSize();
  // Swap-with-last removal keeps the entries compact; the removed slot
  // becomes the first recycled one.
  const size_t last = size() - 1;
  if (idx != last) {
    std::swap(slots_[idx], slots_[last]);
    pids_[idx] = pids_[last];
  }
  pids_.pop_back();
}

void DiffWriteBuffer::Insert(const Differential& diff) {
  assert(Fits(diff));
  assert(!Contains(diff.pid()));
  used_ += diff.EncodedSize();
  if (size() < slots_.size()) {
    slots_[size()] = diff;  // copy-assignment reuses the slot's capacity
  } else {
    slots_.push_back(diff);
  }
  pids_.push_back(diff.pid());
}

void DiffWriteBuffer::Clear() {
  pids_.clear();
  used_ = 0;
}

}  // namespace flashdb::pdl
