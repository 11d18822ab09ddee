#include "pdl/diff_write_buffer.h"

#include <cassert>

namespace flashdb::pdl {

const Differential* DiffWriteBuffer::Find(PageId pid) const {
  auto it = index_.find(pid);
  if (it == index_.end()) return nullptr;
  return &entries_[it->second];
}

void DiffWriteBuffer::Remove(PageId pid) {
  auto it = index_.find(pid);
  if (it == index_.end()) return;
  const size_t idx = it->second;
  used_ -= entries_[idx].EncodedSize();
  index_.erase(it);
  // Swap-with-last removal keeps the vector compact; fix the moved index.
  if (idx != entries_.size() - 1) {
    entries_[idx] = std::move(entries_.back());
    index_[entries_[idx].pid()] = idx;
  }
  entries_.pop_back();
}

void DiffWriteBuffer::Insert(Differential diff) {
  assert(Fits(diff));
  assert(!Contains(diff.pid()));
  used_ += diff.EncodedSize();
  index_[diff.pid()] = entries_.size();
  entries_.push_back(std::move(diff));
}

void DiffWriteBuffer::Clear() {
  entries_.clear();
  index_.clear();
  used_ = 0;
}

}  // namespace flashdb::pdl
