// B+-tree index over u64 keys and u64 values (e.g. encoded Rids), stored in
// a fixed range of logical pages accessed through the buffer pool.
//
// Page 0 of the range is the meta page (root pointer + allocation cursor);
// the remaining pages hold nodes. Leaves are chained for range scans.
// Deletes remove keys without rebalancing (nodes may underflow), which is
// sufficient for the TPC-C-style workloads this substrate exists for.

#ifndef FLASHDB_STORAGE_BTREE_H_
#define FLASHDB_STORAGE_BTREE_H_

#include <cstdint>
#include <optional>

#include "common/function_ref.h"
#include "storage/buffer_pool.h"

namespace flashdb::storage {

/// See file comment.
class BTree {
 public:
  /// Manages pages [first_page, first_page + num_pages) of `pool`'s store.
  BTree(BufferPool* pool, PageId first_page, uint32_t num_pages);

  /// Initializes meta page and an empty root leaf.
  Status Create();

  /// Loads the meta page after reopen.
  Status Open();

  /// Inserts (or overwrites) `key`.
  Status Insert(uint64_t key, uint64_t value);

  /// Point lookup.
  Result<uint64_t> Get(uint64_t key) const;

  /// Removes `key`; NotFound if absent.
  Status Delete(uint64_t key);

  /// Calls fn(key, value) for keys in [lo, hi], ascending. fn returning
  /// NotFound stops the scan early (reported as OK).
  Status Scan(uint64_t lo, uint64_t hi,
              FunctionRef<Status(uint64_t, uint64_t)> fn) const;

  /// Number of keys (full scan; diagnostics).
  Result<uint64_t> CountKeys() const;

  /// Tree height (diagnostics).
  Result<uint32_t> Height() const;

 private:
  struct SplitResult {
    bool split = false;
    uint64_t sep_key = 0;
    PageId right = 0;
  };

  Result<PageId> AllocNode();
  Status WriteMeta();
  Status InsertRec(PageId node, uint64_t key, uint64_t value,
                   SplitResult* out);
  Result<PageId> FindLeaf(uint64_t key) const;

  BufferPool* pool_;
  PageId first_page_;
  uint32_t num_pages_;
  uint32_t data_size_;
  uint32_t leaf_capacity_;
  uint32_t internal_capacity_;
  PageId root_ = 0;
  uint32_t next_alloc_ = 1;
};

}  // namespace flashdb::storage

#endif  // FLASHDB_STORAGE_BTREE_H_
