// Heap file: a fixed range of logical pages holding variable-length records
// in slotted pages. Records are addressed by RID {page, slot}.
//
// Page allocation is static (the range is carved out at table-creation time);
// a per-page free-space cache in RAM steers inserts to pages with room.

#ifndef FLASHDB_STORAGE_HEAP_FILE_H_
#define FLASHDB_STORAGE_HEAP_FILE_H_

#include <cstdint>
#include <vector>

#include "common/function_ref.h"
#include "storage/buffer_pool.h"
#include "storage/slotted_page.h"

namespace flashdb::storage {

/// Record identifier.
struct Rid {
  PageId page = 0;
  SlotId slot = 0;

  bool operator==(const Rid& o) const {
    return page == o.page && slot == o.slot;
  }
  uint64_t Encode() const {
    return (static_cast<uint64_t>(page) << 16) | slot;
  }
  static Rid Decode(uint64_t v) {
    return Rid{static_cast<PageId>(v >> 16), static_cast<SlotId>(v & 0xFFFF)};
  }
};

/// See file comment.
class HeapFile {
 public:
  /// Manages pages [first_page, first_page + num_pages) of `pool`'s store.
  HeapFile(BufferPool* pool, PageId first_page, uint32_t num_pages);

  /// Formats every page of the range as an empty slotted page.
  Status Create();

  /// Rebuilds the free-space cache by scanning the range (after reopen).
  Status Open();

  Result<Rid> Insert(ConstBytes record);
  Status Get(const Rid& rid, ByteBuffer* out) const;
  Status Update(const Rid& rid, ConstBytes record);
  Status Delete(const Rid& rid);

  /// Calls `fn(rid, record)` for every live record. `fn` returning a non-OK
  /// status stops the scan (NotFound is treated as "stop early", returned as
  /// OK).
  Status Scan(FunctionRef<Status(const Rid&, ConstBytes)> fn) const;

  /// Total live records across the file (scans; diagnostics).
  Result<uint64_t> CountRecords() const;

  PageId first_page() const { return first_page_; }
  uint32_t num_pages() const { return num_pages_; }

 private:
  BufferPool* pool_;
  PageId first_page_;
  uint32_t num_pages_;
  /// Approximate free bytes per page; refreshed on every touch.
  std::vector<uint16_t> free_space_;
  uint32_t insert_cursor_ = 0;  ///< Round-robin start for insert placement.
};

}  // namespace flashdb::storage

#endif  // FLASHDB_STORAGE_HEAP_FILE_H_
