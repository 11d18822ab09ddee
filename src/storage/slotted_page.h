// Slotted-page layout for variable-length records.
//
// Layout within one logical page:
//   header (12 bytes): magic u16 | flags u8 | pad u8 | num_slots u16 |
//                      free_end u16 | next_page u32
//   slot directory: num_slots * { offset u16, length u16 }, growing upward
//   record heap: records packed at the page tail, growing downward to
//                free_end.
// A slot with length 0 is a tombstone and may be reused by later inserts.

#ifndef FLASHDB_STORAGE_SLOTTED_PAGE_H_
#define FLASHDB_STORAGE_SLOTTED_PAGE_H_

#include <cstdint>

#include "common/bytes.h"
#include "common/result.h"

namespace flashdb::storage {

/// Slot index within a page.
using SlotId = uint16_t;

/// Sentinel "no next page" link value.
inline constexpr uint32_t kNoNextPage = 0xFFFFFFFFu;

/// A view over one page buffer interpreting it as a slotted page. The view
/// does not own the buffer; all mutations write through to it.
class SlottedPage {
 public:
  /// Wraps `page` without validating (call IsFormatted()/Init() as needed).
  explicit SlottedPage(MutBytes page) : page_(page) {}

  /// Formats the buffer as an empty slotted page.
  void Init();

  /// True when the buffer carries the slotted-page magic.
  bool IsFormatted() const;

  uint16_t num_slots() const;
  uint32_t next_page() const;
  void set_next_page(uint32_t pid);

  /// Free bytes available for a new record including its slot entry.
  uint16_t FreeSpace() const;

  /// Inserts a record; returns its slot. Fails with NoSpace when the record
  /// plus (possibly) a fresh slot entry does not fit.
  Result<SlotId> Insert(ConstBytes record);

  /// Returns the record stored in `slot` (NotFound for tombstones).
  Result<ConstBytes> Get(SlotId slot) const;

  /// Replaces the record in `slot`. Same-length updates are done in place;
  /// otherwise the record is re-allocated within the page (NoSpace if the
  /// page cannot host the new length even after compaction).
  Status Update(SlotId slot, ConstBytes record);

  /// Tombstones the slot. The space is reclaimed by a later compaction.
  Status Delete(SlotId slot);

  /// Number of live (non-tombstone) records.
  uint16_t LiveRecords() const;

  /// Rewrites the record heap to squeeze out holes left by deletes/updates.
  void Compact();

 private:
  uint16_t slot_offset(SlotId s) const;
  uint16_t slot_length(SlotId s) const;
  void set_slot(SlotId s, uint16_t offset, uint16_t length);
  uint16_t free_end() const;
  void set_free_end(uint16_t v);
  void set_num_slots(uint16_t v);
  uint16_t dir_end() const;  ///< First byte past the slot directory.

  MutBytes page_;
};

}  // namespace flashdb::storage

#endif  // FLASHDB_STORAGE_SLOTTED_PAGE_H_
