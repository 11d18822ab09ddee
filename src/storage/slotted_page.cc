#include "storage/slotted_page.h"

#include <cstring>
#include <string>
#include <vector>

#include "common/coding.h"

namespace flashdb::storage {

namespace {
constexpr uint16_t kMagic = 0x5350;  // "SP"
constexpr uint32_t kHeaderSize = 12;
constexpr uint32_t kSlotEntrySize = 4;

constexpr uint32_t kOffMagic = 0;
constexpr uint32_t kOffNumSlots = 4;
constexpr uint32_t kOffFreeEnd = 6;
constexpr uint32_t kOffNextPage = 8;
}  // namespace

void SlottedPage::Init() {
  std::memset(page_.data(), 0, kHeaderSize);
  EncodeFixed16(page_.data() + kOffMagic, kMagic);
  set_num_slots(0);
  set_free_end(static_cast<uint16_t>(page_.size()));
  set_next_page(kNoNextPage);
}

bool SlottedPage::IsFormatted() const {
  return DecodeFixed16(page_.data() + kOffMagic) == kMagic;
}

uint16_t SlottedPage::num_slots() const {
  return DecodeFixed16(page_.data() + kOffNumSlots);
}
void SlottedPage::set_num_slots(uint16_t v) {
  EncodeFixed16(page_.data() + kOffNumSlots, v);
}
uint16_t SlottedPage::free_end() const {
  return DecodeFixed16(page_.data() + kOffFreeEnd);
}
void SlottedPage::set_free_end(uint16_t v) {
  EncodeFixed16(page_.data() + kOffFreeEnd, v);
}
uint32_t SlottedPage::next_page() const {
  return DecodeFixed32(page_.data() + kOffNextPage);
}
void SlottedPage::set_next_page(uint32_t pid) {
  EncodeFixed32(page_.data() + kOffNextPage, pid);
}

uint16_t SlottedPage::slot_offset(SlotId s) const {
  return DecodeFixed16(page_.data() + kHeaderSize + s * kSlotEntrySize);
}
uint16_t SlottedPage::slot_length(SlotId s) const {
  return DecodeFixed16(page_.data() + kHeaderSize + s * kSlotEntrySize + 2);
}
void SlottedPage::set_slot(SlotId s, uint16_t offset, uint16_t length) {
  EncodeFixed16(page_.data() + kHeaderSize + s * kSlotEntrySize, offset);
  EncodeFixed16(page_.data() + kHeaderSize + s * kSlotEntrySize + 2, length);
}

uint16_t SlottedPage::dir_end() const {
  return static_cast<uint16_t>(kHeaderSize + num_slots() * kSlotEntrySize);
}

uint16_t SlottedPage::FreeSpace() const {
  const uint16_t gap = free_end() - dir_end();
  return gap > kSlotEntrySize ? gap - kSlotEntrySize : 0;
}

Result<SlotId> SlottedPage::Insert(ConstBytes record) {
  if (record.size() > 0xFFFF) {
    return Status::InvalidArgument("record too large for a slot");
  }
  // Reuse a tombstone slot when possible (no directory growth).
  SlotId slot = num_slots();
  bool reuse = false;
  for (SlotId s = 0; s < num_slots(); ++s) {
    if (slot_length(s) == 0 && slot_offset(s) == 0) {
      slot = s;
      reuse = true;
      break;
    }
  }
  const uint32_t need =
      static_cast<uint32_t>(record.size()) + (reuse ? 0 : kSlotEntrySize);
  uint32_t gap = free_end() - dir_end();
  if (need > gap) {
    Compact();
    gap = free_end() - dir_end();
    if (need > gap) {
      return Status::NoSpace("record does not fit in page");
    }
  }
  const uint16_t new_end =
      static_cast<uint16_t>(free_end() - record.size());
  CopyBytes(MutBytes(page_.data() + new_end, record.size()), record);
  if (!reuse) set_num_slots(static_cast<uint16_t>(num_slots() + 1));
  set_slot(slot, new_end, static_cast<uint16_t>(record.size()));
  set_free_end(new_end);
  return slot;
}

Result<ConstBytes> SlottedPage::Get(SlotId slot) const {
  if (slot >= num_slots()) {
    return Status::NotFound("slot out of range: " + std::to_string(slot));
  }
  const uint16_t len = slot_length(slot);
  if (len == 0) return Status::NotFound("slot is a tombstone");
  return ConstBytes(page_.data() + slot_offset(slot), len);
}

Status SlottedPage::Update(SlotId slot, ConstBytes record) {
  if (slot >= num_slots()) {
    return Status::NotFound("slot out of range: " + std::to_string(slot));
  }
  const uint16_t old_len = slot_length(slot);
  if (old_len == 0) return Status::NotFound("slot is a tombstone");
  if (record.size() == old_len) {
    CopyBytes(MutBytes(page_.data() + slot_offset(slot), old_len), record);
    return Status::OK();
  }
  // Re-allocate: tombstone first so Compact can reclaim the old copy, but
  // keep the old bytes so a failed update leaves the record untouched.
  ByteBuffer old_copy(page_.data() + slot_offset(slot),
                      page_.data() + slot_offset(slot) + old_len);
  set_slot(slot, 0, 0);
  uint32_t gap = free_end() - dir_end();
  if (record.size() > gap) {
    Compact();
    gap = free_end() - dir_end();
    if (record.size() > gap) {
      // Roll back: space for the old record is guaranteed (we just freed it).
      const uint16_t back =
          static_cast<uint16_t>(free_end() - old_copy.size());
      CopyBytes(MutBytes(page_.data() + back, old_copy.size()), old_copy);
      set_slot(slot, back, old_len);
      set_free_end(back);
      return Status::NoSpace("updated record does not fit in page");
    }
  }
  const uint16_t new_end =
      static_cast<uint16_t>(free_end() - record.size());
  CopyBytes(MutBytes(page_.data() + new_end, record.size()), record);
  set_slot(slot, new_end, static_cast<uint16_t>(record.size()));
  set_free_end(new_end);
  return Status::OK();
}

Status SlottedPage::Delete(SlotId slot) {
  if (slot >= num_slots()) {
    return Status::NotFound("slot out of range: " + std::to_string(slot));
  }
  if (slot_length(slot) == 0) return Status::NotFound("slot is a tombstone");
  set_slot(slot, 0, 0);
  return Status::OK();
}

uint16_t SlottedPage::LiveRecords() const {
  uint16_t n = 0;
  for (SlotId s = 0; s < num_slots(); ++s) {
    if (slot_length(s) != 0) ++n;
  }
  return n;
}

void SlottedPage::Compact() {
  // Copy live records into a scratch heap packed at the page tail.
  std::vector<uint8_t> scratch(page_.size());
  uint16_t end = static_cast<uint16_t>(page_.size());
  std::vector<std::pair<SlotId, std::pair<uint16_t, uint16_t>>> moves;
  for (SlotId s = 0; s < num_slots(); ++s) {
    const uint16_t len = slot_length(s);
    if (len == 0) continue;
    end = static_cast<uint16_t>(end - len);
    std::memcpy(scratch.data() + end, page_.data() + slot_offset(s), len);
    moves.push_back({s, {end, len}});
  }
  std::memcpy(page_.data() + end, scratch.data() + end, page_.size() - end);
  for (const auto& [s, ol] : moves) set_slot(s, ol.first, ol.second);
  set_free_end(end);
}

}  // namespace flashdb::storage
