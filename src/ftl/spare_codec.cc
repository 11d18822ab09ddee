#include "ftl/spare_codec.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <string>

#include "common/coding.h"
#include "common/crc32.h"

namespace flashdb::ftl {

namespace {
constexpr uint16_t kMagic = 0x5044;
constexpr uint16_t kErasedMagic = 0xFFFF;

uint32_t SpareCrc(ConstBytes spare) {
  // CRC over magic+type (bytes 0..2) and pid+timestamp (bytes 4..15),
  // skipping the obsolete marker byte at offset 3.
  uint32_t crc = Crc32c(spare.subspan(0, 3));
  crc = Crc32c(spare.subspan(4, 12), crc);
  return crc;
}
}  // namespace

void EncodeSpare(MutBytes spare, PageType type, uint32_t pid,
                 uint64_t timestamp, ConstBytes data,
                 std::optional<uint32_t> verified_crc) {
  assert(spare.size() == flash::FlashGeometry::spare_size);
  std::fill(spare.begin(), spare.end(), 0xFF);
  EncodeFixed16(spare.data(), kMagic);
  spare[2] = static_cast<uint8_t>(type);
  spare[3] = 0xFF;  // valid (not obsolete)
  EncodeFixed32(spare.data() + 4, pid);
  EncodeFixed64(spare.data() + 8, timestamp);
  EncodeFixed32(spare.data() + 16, SpareCrc(spare));
  if (!data.empty()) {
    assert(PageTypeCarriesDataCrc(type) &&
           "data CRC only belongs on once-programmed page types");
    assert((!verified_crc || *verified_crc == Crc32c(data)) &&
           "a carried data CRC must be the CRC of the page it is stamped on");
    EncodeFixed32(spare.data() + kSpareDataCrcOffset,
                  verified_crc ? *verified_crc : Crc32c(data));
  }
}

SpareInfo DecodeSpare(ConstBytes spare) {
  assert(spare.size() >= kSpareEncodedSize);
  SpareInfo info;
  if (spare.size() > flash::kBadBlockOobOffset) {
    info.bad_block = (spare[flash::kBadBlockOobOffset] != 0xFF);
  }
  const uint16_t magic = DecodeFixed16(spare.data());
  if (magic == kErasedMagic) {
    info.type = PageType::kFree;
    info.programmed = false;
    return info;
  }
  // Any other magic was programmed: one that is not ours arrived with bit
  // errors, and its CRC check fails below.
  info.programmed = true;
  switch (spare[2]) {
    case static_cast<uint8_t>(PageType::kBase):
      info.type = PageType::kBase;
      break;
    case static_cast<uint8_t>(PageType::kDiff):
      info.type = PageType::kDiff;
      break;
    case static_cast<uint8_t>(PageType::kData):
      info.type = PageType::kData;
      break;
    case static_cast<uint8_t>(PageType::kLog):
      info.type = PageType::kLog;
      break;
    case static_cast<uint8_t>(PageType::kOrig):
      info.type = PageType::kOrig;
      break;
    case static_cast<uint8_t>(PageType::kMeta):
      info.type = PageType::kMeta;
      break;
    default:
      info.type = PageType::kInvalid;
      break;
  }
  // The marker is outside the CRC, and marking clears all eight of its bits,
  // so it is read by majority: a few flipped bits cannot retire a live page
  // or revive an obsolete one.
  info.obsolete = std::popcount(spare[3]) < 4;
  info.pid = DecodeFixed32(spare.data() + 4);
  info.timestamp = DecodeFixed64(spare.data() + 8);
  info.crc_ok = magic == kMagic &&
                DecodeFixed32(spare.data() + 16) == SpareCrc(spare);
  if (spare.size() >= kSpareDataCrcEnd) {
    info.data_crc = DecodeFixed32(spare.data() + kSpareDataCrcOffset);
  }
  return info;
}

Status VerifyPageRead(const SpareInfo& info, ConstBytes data,
                      flash::PhysAddr addr) {
  if (!info.programmed) return Status::OK();
  if (!info.crc_ok) {
    return Status::Corruption(
        "uncorrectable read: spare metadata CRC mismatch at phys page " +
        std::to_string(addr) + " (pid " + std::to_string(info.pid) + ")");
  }
  if (!data.empty() && PageTypeCarriesDataCrc(info.type) &&
      Crc32c(data) != info.data_crc) {
    return Status::Corruption(
        "uncorrectable read: data CRC mismatch at phys page " +
        std::to_string(addr) + " (pid " + std::to_string(info.pid) +
        ", type 0x" + std::to_string(static_cast<unsigned>(info.type)) + ")");
  }
  return Status::OK();
}

static_assert(flash::FlashGeometry::spare_size >= kSpareDataCrcEnd,
              "the spare codec's fields must fit in the spare area");

Status ReadVerifiedPage(flash::FlashDevice* dev, flash::PhysAddr addr,
                        MutBytes data, MutBytes spare, SpareInfo* info_out) {
  uint8_t local[flash::FlashGeometry::spare_size];
  const MutBytes sp = spare.empty() ? MutBytes(local) : spare;
  FLASHDB_RETURN_IF_ERROR(dev->ReadPage(addr, data, sp));
  const SpareInfo info = DecodeSpare(sp);
  if (info_out != nullptr) *info_out = info;
  return VerifyPageRead(info, data, addr);
}

void EncodeObsoleteMark(MutBytes spare) {
  assert(spare.size() >= kSpareEncodedSize);
  std::fill(spare.begin(), spare.end(), 0xFF);
  spare[3] = 0x00;
}

}  // namespace flashdb::ftl
