// Encoding of the per-page spare area (64 bytes, Table 1).
//
// Layout (offsets in bytes):
//   0..1   magic 0x5044 ("PD")        -- distinguishes programmed from erased
//                                        (0xFFFF); any other value is a
//                                        programmed header read with bit
//                                        errors, and fails the CRC
//   2      page type                  -- base / differential / log / raw data
//   3      obsolete marker            -- 0xFF valid, 0x00 obsolete; cleared by
//                                        a later partial program (footnote 9),
//                                        read by majority of its bits
//   4..7   physical page ID (pid)     -- logical page the contents belong to
//   8..15  creation timestamp         -- logical clock, for Fig. 11 recovery
//   16..19 CRC-32C over bytes {0..2, 4..15}
//   20     bad-block OOB mark (flash::kBadBlockOobOffset) -- 0xFF good; any
//          cleared bit on page 0 of a block marks the whole block bad
//          (factory-marked or grown). Outside the CRC by construction.
//   24..27 CRC-32C over the page's *data area* -- present on page types whose
//          data is programmed exactly once with its final contents (kBase,
//          kDiff, kData, kOrig; see PageTypeCarriesDataCrc). Absent (erased
//          0xFF bytes) on kLog pages, whose data area keeps evolving via
//          partial programs, and on kMeta frames, which carry their own
//          frame/record CRCs in the data area. A GC relocation of an
//          unchanged page copies the value its verified read just checked.
//
// The obsolete marker is deliberately excluded from the metadata CRC because
// it is programmed *after* the page is written, by clearing bits only.

#ifndef FLASHDB_FTL_SPARE_CODEC_H_
#define FLASHDB_FTL_SPARE_CODEC_H_

#include <cstdint>
#include <optional>

#include "common/bytes.h"
#include "flash/flash_device.h"

namespace flashdb::ftl {

/// On-flash page roles.
enum class PageType : uint8_t {
  kFree = 0xFF,  ///< Never programmed (erased spare).
  kBase = 0xB4,  ///< PDL base page (also used for OPU/IPU data pages' kin).
  kDiff = 0xD2,  ///< PDL differential page.
  kData = 0xA6,  ///< Page-based methods' data page.
  kLog = 0x96,   ///< IPL log page.
  kOrig = 0x86,  ///< IPL original page.
  kMeta = 0x3C,  ///< MetaJournal record frame (meta region only).
  kInvalid = 0x00,
};

/// Decoded view of a spare area.
struct SpareInfo {
  PageType type = PageType::kFree;
  bool obsolete = false;
  uint32_t pid = 0;
  uint64_t timestamp = 0;
  bool crc_ok = false;    ///< Only meaningful when `programmed`.
  bool programmed = false;  ///< Magic not erased (page programmed).
  /// Bad-block OOB mark (flash::kBadBlockOobOffset) found cleared. Only
  /// meaningful on page 0 of a block; set independently of `programmed`
  /// (a factory-bad block carries the mark on an otherwise erased page).
  bool bad_block = false;
  /// Raw bytes 24..27: CRC-32C of the page's data area on types that carry
  /// one (PageTypeCarriesDataCrc); erased 0xFFFFFFFF otherwise.
  uint32_t data_crc = 0;
};

/// Minimum spare size these helpers require.
inline constexpr uint32_t kSpareEncodedSize = 20;

/// Byte offset of the data-area CRC (past the bad-block OOB byte at 20).
inline constexpr uint32_t kSpareDataCrcOffset = 24;

/// Spare size needed for the data-CRC field.
inline constexpr uint32_t kSpareDataCrcEnd = kSpareDataCrcOffset + 4;

/// True for page types whose data area is programmed exactly once with its
/// final contents, so EncodeSpare stamps a data CRC and every read of the
/// data area can be verified against it. kLog is excluded (IPL fills log
/// slots with later partial programs) and kMeta frames carry their own CRCs.
inline bool PageTypeCarriesDataCrc(PageType t) {
  return t == PageType::kBase || t == PageType::kDiff ||
         t == PageType::kData || t == PageType::kOrig;
}

/// Writes the whole initial-program image of a spare area into `spare`
/// (flash::FlashGeometry::spare_size bytes): the fields above, every other
/// byte erased (0xFF). When `data` is non-empty it must be the page's final
/// data-area image: its CRC-32C is stamped at kSpareDataCrcOffset so reads
/// can detect delivered bit errors. Pass the data for every type with
/// PageTypeCarriesDataCrc; pass {} for kLog/kMeta.
///
/// A CRC is computed only where it is checked. A relocation that carries a
/// page unchanged passes `verified_crc`: the data CRC its verified read of
/// the same bytes just checked (SpareInfo::data_crc). It is stamped as is,
/// not computed again; Debug builds assert it matches `data`.
void EncodeSpare(MutBytes spare, PageType type, uint32_t pid,
                 uint64_t timestamp, ConstBytes data = {},
                 std::optional<uint32_t> verified_crc = std::nullopt);

/// Parses a spare image. Erased spare decodes to type kFree.
SpareInfo DecodeSpare(ConstBytes spare);

/// Produces the partial-program image that marks a page obsolete: all bits 1
/// except the obsolete marker byte, so ANDing leaves everything else intact.
void EncodeObsoleteMark(MutBytes spare);

/// Reads `addr`'s data area (and spare metadata) in one device read and
/// verifies integrity end to end: the spare's metadata CRC must hold, and on
/// page types that carry a data CRC the delivered data must match it.
/// Returns kCorruption naming the page identity (pid, physical address,
/// type) when either check fails -- the typed uncorrectable-read surface.
/// Reads of erased pages pass through unverified (type kFree). `spare` may
/// be empty when the caller does not need the raw spare bytes; `info_out`
/// (optional) receives the decoded spare either way.
Status ReadVerifiedPage(flash::FlashDevice* dev, flash::PhysAddr addr,
                        MutBytes data, MutBytes spare = {},
                        SpareInfo* info_out = nullptr);

/// Verification half of ReadVerifiedPage for callers that already hold the
/// delivered data + decoded spare of one device read.
Status VerifyPageRead(const SpareInfo& info, ConstBytes data,
                      flash::PhysAddr addr);

}  // namespace flashdb::ftl

#endif  // FLASHDB_FTL_SPARE_CODEC_H_
