// CRC-32C (Castagnoli) used to validate spare-area metadata, page data and
// on-flash structures: every page program stamps one and every verified
// read checks it.

#ifndef FLASHDB_COMMON_CRC32_H_
#define FLASHDB_COMMON_CRC32_H_

#include <cstdint>

#include "common/bytes.h"

namespace flashdb {

/// Computes CRC-32C over `data`, continuing from `seed` (0 to start). Runs
/// SSE4.2's crc32 instruction where the CPU has it, and a byte table
/// (common/crc32_table.h) elsewhere; both give the same value. The SSE4.2
/// path runs three interleaved lanes over each 2,040-byte stride (a 2 KB
/// page is one stride and one word) and the plain 8-byte loop over anything
/// shorter, such as the 15 header bytes of a spare.
uint32_t Crc32c(ConstBytes data, uint32_t seed = 0);

}  // namespace flashdb

#endif  // FLASHDB_COMMON_CRC32_H_
