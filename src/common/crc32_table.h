// The byte-table CRC-32C behind Crc32c (common/crc32.h): the fallback on a
// CPU without SSE4.2, and the reference the tests hold every path to. Also
// the lane join of the three-lane SSE4.2 kernel, so the tests can hold it to
// the table too. Callers outside common/ and tests/ use Crc32c.

#ifndef FLASHDB_COMMON_CRC32_TABLE_H_
#define FLASHDB_COMMON_CRC32_TABLE_H_

#include <cstddef>
#include <cstdint>

#include "common/bytes.h"

namespace flashdb {

/// Crc32c computed one byte at a time through a 256-entry table.
uint32_t Crc32cTable(ConstBytes data, uint32_t seed = 0);

/// Bytes per lane of the SSE4.2 kernel, which runs three lanes per
/// 2,040-byte stride.
inline constexpr size_t kCrc32cLaneBytes = 680;

/// The kernel's lane join: the raw CRC register `crc` (without the pre- and
/// post-inversion of Crc32c's seed and result) advanced over
/// kCrc32cLaneBytes zero bytes. Reads four compile-time 256-entry tables.
uint32_t Crc32cAppendLaneZeros(uint32_t crc);

}  // namespace flashdb

#endif  // FLASHDB_COMMON_CRC32_TABLE_H_
