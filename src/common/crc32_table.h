// The byte-table CRC-32C behind Crc32c (common/crc32.h): the fallback on a
// CPU without SSE4.2, and the reference the tests hold every path to.
// Callers outside common/ and tests/ use Crc32c.

#ifndef FLASHDB_COMMON_CRC32_TABLE_H_
#define FLASHDB_COMMON_CRC32_TABLE_H_

#include <cstdint>

#include "common/bytes.h"

namespace flashdb {

/// Crc32c computed one byte at a time through a 256-entry table.
uint32_t Crc32cTable(ConstBytes data, uint32_t seed = 0);

}  // namespace flashdb

#endif  // FLASHDB_COMMON_CRC32_TABLE_H_
