#include "common/crc32.h"

#include <array>

#include "common/crc32_table.h"

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace flashdb {

namespace {
constexpr uint32_t kPoly = 0x82F63B78;  // reversed CRC-32C polynomial

constexpr std::array<uint32_t, 256> BuildTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? (kPoly ^ (c >> 1)) : (c >> 1);
    table[i] = c;
  }
  return table;
}

constexpr std::array<uint32_t, 256> kTable = BuildTable();

#if defined(__x86_64__)
// SSE4.2's crc32 instruction computes CRC-32C (the Castagnoli polynomial)
// over 8 bytes at a time; the tail goes a byte at a time.
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(ConstBytes data,
                                                       uint32_t seed) {
  const uint8_t* p = data.data();
  const uint8_t* const end = p + data.size();
  uint64_t c = seed ^ 0xFFFFFFFFu;
  for (; end - p >= 8; p += 8) {
    uint64_t w;
    std::memcpy(&w, p, sizeof(w));
    c = _mm_crc32_u64(c, w);
  }
  uint32_t c32 = static_cast<uint32_t>(c);
  for (; p < end; ++p) c32 = _mm_crc32_u8(c32, *p);
  return c32 ^ 0xFFFFFFFFu;
}
#endif

using CrcFn = uint32_t (*)(ConstBytes, uint32_t);

CrcFn PickCrc() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return Crc32cSse42;
#endif
  return Crc32cTable;
}
}  // namespace

uint32_t Crc32cTable(ConstBytes data, uint32_t seed) {
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (uint8_t b : data) c = kTable[(c ^ b) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

uint32_t Crc32c(ConstBytes data, uint32_t seed) {
  // The path is chosen once, on first use, by what the CPU supports.
  static const CrcFn impl = PickCrc();
  return impl(data, seed);
}

}  // namespace flashdb
