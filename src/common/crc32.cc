#include "common/crc32.h"

#include <array>
#include <cstddef>
#include <cstring>

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

using LaneZeroTables = std::array<std::array<uint32_t, 256>, 4>;

/// The "append kCrc32cLaneBytes zero bytes" map, one 256-entry table per
/// byte of the register. The map is linear over GF(2), so each entry is the
/// XOR of the images of its set bits, and each bit's image is the byte
/// table run over the zeros (32 x 680 steps, within every compiler's
/// constant-evaluation budget).
constexpr LaneZeroTables BuildLaneZeroTables() {
  std::array<uint32_t, 32> bit_image{};
  for (int j = 0; j < 32; ++j) {
    uint32_t c = uint32_t{1} << j;
    for (size_t n = 0; n < kCrc32cLaneBytes; ++n) {
      c = kTable[c & 0xFF] ^ (c >> 8);
    }
    bit_image[j] = c;
  }
  LaneZeroTables tables{};
  for (int k = 0; k < 4; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t v = 0;
      for (int j = 0; j < 8; ++j) {
        if ((i >> j) & 1) v ^= bit_image[8 * k + j];
      }
      tables[k][i] = v;
    }
  }
  return tables;
}

constexpr LaneZeroTables kLaneZeros = BuildLaneZeroTables();

/// Advances a raw register over kCrc32cLaneBytes zero bytes: four lookups.
inline uint32_t AppendLaneZeros(uint32_t c) {
  return kLaneZeros[0][c & 0xFF] ^ kLaneZeros[1][(c >> 8) & 0xFF] ^
         kLaneZeros[2][(c >> 16) & 0xFF] ^ kLaneZeros[3][c >> 24];
}

#if defined(__x86_64__)
inline uint64_t Load64(const uint8_t* p) {
  uint64_t w;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

// SSE4.2's crc32 instruction computes CRC-32C (the Castagnoli polynomial)
// over 8 bytes at a time. It has a 3-cycle latency and issues once a cycle,
// so one dependent chain runs at a third of its throughput. Each
// 3 x kCrc32cLaneBytes stride therefore runs three independent lanes (Intel,
// "Fast CRC Computation for iSCSI Polynomial Using CRC32 Instruction",
// 2011) and joins them with the zero-append map: by linearity, the register
// after lanes A then B is AppendLaneZeros(the register after A) ^ (B run
// from a zero register). Shorter inputs and the tail go 8 bytes, then 1
// byte, at a time.
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(ConstBytes data,
                                                       uint32_t seed) {
  constexpr size_t kLane = kCrc32cLaneBytes;
  static_assert(kLane % 8 == 0, "a lane is whole 8-byte words");
  const uint8_t* p = data.data();
  const uint8_t* const end = p + data.size();
  uint64_t c = seed ^ 0xFFFFFFFFu;
  for (; static_cast<size_t>(end - p) >= 3 * kLane; p += 3 * kLane) {
    uint64_t b = 0;
    uint64_t d = 0;
    for (size_t i = 0; i < kLane; i += 8) {
      c = _mm_crc32_u64(c, Load64(p + i));
      b = _mm_crc32_u64(b, Load64(p + kLane + i));
      d = _mm_crc32_u64(d, Load64(p + 2 * kLane + i));
    }
    c = AppendLaneZeros(static_cast<uint32_t>(c)) ^ b;
    c = AppendLaneZeros(static_cast<uint32_t>(c)) ^ d;
  }
  for (; end - p >= 8; p += 8) c = _mm_crc32_u64(c, Load64(p));
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

uint32_t Crc32cAppendLaneZeros(uint32_t crc) { return AppendLaneZeros(crc); }

uint32_t Crc32c(ConstBytes data, uint32_t seed) {
  // The path is chosen once, on first use, by what the CPU supports.
  static const CrcFn impl = PickCrc();
  return impl(data, seed);
}

}  // namespace flashdb
