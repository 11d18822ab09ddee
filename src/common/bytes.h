// Byte-span aliases, small helpers and the page byte kernels shared across
// the code base.
//
// The page byte kernels serve the flash emulator's program rule, the buffer
// pool's changed-range scan and the differential's skip scan. Each works on
// 8-byte words and finishes the tail byte by byte, and each returns exactly
// what a plain byte loop would.

#ifndef FLASHDB_COMMON_BYTES_H_
#define FLASHDB_COMMON_BYTES_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

namespace flashdb {

/// Immutable view of raw bytes.
using ConstBytes = std::span<const uint8_t>;
/// Mutable view of raw bytes.
using MutBytes = std::span<uint8_t>;
/// Owned byte buffer.
using ByteBuffer = std::vector<uint8_t>;

/// Returns true when the two spans have equal length and contents.
inline bool BytesEqual(ConstBytes a, ConstBytes b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0);
}

/// Copies `src` into `dst`; requires dst.size() >= src.size().
inline void CopyBytes(MutBytes dst, ConstBytes src) {
  if (!src.empty()) std::memcpy(dst.data(), src.data(), src.size());
}

/// Renders bytes as lowercase hex, capped at `max_bytes` (for diagnostics).
std::string HexDump(ConstBytes bytes, size_t max_bytes = 64);

// Page byte kernels. Each requires a.size() == b.size() (cells.size() ==
// src.size()).

/// Index of the first byte at which `a` and `b` differ, or a.size() when
/// they are equal.
size_t FirstMismatch(ConstBytes a, ConstBytes b);

/// One past the index of the last byte at which `a` and `b` differ, or 0
/// when they are equal.
size_t LastMismatch(ConstBytes a, ConstBytes b);

/// The NAND program rule: a program can only clear bits. Returns false and
/// leaves `cells` untouched when `src` sets a bit that `cells` has already
/// cleared; otherwise ANDs `src` into `cells` (AndBits) and returns true.
bool ProgramBits(MutBytes cells, ConstBytes src);

/// Partial-program semantics: each 0 bit of `src` clears its cell and each
/// 1 bit leaves it as it is.
void AndBits(MutBytes cells, ConstBytes src);

}  // namespace flashdb

#endif  // FLASHDB_COMMON_BYTES_H_
