#include "common/bytes.h"

#include <bit>

namespace flashdb {

namespace {
constexpr size_t kWord = sizeof(uint64_t);

uint64_t LoadWord(const uint8_t* p) {
  uint64_t w;
  std::memcpy(&w, p, kWord);
  return w;
}
}  // namespace

std::string HexDump(ConstBytes bytes, size_t max_bytes) {
  static const char kHex[] = "0123456789abcdef";
  std::string out;
  const size_t n = bytes.size() < max_bytes ? bytes.size() : max_bytes;
  out.reserve(n * 2 + 4);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(kHex[bytes[i] >> 4]);
    out.push_back(kHex[bytes[i] & 0xF]);
  }
  if (n < bytes.size()) out += "...";
  return out;
}

// Inside a mismatching word the differing byte is located from the XOR's
// trailing (FirstMismatch) or leading (LastMismatch) zeros, which name byte
// positions only on little-endian hosts; elsewhere the byte loop finds it.

size_t FirstMismatch(ConstBytes a, ConstBytes b) {
  const size_t n = a.size();
  size_t i = 0;
  for (; i + kWord <= n; i += kWord) {
    const uint64_t x = LoadWord(a.data() + i) ^ LoadWord(b.data() + i);
    if (x == 0) continue;
    if constexpr (std::endian::native == std::endian::little) {
      return i + static_cast<size_t>(std::countr_zero(x)) / 8;
    }
    break;
  }
  while (i < n && a[i] == b[i]) ++i;
  return i;
}

size_t LastMismatch(ConstBytes a, ConstBytes b) {
  size_t hi = a.size();
  for (; hi >= kWord; hi -= kWord) {
    const uint64_t x =
        LoadWord(a.data() + hi - kWord) ^ LoadWord(b.data() + hi - kWord);
    if (x == 0) continue;
    if constexpr (std::endian::native == std::endian::little) {
      return hi - static_cast<size_t>(std::countl_zero(x)) / 8;
    }
    break;
  }
  while (hi > 0 && a[hi - 1] == b[hi - 1]) --hi;
  return hi;
}

bool ProgramBits(MutBytes cells, ConstBytes src) {
  // OR-reduce the bits `src` would have to set, over the whole range, before
  // touching any cell.
  const size_t n = cells.size();
  uint64_t raised = 0;
  size_t i = 0;
  for (; i + kWord <= n; i += kWord) {
    raised |= LoadWord(src.data() + i) & ~LoadWord(cells.data() + i);
  }
  for (; i < n; ++i) raised |= static_cast<uint8_t>(src[i] & ~cells[i]);
  if (raised != 0) return false;
  AndBits(cells, src);
  return true;
}

void AndBits(MutBytes cells, ConstBytes src) {
  const size_t n = cells.size();
  size_t i = 0;
  for (; i + kWord <= n; i += kWord) {
    const uint64_t w = LoadWord(cells.data() + i) & LoadWord(src.data() + i);
    std::memcpy(cells.data() + i, &w, kWord);
  }
  for (; i < n; ++i) cells[i] &= src[i];
}

}  // namespace flashdb
