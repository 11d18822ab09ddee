// Little-endian fixed-width integer encode/decode helpers used by the spare
// area codec, the differential codec and the record formats.

#ifndef FLASHDB_COMMON_CODING_H_
#define FLASHDB_COMMON_CODING_H_

#include <cstdint>
#include <cstring>

#include "common/bytes.h"

namespace flashdb {

inline void EncodeFixed16(uint8_t* dst, uint16_t v) {
  dst[0] = static_cast<uint8_t>(v);
  dst[1] = static_cast<uint8_t>(v >> 8);
}

inline void EncodeFixed32(uint8_t* dst, uint32_t v) {
  dst[0] = static_cast<uint8_t>(v);
  dst[1] = static_cast<uint8_t>(v >> 8);
  dst[2] = static_cast<uint8_t>(v >> 16);
  dst[3] = static_cast<uint8_t>(v >> 24);
}

inline void EncodeFixed64(uint8_t* dst, uint64_t v) {
  for (int i = 0; i < 8; ++i) dst[i] = static_cast<uint8_t>(v >> (8 * i));
}

inline uint16_t DecodeFixed16(const uint8_t* src) {
  return static_cast<uint16_t>(src[0]) |
         static_cast<uint16_t>(static_cast<uint16_t>(src[1]) << 8);
}

inline uint32_t DecodeFixed32(const uint8_t* src) {
  return static_cast<uint32_t>(src[0]) | (static_cast<uint32_t>(src[1]) << 8) |
         (static_cast<uint32_t>(src[2]) << 16) |
         (static_cast<uint32_t>(src[3]) << 24);
}

inline uint64_t DecodeFixed64(const uint8_t* src) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | src[i];
  return v;
}

/// Append-style writer over a growable buffer.
class BufferWriter {
 public:
  explicit BufferWriter(ByteBuffer* out) : out_(out) {}

  void PutU8(uint8_t v) { out_->push_back(v); }
  void PutU16(uint16_t v) { EncodeFixed16(Grow(2), v); }
  void PutU32(uint32_t v) { EncodeFixed32(Grow(4), v); }
  void PutU64(uint64_t v) { EncodeFixed64(Grow(8), v); }
  void PutBytes(ConstBytes b) { out_->insert(out_->end(), b.begin(), b.end()); }

 private:
  /// Appends `n` bytes and returns where they start, for encoding in place.
  uint8_t* Grow(size_t n) {
    out_->resize(out_->size() + n);
    return out_->data() + out_->size() - n;
  }

  ByteBuffer* out_;
};

/// Bounds-checked sequential reader over a byte span. After any failed read
/// the reader is in the failed() state and further reads return zeros.
class BufferReader {
 public:
  explicit BufferReader(ConstBytes in) : in_(in) {}

  bool failed() const { return failed_; }
  size_t remaining() const { return in_.size() - pos_; }
  size_t position() const { return pos_; }

  uint8_t GetU8() {
    if (!Require(1)) return 0;
    return in_[pos_++];
  }
  uint16_t GetU16() {
    if (!Require(2)) return 0;
    uint16_t v = DecodeFixed16(in_.data() + pos_);
    pos_ += 2;
    return v;
  }
  uint32_t GetU32() {
    if (!Require(4)) return 0;
    uint32_t v = DecodeFixed32(in_.data() + pos_);
    pos_ += 4;
    return v;
  }
  uint64_t GetU64() {
    if (!Require(8)) return 0;
    uint64_t v = DecodeFixed64(in_.data() + pos_);
    pos_ += 8;
    return v;
  }
  /// Returns a view of the next n bytes (empty on underflow).
  ConstBytes GetBytes(size_t n) {
    if (!Require(n)) return {};
    ConstBytes v = in_.subspan(pos_, n);
    pos_ += n;
    return v;
  }

 private:
  bool Require(size_t n) {
    if (failed_ || in_.size() - pos_ < n) {
      failed_ = true;
      return false;
    }
    return true;
  }

  ConstBytes in_;
  size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace flashdb

#endif  // FLASHDB_COMMON_CODING_H_
