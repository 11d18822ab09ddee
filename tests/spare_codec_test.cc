// Unit tests for the spare-area codec.

#include <gtest/gtest.h>

#include "ftl/spare_codec.h"

namespace flashdb::ftl {
namespace {

TEST(SpareCodecTest, RoundTrip) {
  ByteBuffer spare(64, 0xFF);
  EncodeSpare(spare, PageType::kBase, 1234, 0xABCDEF0122334455ULL);
  SpareInfo info = DecodeSpare(spare);
  EXPECT_TRUE(info.programmed);
  EXPECT_EQ(info.type, PageType::kBase);
  EXPECT_FALSE(info.obsolete);
  EXPECT_EQ(info.pid, 1234u);
  EXPECT_EQ(info.timestamp, 0xABCDEF0122334455ULL);
  EXPECT_TRUE(info.crc_ok);
}

// EncodeSpare owns the whole image: whatever the buffer held before, every
// byte outside its fields reads erased.
TEST(SpareCodecTest, EncodeWritesTheWholeImage) {
  const ByteBuffer page(2048, 0x5A);
  ByteBuffer from_erased(64, 0xFF);
  ByteBuffer from_zero(64, 0x00);
  EncodeSpare(from_erased, PageType::kBase, 9, 33, page);
  EncodeSpare(from_zero, PageType::kBase, 9, 33, page);
  EXPECT_EQ(from_zero, from_erased);
  EXPECT_EQ(from_zero[20], 0xFF);  // the bad-block mark stays good
  EXPECT_TRUE(DecodeSpare(from_zero).crc_ok);
  EncodeSpare(from_zero, PageType::kLog, 9, 33);  // no data CRC on kLog
  EXPECT_EQ(DecodeSpare(from_zero).data_crc, 0xFFFFFFFFu);
}

TEST(SpareCodecTest, ErasedSpareDecodesAsFree) {
  ByteBuffer spare(64, 0xFF);
  SpareInfo info = DecodeSpare(spare);
  EXPECT_FALSE(info.programmed);
  EXPECT_EQ(info.type, PageType::kFree);
}

TEST(SpareCodecTest, AllTypesRoundTrip) {
  for (PageType t : {PageType::kBase, PageType::kDiff, PageType::kData,
                     PageType::kLog, PageType::kOrig}) {
    ByteBuffer spare(64, 0xFF);
    EncodeSpare(spare, t, 1, 1);
    EXPECT_EQ(DecodeSpare(spare).type, t);
  }
}

TEST(SpareCodecTest, ObsoleteMarkOnlyClearsMarkerByte) {
  ByteBuffer spare(64, 0xFF);
  EncodeSpare(spare, PageType::kDiff, 77, 99);
  // Simulate the device AND-combining a partial program.
  ByteBuffer mark(64, 0xFF);
  EncodeObsoleteMark(mark);
  for (size_t i = 0; i < spare.size(); ++i) spare[i] &= mark[i];
  SpareInfo info = DecodeSpare(spare);
  EXPECT_TRUE(info.obsolete);
  EXPECT_EQ(info.pid, 77u);
  EXPECT_EQ(info.timestamp, 99u);
  EXPECT_TRUE(info.crc_ok);  // CRC excludes the obsolete byte
}

TEST(SpareCodecTest, ObsoleteMarkImageOnlyClearsBits) {
  ByteBuffer mark(64, 0xFF);
  EncodeObsoleteMark(mark);
  int cleared = 0;
  for (uint8_t b : mark) cleared += (b != 0xFF);
  EXPECT_EQ(cleared, 1);  // exactly the marker byte
  EXPECT_EQ(mark[3], 0x00);
}

TEST(SpareCodecTest, CorruptionDetectedByCrc) {
  ByteBuffer spare(64, 0xFF);
  EncodeSpare(spare, PageType::kBase, 42, 7);
  spare[4] &= 0x0F;  // clear bits of the pid low byte (42 = 0x2A -> 0x0A)
  SpareInfo info = DecodeSpare(spare);
  EXPECT_FALSE(info.crc_ok);
}

// Reads deliver bit errors; programs are atomic. A header whose magic is
// neither ours nor erased was programmed and misread, and the obsolete
// marker, outside the CRC, is read by majority of its bits.
TEST(SpareCodecTest, GarbledMagicDecodesAsProgrammedWithBadCrc) {
  ByteBuffer spare(64, 0xFF);
  EncodeSpare(spare, PageType::kBase, 42, 7);
  spare[1] ^= 0x10;
  SpareInfo info = DecodeSpare(spare);
  EXPECT_TRUE(info.programmed);
  EXPECT_FALSE(info.crc_ok);
  EXPECT_FALSE(info.obsolete);
}

TEST(SpareCodecTest, ObsoleteMarkerIsReadByMajority) {
  ByteBuffer spare(64, 0xFF);
  EncodeSpare(spare, PageType::kBase, 42, 7);
  spare[3] = 0xE5;  // a live marker with three bits flipped
  SpareInfo info = DecodeSpare(spare);
  EXPECT_FALSE(info.obsolete);
  EXPECT_TRUE(info.crc_ok);
  spare[3] = 0x0B;  // an obsolete marker with three bits flipped
  info = DecodeSpare(spare);
  EXPECT_TRUE(info.obsolete);
  EXPECT_TRUE(info.crc_ok);
}

TEST(SpareCodecTest, UnknownTypeDecodesAsInvalid) {
  ByteBuffer spare(64, 0xFF);
  EncodeSpare(spare, PageType::kBase, 42, 7);
  spare[2] = 0x13;  // not a defined type value
  EXPECT_EQ(DecodeSpare(spare).type, PageType::kInvalid);
}

TEST(SpareCodecTest, BoundaryPidAndTimestamp) {
  ByteBuffer spare(64, 0xFF);
  EncodeSpare(spare, PageType::kDiff, 0xFFFFFFFEu, ~0ULL);
  SpareInfo info = DecodeSpare(spare);
  EXPECT_EQ(info.pid, 0xFFFFFFFEu);
  EXPECT_EQ(info.timestamp, ~0ULL);
  EXPECT_TRUE(info.crc_ok);
}

}  // namespace
}  // namespace flashdb::ftl
