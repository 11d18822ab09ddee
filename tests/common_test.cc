// Unit tests for src/common: Status/Result, coding, CRC, Random, SimClock.

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/coding.h"
#include "common/crc32.h"
#include "common/random.h"
#include "common/result.h"
#include "common/sim_clock.h"
#include "common/status.h"

namespace flashdb {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::Corruption("bad page");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsCorruption());
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_EQ(s.message(), "bad page");
  EXPECT_EQ(s.ToString(), "Corruption: bad page");
}

TEST(StatusTest, EveryFactoryProducesMatchingCode) {
  EXPECT_EQ(Status::InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIOError);
  EXPECT_EQ(Status::NoSpace("x").code(), StatusCode::kNoSpace);
  EXPECT_EQ(Status::NotSupported("x").code(), StatusCode::kNotSupported);
  EXPECT_EQ(Status::FlashConstraint("x").code(), StatusCode::kFlashConstraint);
  EXPECT_EQ(Status::Busy("x").code(), StatusCode::kBusy);
  EXPECT_EQ(Status::Aborted("x").code(), StatusCode::kAborted);
}

TEST(StatusTest, PredicateHelpers) {
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::NoSpace("x").IsNoSpace());
  EXPECT_TRUE(Status::FlashConstraint("x").IsFlashConstraint());
  EXPECT_FALSE(Status::OK().IsNotFound());
}

Result<int> ParsePositive(int v) {
  if (v <= 0) return Status::InvalidArgument("not positive");
  return v * 2;
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = ParsePositive(21);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = ParsePositive(-1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.value_or(7), 7);
}

Status UseAssignOrReturn(int v, int* out) {
  FLASHDB_ASSIGN_OR_RETURN(*out, ParsePositive(v));
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseAssignOrReturn(5, &out).ok());
  EXPECT_EQ(out, 10);
  EXPECT_FALSE(UseAssignOrReturn(-5, &out).ok());
}

TEST(CodingTest, Fixed16RoundTrip) {
  uint8_t buf[2];
  for (uint32_t v : {0u, 1u, 255u, 256u, 65535u}) {
    EncodeFixed16(buf, static_cast<uint16_t>(v));
    EXPECT_EQ(DecodeFixed16(buf), v);
  }
}

TEST(CodingTest, Fixed32RoundTrip) {
  uint8_t buf[4];
  for (uint32_t v : {0u, 1u, 0xDEADBEEFu, 0xFFFFFFFFu}) {
    EncodeFixed32(buf, v);
    EXPECT_EQ(DecodeFixed32(buf), v);
  }
}

TEST(CodingTest, Fixed64RoundTrip) {
  uint8_t buf[8];
  for (uint64_t v : {0ULL, 1ULL, 0x0123456789ABCDEFULL, ~0ULL}) {
    EncodeFixed64(buf, v);
    EXPECT_EQ(DecodeFixed64(buf), v);
  }
}

TEST(CodingTest, LittleEndianLayout) {
  uint8_t buf[4];
  EncodeFixed32(buf, 0x01020304u);
  EXPECT_EQ(buf[0], 0x04);
  EXPECT_EQ(buf[3], 0x01);
}

TEST(CodingTest, WriterReaderRoundTrip) {
  ByteBuffer out;
  BufferWriter w(&out);
  w.PutU8(7);
  w.PutU16(1234);
  w.PutU32(567890);
  w.PutU64(0xABCDEF0123456789ULL);
  const uint8_t payload[] = {1, 2, 3};
  w.PutBytes(payload);

  BufferReader r(out);
  EXPECT_EQ(r.GetU8(), 7);
  EXPECT_EQ(r.GetU16(), 1234);
  EXPECT_EQ(r.GetU32(), 567890u);
  EXPECT_EQ(r.GetU64(), 0xABCDEF0123456789ULL);
  ConstBytes got = r.GetBytes(3);
  EXPECT_TRUE(BytesEqual(got, payload));
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_FALSE(r.failed());
}

TEST(CodingTest, ReaderUnderflowSetsFailed) {
  ByteBuffer buf = {1, 2};
  BufferReader r(buf);
  EXPECT_EQ(r.GetU32(), 0u);
  EXPECT_TRUE(r.failed());
  // Subsequent reads keep returning zeros.
  EXPECT_EQ(r.GetU8(), 0);
}

TEST(Crc32Test, KnownValueAndSensitivity) {
  const uint8_t data[] = {'a', 'b', 'c'};
  const uint32_t c1 = Crc32c(data);
  EXPECT_NE(c1, 0u);
  uint8_t data2[] = {'a', 'b', 'd'};
  EXPECT_NE(Crc32c(data2), c1);
}

TEST(Crc32Test, SeedChaining) {
  const uint8_t all[] = {1, 2, 3, 4, 5, 6};
  uint32_t whole = Crc32c(all);
  uint32_t part = Crc32c(ConstBytes(all, 3));
  part = Crc32c(ConstBytes(all + 3, 3), part);
  EXPECT_EQ(whole, part);
}

TEST(RandomTest, DeterministicForSeed) {
  Random a(7), b(7), c(8);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RandomTest, UniformStaysInBounds) {
  Random r(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.Uniform(17), 17u);
    const uint64_t v = r.Range(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
}

TEST(RandomTest, FillCoversBuffer) {
  Random r(3);
  ByteBuffer buf(100, 0);
  r.Fill(buf);
  int nonzero = 0;
  for (uint8_t b : buf) nonzero += b != 0;
  EXPECT_GT(nonzero, 50);  // overwhelmingly likely
}

TEST(RandomTest, BernoulliExtremes) {
  Random r(4);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.Bernoulli(0.0));
    EXPECT_TRUE(r.Bernoulli(1.0));
  }
}

TEST(RandomTest, SkewedInRange) {
  Random r(5);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.Skewed(50, 0.8), 50u);
}

TEST(SimClockTest, AdvanceToAndReset) {
  SimClock clock;
  EXPECT_EQ(clock.now_us(), 0u);
  clock.AdvanceTo(1120);
  EXPECT_EQ(clock.now_us(), 1120u);
  clock.AdvanceTo(110);  // a time in the past never moves the clock back
  EXPECT_EQ(clock.now_us(), 1120u);
  clock.Reset();
  EXPECT_EQ(clock.now_us(), 0u);
}

TEST(BytesTest, EqualityAndHexDump) {
  ByteBuffer a = {0xDE, 0xAD};
  ByteBuffer b = {0xDE, 0xAD};
  ByteBuffer c = {0xDE, 0xAE};
  EXPECT_TRUE(BytesEqual(a, b));
  EXPECT_FALSE(BytesEqual(a, c));
  EXPECT_EQ(HexDump(a), "dead");
  EXPECT_EQ(HexDump(a, 1), "de...");
}

}  // namespace
}  // namespace flashdb
