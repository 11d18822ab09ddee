// Unit tests for src/common: Status/Result, coding, CRC, Random, SimClock.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/coding.h"
#include "common/crc32.h"
#include "common/crc32_table.h"
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
  // The CRC-32C check value (RFC 3720, B.4), on every path.
  const uint8_t check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(Crc32c(check), 0xE3069283u);
  EXPECT_EQ(Crc32cTable(check), 0xE3069283u);
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
  // Random lengths, alignments and cut points, on both paths.
  Random r(5);
  ByteBuffer buf(4096 + 8);
  for (int trial = 0; trial < 200; ++trial) {
    r.Fill(buf);
    const size_t len = r.Uniform(4097);
    const ConstBytes data(buf.data() + r.Uniform(8), len);
    const size_t cut = r.Uniform(len + 1);
    const ConstBytes head = data.first(cut);
    const ConstBytes tail = data.subspan(cut);
    EXPECT_EQ(Crc32c(tail, Crc32c(head)), Crc32c(data))
        << "len " << len << " cut " << cut;
    EXPECT_EQ(Crc32cTable(tail, Crc32cTable(head)), Crc32cTable(data))
        << "len " << len << " cut " << cut;
  }
}

// Crc32c runs the hardware path wherever the CPU has one; the byte table is
// the reference. Random lengths cover the word loop and every tail length,
// and random start offsets every alignment.
TEST(Crc32Test, EveryPathMatchesTheTable) {
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    Random r(seed);
    ByteBuffer buf(4096 + 8);
    for (int trial = 0; trial < 200; ++trial) {
      r.Fill(buf);
      const size_t len = r.Uniform(4097);
      const size_t off = r.Uniform(8);
      const ConstBytes data(buf.data() + off, len);
      const uint32_t init = static_cast<uint32_t>(r.Next()) | 1u;
      ASSERT_EQ(Crc32c(data), Crc32cTable(data))
          << "seed " << seed << " len " << len << " off " << off;
      ASSERT_EQ(Crc32c(data, init), Crc32cTable(data, init))
          << "seed " << seed << " len " << len << " off " << off;
    }
  }
}

// The SSE4.2 path runs three kCrc32cLaneBytes lanes per 2,040-byte stride,
// then words, then bytes. Random lengths rarely land on a stride edge, so
// every length one short of, at and one past an edge (and the page sizes)
// is pinned here, at every start offset, with seed 0 and random seeds.
TEST(Crc32Test, StrideEdgesMatchTheTable) {
  constexpr size_t kStride = 3 * kCrc32cLaneBytes;
  ASSERT_EQ(kStride, 2040u);
  const size_t lengths[] = {0,    7,    8,    2039, 2040, 2041, 2048,
                            4079, 4080, 4081, 6120, 8192};
  Random r(31);
  ByteBuffer buf(8192 + 8);
  r.Fill(buf);
  for (size_t len : lengths) {
    for (size_t off = 0; off < 8; ++off) {
      const ConstBytes data(buf.data() + off, len);
      ASSERT_EQ(Crc32c(data), Crc32cTable(data))
          << "len " << len << " off " << off;
      for (int trial = 0; trial < 4; ++trial) {
        const uint32_t seed = static_cast<uint32_t>(r.Next());
        ASSERT_EQ(Crc32c(data, seed), Crc32cTable(data, seed))
            << "len " << len << " off " << off << " seed " << seed;
      }
    }
  }
}

// The lane join advances a raw register over 680 zero bytes; the byte table
// run over the same zeros is the reference. Crc32cTable inverts its seed on
// the way in and its result on the way out, so the raw register is
// `seed ^ ~0` on both sides.
TEST(Crc32Test, LaneJoinAppendsLaneZeros) {
  const ByteBuffer zeros(kCrc32cLaneBytes, 0x00);
  Random r(32);
  std::vector<uint32_t> regs = {0u, 1u, 0x80000000u, 0xFFFFFFFFu};
  for (int i = 0; i < 32; ++i) regs.push_back(uint32_t{1} << i);
  for (int i = 0; i < 200; ++i) regs.push_back(static_cast<uint32_t>(r.Next()));
  for (uint32_t reg : regs) {
    const uint32_t expected = Crc32cTable(zeros, reg ^ 0xFFFFFFFFu) ^
                              0xFFFFFFFFu;
    ASSERT_EQ(Crc32cAppendLaneZeros(reg), expected) << "register " << reg;
  }
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

// Byte-loop oracles for the page byte kernels.

size_t FirstMismatchOracle(ConstBytes a, ConstBytes b) {
  size_t i = 0;
  while (i < a.size() && a[i] == b[i]) ++i;
  return i;
}

size_t LastMismatchOracle(ConstBytes a, ConstBytes b) {
  size_t hi = a.size();
  while (hi > 0 && a[hi - 1] == b[hi - 1]) --hi;
  return hi;
}

/// Returns false, leaving `cells` alone, when `src` sets a cleared bit;
/// otherwise ANDs `src` in.
bool ProgramOracle(MutBytes cells, ConstBytes src) {
  for (size_t i = 0; i < cells.size(); ++i) {
    if ((src[i] & ~cells[i]) != 0) return false;
  }
  for (size_t i = 0; i < cells.size(); ++i) cells[i] &= src[i];
  return true;
}

/// Checks every kernel against its oracle on cells `a` and image `b`
/// (cells of equal length), on copies.
void ExpectKernelsMatchOracles(ConstBytes a, ConstBytes b,
                               const std::string& where) {
  EXPECT_EQ(FirstMismatch(a, b), FirstMismatchOracle(a, b)) << where;
  EXPECT_EQ(LastMismatch(a, b), LastMismatchOracle(a, b)) << where;
  ByteBuffer got(a.begin(), a.end());
  ByteBuffer want(a.begin(), a.end());
  EXPECT_EQ(ProgramBits(got, b), ProgramOracle(want, b)) << where;
  EXPECT_EQ(got, want) << where;
  got.assign(a.begin(), a.end());
  AndBits(got, b);
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(got[i], a[i] & b[i]) << where << " byte " << i;
  }
}

TEST(BytesTest, KernelsMatchByteLoops) {
  for (uint64_t seed : {11u, 12u, 13u}) {
    Random r(seed);
    ByteBuffer a_buf(4096 + 8);
    ByteBuffer b_buf(4096 + 8);
    for (int trial = 0; trial < 300; ++trial) {
      const size_t len = r.Uniform(4097);
      const size_t a_off = r.Uniform(8);
      const size_t b_off = r.Uniform(8);
      MutBytes a(a_buf.data() + a_off, len);
      MutBytes b(b_buf.data() + b_off, len);
      r.Fill(a);
      // b is a with a few bytes changed (none, for some trials); half the
      // trials only clear bits, a valid program.
      std::memcpy(b.data(), a.data(), len);
      const bool clear_only = r.Bernoulli(0.5);
      const uint64_t changes = len == 0 ? 0 : r.Uniform(4);
      for (uint64_t c = 0; c < changes; ++c) {
        const size_t at = r.Uniform(len);
        const uint8_t mask = static_cast<uint8_t>(r.Next() | 1u);
        b[at] = clear_only ? static_cast<uint8_t>(b[at] & ~mask)
                           : static_cast<uint8_t>(b[at] ^ mask);
      }
      const std::string where = "seed " + std::to_string(seed) + " len " +
                                std::to_string(len) + " offsets " +
                                std::to_string(a_off) + "/" +
                                std::to_string(b_off);
      ExpectKernelsMatchOracles(a, b, where);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(BytesTest, OneBitAtEveryPositionAtBothEnds) {
  for (size_t len : {8u, 15u, 64u, 2048u}) {
    for (size_t off : {0u, 3u}) {
      ByteBuffer buf(len + 8, 0xFF);
      const MutBytes cells(buf.data() + off, len);
      // The bit positions of the first and of the last 8-byte word.
      for (size_t word_start : {size_t{0}, len - 8}) {
        for (size_t bit = 0; bit < 64; ++bit) {
          const size_t at = word_start + bit / 8;
          const uint8_t mask = static_cast<uint8_t>(1u << (bit % 8));
          ByteBuffer image(cells.begin(), cells.end());
          image[at] = static_cast<uint8_t>(image[at] & ~mask);
          const std::string where = "len " + std::to_string(len) + " off " +
                                    std::to_string(off) + " byte " +
                                    std::to_string(at) + " bit " +
                                    std::to_string(bit % 8);
          EXPECT_EQ(FirstMismatch(cells, image), at) << where;
          EXPECT_EQ(LastMismatch(cells, image), at + 1) << where;
          ExpectKernelsMatchOracles(cells, image, where);
          // The reverse program raises that one cleared bit: rejected, with
          // every cell left as it was.
          ByteBuffer cleared = image;
          EXPECT_FALSE(ProgramBits(cleared, cells)) << where;
          EXPECT_EQ(cleared, image) << where;
          ExpectKernelsMatchOracles(image, cells, where);
          if (HasFatalFailure()) return;
        }
      }
    }
  }
}

}  // namespace
}  // namespace flashdb
