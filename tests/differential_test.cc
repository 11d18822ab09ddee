// Unit + property tests for the differential codec: compute, serialize,
// parse, merge. The central invariant is  ApplyTo(base, Compute(base, upd))
// == upd  for arbitrary mutations.

#include <gtest/gtest.h>

#include "common/random.h"
#include "pdl/differential.h"

namespace flashdb::pdl {
namespace {

constexpr size_t kPage = 2048;

ByteBuffer RandomPage(uint64_t seed) {
  ByteBuffer p(kPage);
  Random r(seed);
  r.Fill(p);
  return p;
}

TEST(DifferentialTest, IdenticalPagesYieldEmptyDiff) {
  ByteBuffer base = RandomPage(1);
  Differential d = ComputeDifferential(base, base, 5, 10);
  EXPECT_TRUE(d.empty());
  EXPECT_EQ(d.EncodedSize(), kDiffHeaderSize);
  ByteBuffer merged = base;
  ASSERT_TRUE(d.ApplyTo(merged).ok());
  EXPECT_TRUE(BytesEqual(merged, base));
}

TEST(DifferentialTest, SingleByteChange) {
  ByteBuffer base = RandomPage(2);
  ByteBuffer upd = base;
  upd[100] ^= 0xFF;
  Differential d = ComputeDifferential(base, upd, 1, 1);
  ASSERT_EQ(d.extents().size(), 1u);
  EXPECT_EQ(d.extents()[0].offset, 100);
  EXPECT_EQ(d.extents()[0].length, 1);
  ByteBuffer merged = base;
  ASSERT_TRUE(d.ApplyTo(merged).ok());
  EXPECT_TRUE(BytesEqual(merged, upd));
}

TEST(DifferentialTest, GapCoalescing) {
  ByteBuffer base(kPage, 0);
  ByteBuffer upd = base;
  // Two changed bytes separated by a small gap (<= header size) should fold
  // into one extent; a big gap should not.
  upd[10] = 1;
  upd[13] = 1;   // gap of 2 <= 4
  upd[500] = 1;
  upd[600] = 1;  // gap of 99 > 4
  Differential d = ComputeDifferential(base, upd, 1, 1);
  ASSERT_EQ(d.extents().size(), 3u);
  EXPECT_EQ(d.extents()[0].offset, 10);
  EXPECT_EQ(d.extents()[0].length, 4);
  ByteBuffer merged = base;
  ASSERT_TRUE(d.ApplyTo(merged).ok());
  EXPECT_TRUE(BytesEqual(merged, upd));
}

TEST(DifferentialTest, CoalescedDiffNeverBiggerThanUncoalesced) {
  Random r(77);
  for (int iter = 0; iter < 20; ++iter) {
    ByteBuffer base = RandomPage(iter);
    ByteBuffer upd = base;
    for (int m = 0; m < 30; ++m) upd[r.Uniform(kPage)] ^= 0x5A;
    Differential with_gap = ComputeDifferential(base, upd, 1, 1, 4);
    Differential no_gap = ComputeDifferential(base, upd, 1, 1, 0);
    EXPECT_LE(with_gap.EncodedSize(), no_gap.EncodedSize());
  }
}

TEST(DifferentialTest, FullPageChange) {
  ByteBuffer base(kPage, 0x00);
  ByteBuffer upd(kPage, 0x1F);
  Differential d = ComputeDifferential(base, upd, 1, 1);
  ASSERT_EQ(d.extents().size(), 1u);
  EXPECT_EQ(d.extents()[0].length, kPage);
  EXPECT_GT(d.EncodedSize(), kPage);  // header overhead makes it bigger
}

TEST(DifferentialTest, ChangeAtPageBoundaries) {
  ByteBuffer base(kPage, 0xAA);
  ByteBuffer upd = base;
  upd[0] = 0;
  upd[kPage - 1] = 0;
  Differential d = ComputeDifferential(base, upd, 1, 1);
  ASSERT_EQ(d.extents().size(), 2u);
  ByteBuffer merged = base;
  ASSERT_TRUE(d.ApplyTo(merged).ok());
  EXPECT_TRUE(BytesEqual(merged, upd));
}

TEST(DifferentialTest, SerializeParseRoundTrip) {
  ByteBuffer base = RandomPage(3);
  ByteBuffer upd = base;
  Random r(4);
  for (int i = 0; i < 10; ++i) upd[r.Uniform(kPage)] ^= 0x77;
  Differential d = ComputeDifferential(base, upd, 42, 12345);

  ByteBuffer buf;
  d.AppendTo(&buf);
  EXPECT_EQ(buf.size(), d.EncodedSize());

  BufferReader reader(buf);
  Differential parsed;
  Status st;
  ASSERT_TRUE(Differential::ParseNext(&reader, &parsed, &st));
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(parsed.pid(), 42u);
  EXPECT_EQ(parsed.timestamp(), 12345u);
  EXPECT_EQ(parsed.extents().size(), d.extents().size());
  ByteBuffer merged = base;
  ASSERT_TRUE(parsed.ApplyTo(merged).ok());
  EXPECT_TRUE(BytesEqual(merged, upd));
}

TEST(DifferentialTest, MultipleRecordsInOnePage) {
  ByteBuffer page_buf;
  for (uint32_t pid = 0; pid < 5; ++pid) {
    Differential d(pid, 100 + pid);
    const uint8_t payload[] = {static_cast<uint8_t>(pid), 2, 3};
    d.AddExtent(static_cast<uint16_t>(pid * 7), payload);
    d.AppendTo(&page_buf);
  }
  page_buf.resize(kPage, 0xFF);  // erased padding terminates parsing

  BufferReader reader(page_buf);
  Differential d;
  Status st;
  uint32_t n = 0;
  while (Differential::ParseNext(&reader, &d, &st)) {
    EXPECT_EQ(d.pid(), n);
    EXPECT_EQ(d.timestamp(), 100 + n);
    ++n;
  }
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(n, 5u);
}

TEST(DifferentialTest, PaddingTerminatesEmptyPage) {
  ByteBuffer page_buf(kPage, 0xFF);
  BufferReader reader(page_buf);
  Differential d;
  Status st;
  EXPECT_FALSE(Differential::ParseNext(&reader, &d, &st));
  EXPECT_TRUE(st.ok());
}

TEST(DifferentialTest, TruncatedRecordReportsCorruption) {
  Differential d(9, 9);
  const uint8_t payload[100] = {};
  d.AddExtent(0, payload);
  ByteBuffer buf;
  d.AppendTo(&buf);
  buf.resize(buf.size() - 50);  // chop the payload

  BufferReader reader(buf);
  Differential parsed;
  Status st;
  EXPECT_FALSE(Differential::ParseNext(&reader, &parsed, &st));
  EXPECT_TRUE(st.IsCorruption());
}

TEST(DifferentialTest, ApplyBeyondBoundsIsCorruption) {
  Differential d(1, 1);
  const uint8_t payload[16] = {};
  d.AddExtent(static_cast<uint16_t>(kPage - 8), payload);  // spills over
  ByteBuffer page(kPage, 0);
  EXPECT_TRUE(d.ApplyTo(page).IsCorruption());
}

TEST(DifferentialTest, EncodedSizeFormula) {
  Differential d(1, 1);
  const uint8_t a[5] = {};
  const uint8_t b[11] = {};
  d.AddExtent(0, a);
  d.AddExtent(100, b);
  EXPECT_EQ(d.EncodedSize(), kDiffHeaderSize + 2 * kExtentHeaderSize + 16);
  EXPECT_EQ(d.payload_size(), 16u);
}

// Property sweep: random mutation patterns must round-trip exactly.
class DifferentialPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialPropertyTest, ComputeSerializeApplyIsIdentity) {
  const int seed = GetParam();
  Random r(seed);
  ByteBuffer base = RandomPage(seed * 131);
  ByteBuffer upd = base;
  // Mutation mix: single bytes, runs, and overlapping runs.
  const int mutations = 1 + static_cast<int>(r.Uniform(40));
  for (int m = 0; m < mutations; ++m) {
    const size_t len = 1 + r.Uniform(64);
    const size_t off = r.Uniform(kPage - len + 1);
    for (size_t i = 0; i < len; ++i) {
      upd[off + i] = static_cast<uint8_t>(r.Next());
    }
  }
  Differential d = ComputeDifferential(base, upd, 7, 1000 + seed);
  ByteBuffer buf;
  d.AppendTo(&buf);
  buf.resize(kPage < buf.size() ? buf.size() : kPage, 0xFF);

  BufferReader reader(buf);
  Differential parsed;
  Status st;
  ASSERT_TRUE(Differential::ParseNext(&reader, &parsed, &st));
  ByteBuffer merged = base;
  ASSERT_TRUE(parsed.ApplyTo(merged).ok());
  EXPECT_TRUE(BytesEqual(merged, upd)) << "seed " << seed;

  // Extents must be ordered, disjoint and within bounds.
  uint32_t prev_end = 0;
  for (const DiffExtent& e : parsed.extents()) {
    EXPECT_GE(e.offset, prev_end);
    EXPECT_LE(static_cast<uint32_t>(e.offset) + e.length, kPage);
    prev_end = e.offset + e.length;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, DifferentialPropertyTest,
                         ::testing::Range(0, 50));

/// The lookup FindDifferential must agree with: ParseNext applied record by
/// record until pid's record.
Status ParseUntilMatch(ConstBytes page, PageId pid, Differential* out,
                       bool* found) {
  *found = false;
  BufferReader reader(page);
  Differential d;
  Status st;
  while (Differential::ParseNext(&reader, &d, &st)) {
    if (d.pid() == pid) {
      *out = d;
      *found = true;
      return Status::OK();
    }
  }
  return st;
}

// Random record pages, some padded, some cut mid-record or carrying an
// extent length past the page end, looked up for a pid before, at or after
// the damage, or for an absent one: the lookup and the oracle give the same
// verdict and the same record.
TEST(DifferentialTest, FindMatchesParseUntilMatch) {
  Random r(0xF1AD);
  int n_found = 0, n_corrupt = 0, n_absent = 0;
  Differential reused(3, 3);  // carries capacity from earlier lookups
  for (int trial = 0; trial < 3000; ++trial) {
    ByteBuffer page;
    std::vector<size_t> starts;
    std::vector<PageId> pids;
    const int records = static_cast<int>(r.Uniform(8));
    for (int i = 0; i < records; ++i) {
      Differential d(static_cast<PageId>(r.Uniform(12)), r.Next());
      const int extents = static_cast<int>(r.Uniform(4));
      for (int e = 0; e < extents; ++e) {
        ByteBuffer bytes(r.Uniform(40));
        r.Fill(bytes);
        d.AddExtent(static_cast<uint16_t>(r.Uniform(kPage)), bytes);
      }
      starts.push_back(page.size());
      pids.push_back(d.pid());
      d.AppendTo(&page);
    }
    switch (r.Uniform(3)) {
      case 0:  // erased padding after the records
        page.resize(page.size() + r.Uniform(64), 0xFF);
        break;
      case 1:  // cut anywhere
        page.resize(r.Uniform(page.size() + 1));
        break;
      default:  // one record claims an extent running past the page end
        if (records > 0) {
          const size_t rec = starts[r.Uniform(starts.size())];
          if (DecodeFixed16(page.data() + rec + 12) > 0) {
            EncodeFixed16(page.data() + rec + kDiffHeaderSize + 2, 0xFFFF);
          }
        }
        break;
    }
    // No record carries pid 12, so it stands for an absent pid.
    const bool absent = pids.empty() || r.Bernoulli(0.2);
    const PageId pid = absent ? 12 : pids[r.Uniform(pids.size())];
    Differential want, got = reused;
    bool want_found = false, got_found = false;
    const Status want_st = ParseUntilMatch(page, pid, &want, &want_found);
    const Status got_st = FindDifferential(page, pid, &got, &got_found);
    ASSERT_EQ(got_st.code(), want_st.code()) << "trial " << trial;
    ASSERT_EQ(got_st.message(), want_st.message()) << "trial " << trial;
    ASSERT_EQ(got_found, want_found) << "trial " << trial;
    if (!want_st.ok()) {
      ++n_corrupt;
    } else if (!want_found) {
      ++n_absent;
    } else {
      ++n_found;
      EXPECT_EQ(got.pid(), want.pid());
      EXPECT_EQ(got.timestamp(), want.timestamp());
      ASSERT_EQ(got.extents().size(), want.extents().size());
      for (size_t e = 0; e < want.extents().size(); ++e) {
        EXPECT_EQ(got.extents()[e].offset, want.extents()[e].offset);
        EXPECT_EQ(got.extents()[e].length, want.extents()[e].length);
      }
      EXPECT_TRUE(BytesEqual(got.data(), want.data())) << "trial " << trial;
      reused = got;
    }
  }
  // Every verdict was exercised.
  EXPECT_GT(n_found, 300);
  EXPECT_GT(n_corrupt, 300);
  EXPECT_GT(n_absent, 300);
}

}  // namespace
}  // namespace flashdb::pdl
