// Unit + property tests for the B+-tree.

#include <gtest/gtest.h>

#include <map>

#include "common/random.h"
#include "methods/opu_store.h"
#include "storage/btree.h"

namespace flashdb::storage {
namespace {

using flash::FlashConfig;
using flash::FlashDevice;

class BTreeTest : public ::testing::Test {
 protected:
  BTreeTest()
      : dev_(FlashConfig::Small(32)), store_(&dev_), pool_(&store_, 32) {
    EXPECT_TRUE(store_.Format(800, nullptr, nullptr).ok());
  }

  FlashDevice dev_;
  methods::OpuStore store_;
  BufferPool pool_;
};

TEST_F(BTreeTest, EmptyTreeHasNoKeys) {
  BTree t(&pool_, 0, 50);
  ASSERT_TRUE(t.Create().ok());
  EXPECT_TRUE(t.Get(42).status().IsNotFound());
  auto count = t.CountKeys();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 0u);
}

TEST_F(BTreeTest, InsertGetSmall) {
  BTree t(&pool_, 0, 50);
  ASSERT_TRUE(t.Create().ok());
  for (uint64_t k = 0; k < 50; ++k) {
    ASSERT_TRUE(t.Insert(k * 10, k + 1000).ok());
  }
  for (uint64_t k = 0; k < 50; ++k) {
    auto v = t.Get(k * 10);
    ASSERT_TRUE(v.ok()) << k;
    EXPECT_EQ(*v, k + 1000);
  }
  EXPECT_TRUE(t.Get(5).status().IsNotFound());
}

TEST_F(BTreeTest, OverwriteReplacesValue) {
  BTree t(&pool_, 0, 50);
  ASSERT_TRUE(t.Create().ok());
  ASSERT_TRUE(t.Insert(7, 1).ok());
  ASSERT_TRUE(t.Insert(7, 2).ok());
  EXPECT_EQ(*t.Get(7), 2u);
  EXPECT_EQ(*t.CountKeys(), 1u);
}

TEST_F(BTreeTest, SplitsGrowTheTree) {
  BTree t(&pool_, 0, 200);
  ASSERT_TRUE(t.Create().ok());
  // Leaf capacity is (2048-12)/16 = 127; a few thousand keys force splits
  // and at least one root growth.
  const uint64_t n = 3000;
  for (uint64_t k = 0; k < n; ++k) {
    ASSERT_TRUE(t.Insert(k, ~k).ok()) << k;
  }
  auto h = t.Height();
  ASSERT_TRUE(h.ok());
  EXPECT_GE(*h, 2u);
  EXPECT_EQ(*t.CountKeys(), n);
  for (uint64_t k : {uint64_t{0}, uint64_t{1}, uint64_t{126}, uint64_t{127},
                     uint64_t{1500}, n - 1}) {
    auto v = t.Get(k);
    ASSERT_TRUE(v.ok()) << k;
    EXPECT_EQ(*v, ~k);
  }
}

TEST_F(BTreeTest, ReverseAndRandomInsertionOrders) {
  for (int mode = 0; mode < 2; ++mode) {
    methods::OpuStore store(&dev_);
    ASSERT_TRUE(store.Format(800, nullptr, nullptr).ok());
    BufferPool pool(&store, 32);
    BTree t(&pool, 0, 200);
    ASSERT_TRUE(t.Create().ok());
    const uint64_t n = 2000;
    Random r(mode + 1);
    for (uint64_t i = 0; i < n; ++i) {
      const uint64_t k = mode == 0 ? n - 1 - i : r.Next() % 100000;
      ASSERT_TRUE(t.Insert(k, k * 2).ok());
    }
    // Spot-check ordering via a scan.
    uint64_t prev = 0;
    bool first = true;
    ASSERT_TRUE(t.Scan(0, UINT64_MAX,
                       [&](uint64_t k, uint64_t v) {
                         if (!first) {
                           EXPECT_GT(k, prev);
                         }
                         EXPECT_EQ(v, k * 2);
                         prev = k;
                         first = false;
                         return Status::OK();
                       })
                    .ok());
  }
}

TEST_F(BTreeTest, DeleteRemovesKeys) {
  BTree t(&pool_, 0, 100);
  ASSERT_TRUE(t.Create().ok());
  for (uint64_t k = 0; k < 500; ++k) ASSERT_TRUE(t.Insert(k, k).ok());
  for (uint64_t k = 0; k < 500; k += 2) ASSERT_TRUE(t.Delete(k).ok());
  for (uint64_t k = 0; k < 500; ++k) {
    if (k % 2 == 0) {
      EXPECT_TRUE(t.Get(k).status().IsNotFound()) << k;
    } else {
      ASSERT_TRUE(t.Get(k).ok()) << k;
    }
  }
  EXPECT_TRUE(t.Delete(1000).IsNotFound());
  EXPECT_EQ(*t.CountKeys(), 250u);
}

TEST_F(BTreeTest, RangeScanRespectsBounds) {
  BTree t(&pool_, 0, 100);
  ASSERT_TRUE(t.Create().ok());
  for (uint64_t k = 0; k < 1000; k += 3) ASSERT_TRUE(t.Insert(k, k).ok());
  std::vector<uint64_t> seen;
  ASSERT_TRUE(t.Scan(100, 200,
                     [&](uint64_t k, uint64_t) {
                       seen.push_back(k);
                       return Status::OK();
                     })
                  .ok());
  ASSERT_FALSE(seen.empty());
  EXPECT_GE(seen.front(), 100u);
  EXPECT_LE(seen.back(), 200u);
  EXPECT_EQ(seen.size(), 33u);  // multiples of 3 in [102, 198]

  // Early stop.
  int visited = 0;
  ASSERT_TRUE(t.Scan(0, UINT64_MAX,
                     [&](uint64_t, uint64_t) {
                       if (++visited == 7) return Status::NotFound("stop");
                       return Status::OK();
                     })
                  .ok());
  EXPECT_EQ(visited, 7);
}

TEST_F(BTreeTest, ReopenAfterFlush) {
  {
    BTree t(&pool_, 0, 100);
    ASSERT_TRUE(t.Create().ok());
    for (uint64_t k = 0; k < 400; ++k) ASSERT_TRUE(t.Insert(k, k ^ 7).ok());
    ASSERT_TRUE(pool_.FlushAll().ok());
  }
  BTree t2(&pool_, 0, 100);
  ASSERT_TRUE(t2.Open().ok());
  for (uint64_t k : {0ULL, 200ULL, 399ULL}) {
    auto v = t2.Get(k);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, k ^ 7);
  }
  // Continues to accept inserts (allocation cursor restored).
  ASSERT_TRUE(t2.Insert(10000, 1).ok());
  EXPECT_EQ(*t2.Get(10000), 1u);
}

TEST_F(BTreeTest, ExhaustedPageRangeReportsNoSpace) {
  BTree t(&pool_, 0, 4);  // meta + 3 nodes
  ASSERT_TRUE(t.Create().ok());
  Status last;
  for (uint64_t k = 0; k < 100000; ++k) {
    last = t.Insert(k, k);
    if (!last.ok()) break;
  }
  EXPECT_TRUE(last.IsNoSpace());
}

TEST_F(BTreeTest, RandomizedAgainstShadowMap) {
  BTree t(&pool_, 0, 300);
  ASSERT_TRUE(t.Create().ok());
  std::map<uint64_t, uint64_t> shadow;
  Random r(555);
  for (int op = 0; op < 5000; ++op) {
    const uint64_t k = r.Uniform(2000);
    const uint64_t kind = r.Uniform(10);
    if (kind < 6) {
      const uint64_t v = r.Next();
      ASSERT_TRUE(t.Insert(k, v).ok());
      shadow[k] = v;
    } else if (kind < 8) {
      Status st = t.Delete(k);
      EXPECT_EQ(st.ok(), shadow.erase(k) == 1) << k;
    } else {
      auto v = t.Get(k);
      auto it = shadow.find(k);
      if (it == shadow.end()) {
        EXPECT_TRUE(v.status().IsNotFound()) << k;
      } else {
        ASSERT_TRUE(v.ok()) << k;
        EXPECT_EQ(*v, it->second);
      }
    }
  }
  EXPECT_EQ(*t.CountKeys(), shadow.size());
}

}  // namespace
}  // namespace flashdb::storage
