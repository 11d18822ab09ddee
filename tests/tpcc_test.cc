// Tests for the TPC-C-style workload on the storage engine.

#include <gtest/gtest.h>

#include "methods/method_factory.h"
#include "replay_oracle.h"
#include "storage/buffer_pool.h"
#include "workload/tpcc_driver.h"

namespace flashdb::workload {
namespace {

using flash::FlashConfig;
using flash::FlashDevice;

TpccScale TinyScale() {
  TpccScale s;
  s.warehouses = 1;
  s.districts_per_warehouse = 4;
  s.customers_per_district = 40;
  s.items = 300;
  s.init_orders_per_district = 12;
  s.transaction_headroom = 1500;
  return s;
}

struct Fixture {
  explicit Fixture(const char* method, uint32_t frames = 64)
      : scale(TinyScale()) {
    const uint32_t pages = TpccDriver::PagesPerShard(scale, 2048, 1);
    const uint32_t blocks = (pages * 2) / 64 + 4;
    dev = std::make_unique<FlashDevice>(FlashConfig::Small(blocks));
    auto spec = methods::ParseMethodSpec(method);
    EXPECT_TRUE(spec.ok());
    store = methods::CreateStore(dev.get(), *spec);
    EXPECT_TRUE(store->Format(pages, nullptr, nullptr).ok());
    pool = std::make_unique<storage::BufferPool>(store.get(), frames);
    tpcc = std::make_unique<TpccWorkload>(pool.get(), scale, 7);
  }

  TpccScale scale;
  std::unique_ptr<FlashDevice> dev;
  std::unique_ptr<PageStore> store;
  std::unique_ptr<storage::BufferPool> pool;
  std::unique_ptr<TpccWorkload> tpcc;
};

TEST(TpccTest, RequiredPagesScalesWithCardinality) {
  TpccScale small = TinyScale();
  TpccScale big = TinyScale();
  big.warehouses = 2;
  big.items = 600;
  EXPECT_GT(TpccDriver::PagesPerShard(big, 2048, 1),
            TpccDriver::PagesPerShard(small, 2048, 1));
}

TEST(TpccTest, LoadSucceeds) {
  Fixture f("OPU");
  ASSERT_TRUE(f.tpcc->Load().ok());
}

TEST(TpccTest, EachTransactionTypeRuns) {
  Fixture f("OPU");
  ASSERT_TRUE(f.tpcc->Load().ok());
  for (uint32_t t = 0; t < kNumTpccTxnTypes; ++t) {
    const auto type = static_cast<TpccTxnType>(t);
    ASSERT_TRUE(f.tpcc->RunTransactionOfType(type, 1).ok())
        << TpccTxnTypeName(type);
    EXPECT_EQ(f.tpcc->stats().of(type), 1u) << TpccTxnTypeName(type);
  }
  EXPECT_EQ(f.tpcc->stats().total(), kNumTpccTxnTypes);
  // An unknown type commits nothing.
  EXPECT_TRUE(f.tpcc->RunTransactionOfType(static_cast<TpccTxnType>(9), 1)
                  .IsInvalidArgument());
  EXPECT_EQ(f.tpcc->stats().total(), kNumTpccTxnTypes);
}

TEST(TpccTest, MixApproximatesSpec) {
  Fixture f("OPU");
  ASSERT_TRUE(f.tpcc->Load().ok());
  ASSERT_TRUE(f.tpcc->Run(1000).ok());
  const TpccStats& s = f.tpcc->stats();
  EXPECT_EQ(s.total(), 1000u);
  const auto share = [&](TpccTxnType t) {
    return static_cast<double>(s.of(t)) / 1000.0;
  };
  EXPECT_NEAR(share(TpccTxnType::kNewOrder), 0.45, 0.06);
  EXPECT_NEAR(share(TpccTxnType::kPayment), 0.43, 0.06);
  EXPECT_NEAR(share(TpccTxnType::kOrderStatus), 0.04, 0.03);
  EXPECT_NEAR(share(TpccTxnType::kDelivery), 0.04, 0.03);
  EXPECT_NEAR(share(TpccTxnType::kStockLevel), 0.04, 0.03);
}

TEST(TpccTest, RunsOnEveryMethod) {
  for (const char* m :
       {"PDL(256B)", "PDL(2KB)", "OPU", "IPL(18KB)"}) {
    Fixture f(m);
    ASSERT_TRUE(f.tpcc->Load().ok()) << m;
    ASSERT_TRUE(f.tpcc->Run(150).ok()) << m;
    ASSERT_TRUE(f.pool->FlushAll().ok()) << m;
  }
}

TEST(TpccTest, SmallBufferForcesFlashTraffic) {
  Fixture small_buf("PDL(256B)", /*frames=*/8);
  ASSERT_TRUE(small_buf.tpcc->Load().ok());
  small_buf.dev->ResetAccounting();
  ASSERT_TRUE(small_buf.tpcc->Run(150).ok());
  const uint64_t io_small = small_buf.dev->clock().now_us();

  Fixture big_buf("PDL(256B)", /*frames=*/2048);
  ASSERT_TRUE(big_buf.tpcc->Load().ok());
  big_buf.dev->ResetAccounting();
  ASSERT_TRUE(big_buf.tpcc->Run(150).ok());
  const uint64_t io_big = big_buf.dev->clock().now_us();

  // A larger DBMS buffer absorbs more of the working set (Fig. 18's x-axis).
  EXPECT_LT(io_big, io_small);
}

TEST(TpccTest, DeterministicForSeed) {
  Fixture a("OPU");
  Fixture b("OPU");
  ASSERT_TRUE(a.tpcc->Load().ok());
  ASSERT_TRUE(b.tpcc->Load().ok());
  ASSERT_TRUE(a.tpcc->Run(200).ok());
  ASSERT_TRUE(b.tpcc->Run(200).ok());
  EXPECT_EQ(a.tpcc->stats().committed, b.tpcc->stats().committed);
  EXPECT_TRUE(SameTwins({{a.dev.get()}}, {{b.dev.get()}}));
}

// The hosted-warehouse list is a constructor contract that holds in every
// build: an empty list or an id outside 1..W aborts with a message instead
// of indexing past the per-warehouse bookkeeping.
TEST(TpccDeathTest, BadHostedWarehousesAbort) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  Fixture f("OPU");
  const auto host = [&](std::vector<uint32_t> ids) {
    TpccWorkload tpcc(f.pool.get(), TinyScale(), std::move(ids), 7);
  };
  EXPECT_DEATH(host({}), "hosted warehouse list is empty");
  EXPECT_DEATH(host({0}), "hosted warehouse 0 is outside 1..1");  // W = 1
  EXPECT_DEATH(host({1, 2}), "hosted warehouse 2 is outside 1..1");
}

}  // namespace
}  // namespace flashdb::workload
