// TPC-C demo: a complete OLTP workload (9 tables, 5 transaction types with
// the standard 45/43/4/4/4 mix) running on the flashdb storage engine over
// page-differential logging.
//
//   $ ./build/examples/tpcc_demo [--method=PDL(256B)] [--tx=3000]

#include <cstdio>

#include "harness/cli.h"
#include "methods/method_factory.h"
#include "storage/buffer_pool.h"
#include "workload/tpcc.h"

using namespace flashdb;

int main(int argc, char** argv) {
  harness::Flags flags(argc, argv);
  const std::string method = flags.GetString("method", "PDL(256B)");
  const uint64_t tx = static_cast<uint64_t>(flags.GetInt("tx", 3000));
  if (!flags.AllRead()) return 2;

  auto spec = methods::ParseMethodSpec(method);
  if (!spec.ok()) {
    std::fprintf(stderr, "bad --method: %s\n",
                 spec.status().ToString().c_str());
    return 1;
  }

  workload::TpccScale scale;
  scale.transaction_headroom = static_cast<uint32_t>(tx + 1000);
  const uint32_t pages = workload::TpccWorkload::RequiredPages(scale, 2048);
  const uint32_t blocks = (pages * 2) / 64 + 8;

  flash::FlashDevice dev(flash::FlashConfig::Small(blocks));
  auto store = methods::CreateStore(&dev, *spec);
  if (!store->Format(pages, nullptr, nullptr).ok()) {
    std::fprintf(stderr, "format failed\n");
    return 1;
  }
  // A DBMS buffer of 1% of the database, like the middle of Fig. 18's sweep.
  storage::BufferPool pool(store.get(), std::max(16u, pages / 100));
  workload::TpccWorkload tpcc(&pool, scale, /*seed=*/2026);

  std::printf("loading TPC-C: %u warehouses, %u items, %u pages (%.1f MB) "
              "on a %u-block emulated chip, method %s...\n",
              scale.warehouses, scale.items, pages,
              pages * 2048.0 / 1048576.0, blocks,
              std::string(store->name()).c_str());
  if (!tpcc.Load().ok()) {
    std::fprintf(stderr, "load failed\n");
    return 1;
  }
  dev.ResetAccounting();

  std::printf("running %llu transactions...\n",
              static_cast<unsigned long long>(tx));
  Status st = tpcc.Run(tx);
  if (!st.ok()) {
    std::fprintf(stderr, "run failed: %s\n", st.ToString().c_str());
    return 1;
  }
  if (!pool.FlushAll().ok()) return 1;

  const workload::TpccStats& s = tpcc.stats();
  std::printf("\ntransaction mix: new-order %llu, payment %llu, order-status "
              "%llu, delivery %llu, stock-level %llu\n",
              static_cast<unsigned long long>(
                  s.of(workload::TpccTxnType::kNewOrder)),
              static_cast<unsigned long long>(
                  s.of(workload::TpccTxnType::kPayment)),
              static_cast<unsigned long long>(
                  s.of(workload::TpccTxnType::kOrderStatus)),
              static_cast<unsigned long long>(
                  s.of(workload::TpccTxnType::kDelivery)),
              static_cast<unsigned long long>(
                  s.of(workload::TpccTxnType::kStockLevel)));
  const auto& t = dev.stats().total;
  std::printf("flash I/O: %llu reads, %llu writes, %llu erases\n",
              static_cast<unsigned long long>(t.reads),
              static_cast<unsigned long long>(t.writes),
              static_cast<unsigned long long>(t.erases));
  std::printf("I/O time per transaction: %.1f us (buffer hit rate %.1f%%)\n",
              static_cast<double>(dev.clock().now_us()) /
                  static_cast<double>(tx),
              100.0 * pool.stats().hit_rate());
  return 0;
}
