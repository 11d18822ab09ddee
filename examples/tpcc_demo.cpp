// TPC-C demo: a complete OLTP workload (9 tables, 5 transaction types with
// the standard 45/43/4/4/4 mix) running on the flashdb storage engine over
// page-differential logging.
//
//   $ ./build/examples/tpcc_demo [--method=PDL(256B)] [--tx=3000]

#include <algorithm>
#include <cstdio>

#include "harness/cli.h"
#include "harness/experiment.h"
#include "methods/method_factory.h"
#include "workload/tpcc_driver.h"

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

  // One client on a one-chip TPC-C rig.
  workload::TpccDriverOptions opts;
  opts.scale.transaction_headroom = static_cast<uint32_t>(tx + 1000);
  opts.seed = 2026;
  const uint32_t pages =
      workload::TpccDriver::PagesPerShard(opts.scale, 2048, 1);
  // A DBMS buffer of 1% of the database, like the middle of Fig. 18's sweep.
  opts.frames_per_shard = std::max(16u, pages / 100);
  auto rig = harness::PrepareTpccRig(*spec, opts, /*shards=*/1,
                                     /*warmup_tx=*/0);
  if (!rig.ok()) {
    std::fprintf(stderr, "load failed: %s\n", rig.status().ToString().c_str());
    return 1;
  }
  std::printf("loading TPC-C: %u warehouses, %u items, %u pages (%.1f MB) "
              "on a %u-block emulated chip, method %s...\n",
              opts.scale.warehouses, opts.scale.items, pages,
              pages * 2048.0 / 1048576.0,
              rig->sharded()->shard_device(0)->geometry().num_blocks,
              std::string(rig->sharded()->shard(0)->name()).c_str());
  workload::TpccWorkload* tpcc = rig->tpcc()->shard_workload(0);

  std::printf("running %llu transactions...\n",
              static_cast<unsigned long long>(tx));
  const flash::FlashStats before = rig->store()->stats();
  auto cost = rig->Measure([&] {
    FLASHDB_RETURN_IF_ERROR(tpcc->Run(tx));
    return tpcc->pool()->FlushAll();
  });
  if (!cost.ok()) {
    std::fprintf(stderr, "run failed: %s\n", cost.status().ToString().c_str());
    return 1;
  }

  const workload::TpccStats& s = tpcc->stats();
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
  const flash::OpCounters t = (rig->store()->stats() - before).total;
  std::printf("flash I/O: %llu reads, %llu writes, %llu erases\n",
              static_cast<unsigned long long>(t.reads),
              static_cast<unsigned long long>(t.writes),
              static_cast<unsigned long long>(t.erases));
  std::printf("I/O time per transaction: %.1f us (buffer hit rate %.1f%%)\n",
              static_cast<double>(cost->advance.elapsed_vt_us) /
                  static_cast<double>(tx),
              100.0 * tpcc->pool()->stats().hit_rate());
  return 0;
}
