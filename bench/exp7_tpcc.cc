// Experiment 7 (Fig. 18): TPC-C -- flash I/O time per transaction as the
// DBMS buffer size varies from 0.1% to 10% of the database size.
//
// Expected shape: I/O time per transaction ordered (worst first)
// IPL(64KB) > IPL(18KB) > OPU > PDL(2KB) > PDL(256B); the paper reports PDL
// winning by 1.2x ~ 6.1x. Smaller buffers evict dirty pages after fewer
// in-memory updates, which is exactly the regime where writing whole pages
// (OPU) or update-log histories (IPL) loses to differentials.

#include <cstdio>
#include <iostream>

#include "harness/cli.h"
#include "harness/table_printer.h"
#include "methods/method_factory.h"
#include "storage/buffer_pool.h"
#include "workload/tpcc.h"

using namespace flashdb;
using harness::TablePrinter;

namespace {

struct TpccPoint {
  double io_us_per_tx = 0;
};

Result<TpccPoint> RunPoint(const methods::MethodSpec& spec,
                           const workload::TpccScale& scale, uint32_t frames,
                           uint64_t warmup_tx, uint64_t measure_tx,
                           uint64_t seed) {
  const uint32_t page_size = 2048;
  const uint32_t pages =
      workload::TpccWorkload::RequiredPages(scale, page_size);
  // Flash sized at ~50% utilization like the synthetic experiments.
  const uint32_t blocks = (pages * 2) / 64 + 8;
  flash::FlashDevice dev(flash::FlashConfig::Small(blocks));
  std::unique_ptr<PageStore> store = methods::CreateStore(&dev, spec);
  FLASHDB_RETURN_IF_ERROR(store->Format(pages, nullptr, nullptr));
  storage::BufferPool pool(store.get(), frames);
  workload::TpccWorkload tpcc(&pool, scale, seed);
  FLASHDB_RETURN_IF_ERROR(tpcc.Load());
  FLASHDB_RETURN_IF_ERROR(tpcc.Run(warmup_tx));
  dev.ResetAccounting();
  FLASHDB_RETURN_IF_ERROR(tpcc.Run(measure_tx));
  // Include the cost of making the measured transactions durable.
  FLASHDB_RETURN_IF_ERROR(pool.FlushAll());
  TpccPoint pt;
  pt.io_us_per_tx = static_cast<double>(dev.clock().now_us()) /
                    static_cast<double>(measure_tx);
  return pt;
}

}  // namespace

int main(int argc, char** argv) {
  harness::Flags flags(argc, argv);
  workload::TpccScale scale;
  scale.warehouses = static_cast<uint32_t>(flags.GetInt("warehouses", 2));
  scale.customers_per_district =
      static_cast<uint32_t>(flags.GetInt("customers", 120));
  scale.items = static_cast<uint32_t>(flags.GetInt("items", 2000));
  const uint64_t warmup_tx =
      static_cast<uint64_t>(flags.GetInt("warmup-tx", 400));
  const uint64_t measure_tx =
      static_cast<uint64_t>(flags.GetInt("tx", 800));
  scale.transaction_headroom =
      static_cast<uint32_t>(warmup_tx + measure_tx + 1000);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  harness::JsonDump json(flags.GetString("json", ""));
  if (!flags.AllRead()) return 2;

  const uint32_t pages = workload::TpccWorkload::RequiredPages(scale, 2048);
  std::printf(
      "Experiment 7 (Fig. 18): TPC-C I/O time per transaction vs DBMS buffer "
      "size\n  database = %u pages (%.1f MB), %lu warmup + %lu measured "
      "transactions\n\n",
      pages, pages * 2048.0 / 1048576.0,
      static_cast<unsigned long>(warmup_tx),
      static_cast<unsigned long>(measure_tx));

  TablePrinter tbl({"buffer(%db)", "frames", "IPL(18KB)", "IPL(64KB)",
                    "PDL(2048B)", "PDL(256B)", "OPU"});
  for (double buf_pct : {0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0}) {
    const uint32_t frames = std::max<uint32_t>(
        8, static_cast<uint32_t>(buf_pct / 100.0 * pages));
    std::vector<std::string> row = {TablePrinter::Num(buf_pct, 2),
                                    std::to_string(frames)};
    for (const char* m :
         {"IPL(18KB)", "IPL(64KB)", "PDL(2048B)", "PDL(256B)", "OPU"}) {
      auto spec = methods::ParseMethodSpec(m);
      auto r = RunPoint(*spec, scale, frames, warmup_tx, measure_tx, seed);
      if (!r.ok()) {
        std::cerr << m << ": " << r.status().ToString() << "\n";
        return 1;
      }
      row.push_back(TablePrinter::Num(r->io_us_per_tx));
    }
    tbl.AddRow(std::move(row));
  }
  tbl.Print(std::cout);
  json.Add("io_us_per_tx", tbl);
  if (!json.Finish()) return 1;
  std::printf("\n(IPU is omitted from Fig. 18 in the paper as well: its "
              "block-rewrite cost is off the chart.)\n");
  return 0;
}
