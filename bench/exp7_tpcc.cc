// Experiment 7 (Fig. 18): TPC-C -- flash I/O time per transaction as the
// DBMS buffer size varies from 0.1% to 10% of the database size.
//
// One client on one chip: each cell is a one-chip TPC-C rig
// (harness::PrepareTpccRig) whose shard-0 TpccWorkload draws and runs the
// warmup and then the measured transactions itself, so the chip clock's
// advance over the measured transactions and their final flush
// (Rig::Measure) is the cell. The paper reports PDL winning by 1.2x ~ 6.1x:
// smaller buffers evict dirty pages after fewer in-memory updates, which is
// the regime where writing whole pages (OPU) or update-log histories (IPL)
// loses to differentials. What this bench measures, at its defaults:
// PDL(256B) costs the least at every buffer size and IPL(18KB) the most,
// above IPL(64KB). OPU costs more than PDL(2048B) up to 1% of the database
// and less from 2.5% on (at the gate's --warmup-tx=50 --tx=100 it costs
// less at every size).

#include <algorithm>
#include <cstdio>
#include <iostream>

#include "harness/cli.h"
#include "harness/experiment.h"
#include "harness/table_printer.h"
#include "methods/method_factory.h"
#include "workload/tpcc_driver.h"

using namespace flashdb;
using harness::TablePrinter;

namespace {

/// Virtual flash time per measured transaction of one cell, the final flush
/// that makes them durable included.
Result<double> IoUsPerTx(const methods::MethodSpec& spec,
                         const workload::TpccDriverOptions& opts,
                         uint64_t warmup_tx, uint64_t measure_tx,
                         const std::string& trace_path) {
  FLASHDB_ASSIGN_OR_RETURN(
      harness::Rig rig,
      harness::PrepareTpccRig(spec, opts, /*shards=*/1, /*warmup_tx=*/0,
                              trace_path));
  workload::TpccWorkload* tpcc = rig.tpcc()->shard_workload(0);
  FLASHDB_RETURN_IF_ERROR(tpcc->Run(warmup_tx));
  FLASHDB_ASSIGN_OR_RETURN(const harness::Rig::Cost cost, rig.Measure([&] {
    FLASHDB_RETURN_IF_ERROR(tpcc->Run(measure_tx));
    return tpcc->pool()->FlushAll();
  }));
  return static_cast<double>(cost.advance.elapsed_vt_us) /
         static_cast<double>(measure_tx);
}

}  // namespace

int main(int argc, char** argv) {
  harness::Flags flags(argc, argv);
  workload::TpccDriverOptions opts;
  workload::TpccScale& scale = opts.scale;
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
  opts.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const std::string trace_path = flags.GetString("trace", "");
  harness::JsonDump json(flags.GetString("json", ""));
  if (!flags.AllRead()) return 2;

  const uint32_t pages = workload::TpccDriver::PagesPerShard(scale, 2048, 1);
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
    opts.frames_per_shard = std::max<uint32_t>(
        8, static_cast<uint32_t>(buf_pct / 100.0 * pages));
    std::vector<std::string> row = {TablePrinter::Num(buf_pct, 2),
                                    std::to_string(opts.frames_per_shard)};
    for (const char* m :
         {"IPL(18KB)", "IPL(64KB)", "PDL(2048B)", "PDL(256B)", "OPU"}) {
      auto spec = methods::ParseMethodSpec(m);
      auto r = IoUsPerTx(*spec, opts, warmup_tx, measure_tx, trace_path);
      if (!r.ok()) {
        std::cerr << m << ": " << r.status().ToString() << "\n";
        return 1;
      }
      row.push_back(TablePrinter::Num(*r));
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
