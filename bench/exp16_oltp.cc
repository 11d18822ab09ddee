// Experiment 16 (beyond the paper): concurrent TPC-C serving over shards.
//
// exp7 reproduces the paper's Fig. 18 with one client, one thread, one chip.
// This bench lifts the same DBMS onto the serving stack: N logical clients
// issue single-warehouse TPC-C transactions, each routed to the shard
// hosting its warehouse (warehouse w -> shard (w-1) mod S), executed whole
// on that shard's ShardExecutor worker over that shard's BufferPool and
// chip, and committed write-through (FlushAll == one WriteBatch per
// transaction). Reported per cell (method x clients x shards):
// transaction-latency percentiles in virtual time, the worst transaction's
// GC/meta attribution, and serving throughput in virtual time
// (ktps_vt = txns / the largest shard-clock advance -- the chips run in
// parallel).
//
// The speedup_vt column is each cell's ktps_vt over the same method's
// (clients=4, shards=1) anchor; the acceptance bound is >= 3x at
// (clients=4, shards=4), a --min bound of tools/run_perf_gate.sh.
//
// Every row carries the commit-order determinism check that makes the
// concurrent numbers trustworthy: harness::ServeChecked replays the recorded
// commit log (warmup + measure) single-threaded against an identically
// prepared twin rig, and every chip's cells, erase counts and clock, the
// canonical event stream (harness::FirstDivergence) and every virtual
// TpccRunStats field (latency histograms and worst op included) must match
// bit-for-bit. The determinism and trace columns both print that one
// verdict, and a FAIL row prints the first difference to stderr. The perf
// gate requires `ok` in every row; wall_ms is machine-relative and stays
// warn-only.

#include <cstdio>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "harness/cli.h"
#include "harness/experiment.h"
#include "harness/table_printer.h"
#include "methods/method_factory.h"
#include "obs/metrics_import.h"
#include "obs/metrics_registry.h"
#include "obs/trace_recorder.h"
#include "workload/tpcc_driver.h"

using namespace flashdb;
using harness::TablePrinter;

namespace {

struct Cell {
  uint32_t clients;
  uint32_t shards;
};

/// Virtual-time serving throughput: transactions over the largest shard
/// clock advance (the chips run in parallel).
double KtpsVt(const workload::TpccRunStats& stats) {
  if (stats.elapsed_vt_us == 0) return 0;
  return 1000.0 * static_cast<double>(stats.latency.count()) /
         static_cast<double>(stats.elapsed_vt_us);
}

}  // namespace

int main(int argc, char** argv) {
  harness::Flags flags(argc, argv);
  workload::TpccDriverOptions opts;
  opts.scale.warehouses = static_cast<uint32_t>(flags.GetInt("warehouses", 4));
  opts.scale.districts_per_warehouse =
      static_cast<uint32_t>(flags.GetInt("districts", 4));
  opts.scale.customers_per_district =
      static_cast<uint32_t>(flags.GetInt("customers", 40));
  opts.scale.items = static_cast<uint32_t>(flags.GetInt("items", 400));
  opts.scale.init_orders_per_district =
      static_cast<uint32_t>(flags.GetInt("init-orders", 15));
  const uint64_t warmup_tx =
      static_cast<uint64_t>(flags.GetInt("warmup-tx", 200));
  const uint64_t measure_tx = static_cast<uint64_t>(flags.GetInt("tx", 600));
  opts.scale.transaction_headroom =
      static_cast<uint32_t>(warmup_tx + measure_tx + 500);
  opts.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  opts.frames_per_shard = static_cast<uint32_t>(flags.GetInt("frames", 128));
  opts.hot_warehouse_pct = flags.GetDouble("hot", 5.0);
  opts.remote_pct = flags.GetDouble("remote", 10.0);
  opts.max_inflight_per_shard =
      static_cast<uint32_t>(flags.GetInt("inflight", 4));
  const std::string trace_path = flags.GetString("trace", "");
  harness::JsonDump json(flags.GetString("json", ""));
  if (!flags.AllRead()) return 2;

  std::printf(
      "Experiment 16: concurrent TPC-C serving over shards\n  %u warehouses, "
      "%lu warmup + %lu measured transactions per cell; hot=%g%% to "
      "warehouse 1,\n  remote=%g%% uniform; latencies are virtual-time "
      "microseconds per transaction\n\n",
      opts.scale.warehouses, static_cast<unsigned long>(warmup_tx),
      static_cast<unsigned long>(measure_tx), opts.hot_warehouse_pct,
      opts.remote_pct);

  const std::vector<Cell> cells = {{1, 1}, {4, 1}, {4, 2}, {4, 4}, {8, 4}};
  const std::vector<std::string> method_names = {"OPU", "PDL(256B)"};
  TablePrinter tbl({"Method", "clients", "shards", "txns", "p50 us", "p99 us",
                    "p999 us", "worst us", "w_gc us", "w_meta us", "ktps_vt",
                    "speedup_vt", "wall_ms", "determinism", "trace"});
  obs::MetricsRegistry metrics;
  int failures = 0;
  for (const std::string& name : method_names) {
    auto spec = methods::ParseMethodSpec(name);
    if (!spec.ok()) {
      std::cerr << spec.status().ToString() << "\n";
      return 1;
    }
    std::vector<std::pair<Cell, harness::CheckedServe>> points;
    for (const Cell& cell : cells) {
      workload::TpccDriverOptions cell_opts = opts;
      cell_opts.num_clients = cell.clients;
      // The cell's timeline, from the end of the warm-up.
      obs::TraceRecorder recorder(cell.shards);
      auto rig = harness::PrepareTpccRig(*spec, cell_opts, cell.shards,
                                         warmup_tx, trace_path);
      auto point = rig.ok()
                       ? harness::ServeChecked(&*rig, measure_tx, &recorder)
                       : Result<harness::CheckedServe>(rig.status());
      if (!point.ok()) {
        std::cerr << name << " clients=" << cell.clients
                  << " shards=" << cell.shards << ": "
                  << point.status().ToString() << "\n";
        return 1;
      }
      if (!point->deterministic()) failures++;
      // One registry epoch per measured cell (series across the sweep).
      obs::ImportTpccStats(&metrics, "tpcc", point->stats);
      metrics.Set("trace.emitted",
                  static_cast<double>(recorder.total_emitted()),
                  obs::MetricsRegistry::Kind::kCounter);
      metrics.Set("trace.dropped",
                  static_cast<double>(recorder.total_dropped()),
                  obs::MetricsRegistry::Kind::kCounter);
      metrics.SnapshotEpoch(metrics.num_epochs());
      points.emplace_back(cell, std::move(*point));
    }
    // Scaling anchor: the single-shard cell at the standard client count.
    double anchor = 0;
    for (const auto& [cell, pt] : points) {
      if (cell.clients == 4 && cell.shards == 1) anchor = KtpsVt(pt.stats);
    }
    for (const auto& [cell, pt] : points) {
      const workload::LatencyHistogram& h = pt.stats.latency;
      const double ktps_vt = KtpsVt(pt.stats);
      const char* verdict = pt.deterministic() ? "ok" : "FAIL";
      tbl.AddRow({name, std::to_string(cell.clients),
                  std::to_string(cell.shards),
                  std::to_string(pt.stats.latency.count()),
                  std::to_string(h.p50()), std::to_string(h.p99()),
                  std::to_string(h.p999()),
                  std::to_string(pt.stats.worst_op.total_us),
                  std::to_string(pt.stats.worst_op.gc_us),
                  std::to_string(pt.stats.worst_op.meta_us),
                  TablePrinter::Num(ktps_vt, 2),
                  anchor > 0 ? TablePrinter::Num(ktps_vt / anchor, 2) : "-",
                  TablePrinter::Num(pt.wall_ms, 2),
                  verdict, verdict});
    }
  }
  tbl.Print(std::cout);
  json.Add("exp16_oltp", tbl);
  json.AddRaw("metrics", metrics.ToJson());
  if (!json.Finish()) return 1;
  if (failures != 0) {
    std::cerr << "\n" << failures
              << " cell(s) broke commit-order or trace determinism\n";
    return 1;
  }
  return 0;
}
