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
// concurrent numbers trustworthy: the recorded commit log (warmup +
// measure) is replayed single-threaded against an identically prepared
// fresh rig, and the per-chip virtual clocks, the full latency histogram,
// and the worst-op sample must match bit-for-bit. The perf gate requires
// `ok` in every row; wall_ms is machine-relative and stays warn-only.

#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ftl/shard_executor.h"
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

struct OltpPoint {
  workload::TpccRunStats stats;
  double ktps_vt = 0;
  double wall_ms = 0;
  bool deterministic = true;
  /// Replay's deterministic event stream byte-identical to the concurrent
  /// serve's (transaction spans, flash commands, buffer traffic).
  bool trace_ok = true;
  uint64_t trace_emitted = 0;
  uint64_t trace_dropped = 0;
};

struct Rig {
  std::unique_ptr<ftl::ShardedStore> store;
  std::unique_ptr<workload::TpccDriver> driver;
};

/// Builds a formatted sharded store + driver for one cell. Identical
/// arguments yield bit-identical rigs -- the determinism replay relies on
/// this.
Result<Rig> Prepare(const methods::MethodSpec& spec,
                    const workload::TpccDriverOptions& opts,
                    uint32_t num_shards) {
  const uint32_t page_size = 2048;  // FlashConfig::Small geometry
  const uint32_t pages_per_shard =
      workload::TpccDriver::PagesPerShard(opts.scale, page_size, num_shards);
  // Flash sized at ~50% utilization like exp7.
  const uint32_t blocks_per_shard = (pages_per_shard * 2) / 64 + 8;
  Rig rig;
  rig.store = methods::CreateShardedStore(
      flash::FlashConfig::Small(blocks_per_shard), num_shards, spec);
  FLASHDB_RETURN_IF_ERROR(
      rig.store->Format(num_shards * pages_per_shard, nullptr, nullptr));
  rig.driver = std::make_unique<workload::TpccDriver>(rig.store.get(), opts);
  return rig;
}

/// Attaches one recorder lane per shard chip plus the producer's wall lane.
/// Safe while the workers are quiescent (shard confinement makes each lane
/// single-writer once serving resumes).
void AttachTrace(Rig* rig, uint32_t shards, obs::TraceRecorder* rec) {
  for (uint32_t i = 0; i < shards; ++i) {
    rig->store->shard_device(i)->set_trace(rec->shard(i));
  }
  rig->driver->set_wall_trace(rec->wall_lane());
}

Result<OltpPoint> RunPoint(const methods::MethodSpec& spec,
                           const workload::TpccDriverOptions& opts,
                           const Cell& cell, uint64_t warmup_tx,
                           uint64_t measure_tx, const std::string& trace_path,
                           uint64_t point_index) {
  FLASHDB_ASSIGN_OR_RETURN(Rig rig, Prepare(spec, opts, cell.shards));
  ftl::ShardExecutor executor(cell.shards);
  FLASHDB_RETURN_IF_ERROR(rig.driver->Load(&executor));
  FLASHDB_RETURN_IF_ERROR(rig.driver->Serve(warmup_tx, &executor, nullptr));
  const workload::TpccCommitLog warmup_log = rig.driver->commit_log();

  // Post-warmup attach: the timeline covers the measured transactions only,
  // and the replay rig mirrors this by attaching after replaying the warmup
  // log.
  obs::TraceRecorder recorder(cell.shards);
  AttachTrace(&rig, cell.shards, &recorder);

  OltpPoint point;
  const auto t0 = std::chrono::steady_clock::now();
  FLASHDB_RETURN_IF_ERROR(
      rig.driver->Serve(measure_tx, &executor, &point.stats));
  point.wall_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  if (point.stats.elapsed_vt_us > 0) {
    point.ktps_vt = 1000.0 * static_cast<double>(point.stats.latency.count()) /
                    static_cast<double>(point.stats.elapsed_vt_us);
  }

  point.trace_emitted = recorder.total_emitted();
  point.trace_dropped = recorder.total_dropped();
  if (!trace_path.empty()) {
    FLASHDB_RETURN_IF_ERROR(recorder.WriteChromeTraceFile(
        harness::PointTracePath(trace_path, point_index)));
  }

  // The commit-order determinism contract: single-threaded replay of the
  // recorded log (warmup first, then the measured span) on a fresh,
  // identically prepared rig must reproduce the concurrent run bit-for-bit
  // -- per-chip clocks, full histogram, worst-op sample, and the canonical
  // event trace.
  FLASHDB_ASSIGN_OR_RETURN(Rig ref, Prepare(spec, opts, cell.shards));
  FLASHDB_RETURN_IF_ERROR(ref.driver->Load(nullptr));
  FLASHDB_RETURN_IF_ERROR(ref.driver->Replay(warmup_log, nullptr));
  obs::TraceRecorder ref_recorder(cell.shards);
  AttachTrace(&ref, cell.shards, &ref_recorder);
  workload::TpccRunStats ref_stats;
  FLASHDB_RETURN_IF_ERROR(
      ref.driver->Replay(rig.driver->commit_log(), &ref_stats));
  point.deterministic =
      ref.store->shard_clocks() == rig.store->shard_clocks() &&
      ref_stats.latency == point.stats.latency &&
      ref_stats.worst_op == point.stats.worst_op;
  point.trace_ok = ref_recorder.CanonicalBytes() == recorder.CanonicalBytes();
  return point;
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
  const std::string trace_path = flags.GetString("trace", "");
  int failures = 0;
  uint64_t point_index = 0;
  for (const std::string& name : method_names) {
    auto spec = methods::ParseMethodSpec(name);
    if (!spec.ok()) {
      std::cerr << spec.status().ToString() << "\n";
      return 1;
    }
    std::vector<std::pair<Cell, OltpPoint>> points;
    for (const Cell& cell : cells) {
      workload::TpccDriverOptions cell_opts = opts;
      cell_opts.num_clients = cell.clients;
      auto point = RunPoint(*spec, cell_opts, cell, warmup_tx, measure_tx,
                            trace_path, point_index);
      if (!point.ok()) {
        std::cerr << name << " clients=" << cell.clients
                  << " shards=" << cell.shards << ": "
                  << point.status().ToString() << "\n";
        return 1;
      }
      if (!point->deterministic || !point->trace_ok) failures++;
      // One registry epoch per measured cell (series across the sweep).
      obs::ImportTpccStats(&metrics, "tpcc", point->stats);
      metrics.Set("trace.emitted", static_cast<double>(point->trace_emitted),
                  obs::MetricsRegistry::Kind::kCounter);
      metrics.Set("trace.dropped", static_cast<double>(point->trace_dropped),
                  obs::MetricsRegistry::Kind::kCounter);
      metrics.SnapshotEpoch(point_index);
      ++point_index;
      points.emplace_back(cell, std::move(*point));
    }
    // Scaling anchor: the single-shard cell at the standard client count.
    double anchor = 0;
    for (const auto& [cell, pt] : points) {
      if (cell.clients == 4 && cell.shards == 1) anchor = pt.ktps_vt;
    }
    for (const auto& [cell, pt] : points) {
      const workload::LatencyHistogram& h = pt.stats.latency;
      tbl.AddRow({name, std::to_string(cell.clients),
                  std::to_string(cell.shards),
                  std::to_string(pt.stats.latency.count()),
                  std::to_string(h.p50()), std::to_string(h.p99()),
                  std::to_string(h.p999()),
                  std::to_string(pt.stats.worst_op.total_us),
                  std::to_string(pt.stats.worst_op.gc_us),
                  std::to_string(pt.stats.worst_op.meta_us),
                  TablePrinter::Num(pt.ktps_vt, 2),
                  anchor > 0 ? TablePrinter::Num(pt.ktps_vt / anchor, 2) : "-",
                  TablePrinter::Num(pt.wall_ms, 2),
                  pt.deterministic ? "ok" : "FAIL",
                  pt.trace_ok ? "ok" : "FAIL"});
    }
  }
  tbl.Print(std::cout);
  harness::JsonDump json(flags.GetString("json", ""));
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
