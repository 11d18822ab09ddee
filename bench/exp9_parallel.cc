// Experiment 9 (beyond the paper): wall-clock multi-chip scaling with the
// ShardExecutor -- real threads, not just virtual-time accounting.
//
// A fixed database and a fixed total capacity (--blocks) are striped across
// S chips, S in {1, 2, 4, 8}; each chip's pipeline runs thread-confined on
// its own ShardExecutor worker, fed per-shard windows of B update operations
// (RunPipelined, kDepth windows in flight per shard) whose write-backs go
// through the batched WriteBatch path. For PDL(256B) and OPU the bench
// reports, per (S, B):
//   * wall_ms / kops_s -- host wall-clock (std::chrono) over the measured
//     ops; this is the figure that should scale with S on a multi-core host
//     (the virtual-time speedup of exp8 becomes real).
//   * par us/op       -- elapsed virtual time (max of the chip clocks).
//   * p50/p99/p999    -- per-op virtual-time latency percentiles
//     (deterministic; identical whether or not --pin is set).
//   * determinism     -- the same schedule is replayed inline (null
//     executor) on an identically prepared store; per-chip clocks and erase
//     counts and every virtual RunStats field must match the threaded run
//     bit-for-bit (ok/FAIL). Disable the second run with --check=0.
//
// Expected shape: wall-clock speedup approaching min(S, cores), flat
// per-shard virtual time, determinism always ok. Larger B amortizes
// submission overhead and saves read-step work (window-local reads are
// served from queued images). --pin=1 pins worker i to core i (mod
// available cores); it can only move wall_ms, never the virtual columns.

#include <chrono>
#include <cstdio>
#include <iostream>
#include <numeric>
#include <vector>

#include "common/cpu_affinity.h"
#include "ftl/shard_executor.h"
#include "harness/experiment.h"
#include "harness/table_printer.h"
#include "obs/metrics_import.h"
#include "obs/metrics_registry.h"

using namespace flashdb;
using harness::TablePrinter;

namespace {

/// Windows in flight per shard.
constexpr uint32_t kDepth = 4;

struct ParallelPoint {
  double wall_ms = 0;
  double kops_per_sec = 0;
  double parallel_us_per_op = 0;
  double total_us_per_op = 0;
  // Stall attribution (virtual time, deterministic): where the per-op cost
  // beyond raw command latency went.
  double gc_us_per_op = 0;
  double meta_us_per_op = 0;
  double plane_stall_us_per_op = 0;
  // Per-op virtual-time latency percentiles (deterministic, gateable).
  uint64_t p50_us = 0;
  uint64_t p99_us = 0;
  uint64_t p999_us = 0;
  bool deterministic = true;
  bool checked = false;
};

struct PreparedRun {
  std::unique_ptr<ftl::ShardedStore> store;
  std::unique_ptr<workload::UpdateDriver> driver;
  workload::Schedule schedule;
};

/// Builds a store + driver at steady state and pre-draws the measured
/// schedule; two calls with identical arguments yield identical state.
Result<PreparedRun> Prepare(const harness::ExperimentEnv& env,
                            const methods::MethodSpec& spec,
                            uint32_t num_shards,
                            const workload::WorkloadParams& params,
                            uint32_t total_blocks) {
  flash::FlashConfig shard_cfg = env.flash_cfg;
  shard_cfg.geometry.num_blocks = total_blocks / num_shards;
  if (shard_cfg.geometry.num_blocks < 8) {
    return Status::InvalidArgument(
        "too many shards for --blocks: " +
        std::to_string(shard_cfg.geometry.num_blocks) +
        " blocks/shard, need >= 8");
  }
  const auto& g = shard_cfg.geometry;
  const uint32_t pages_per_shard = g.total_pages() - 2 * g.pages_per_block;
  const uint32_t db_pages = static_cast<uint32_t>(
      env.utilization * static_cast<double>(pages_per_shard) * num_shards);

  PreparedRun run;
  run.store = methods::CreateShardedStore(shard_cfg, num_shards, spec);
  workload::WorkloadParams wp = params;
  wp.seed = env.seed;
  run.driver =
      std::make_unique<workload::UpdateDriver>(run.store.get(), wp);
  FLASHDB_RETURN_IF_ERROR(run.driver->LoadDatabase(db_pages));
  const uint64_t warmup_cap =
      env.warmup_max_ops != 0 ? env.warmup_max_ops : 20ULL * db_pages;
  FLASHDB_RETURN_IF_ERROR(
      run.driver->Warmup(env.warmup_erases_per_block, warmup_cap));
  run.schedule = run.driver->MakeSchedule(env.measure_ops);
  return run;
}

Result<ParallelPoint> RunPoint(const harness::ExperimentEnv& env,
                                       const methods::MethodSpec& spec,
                                       uint32_t num_shards,
                                       uint32_t batch_size,
                                       const workload::WorkloadParams& params,
                                       uint32_t total_blocks, bool pin,
                                       bool check,
                                       obs::MetricsRegistry* metrics) {
  FLASHDB_ASSIGN_OR_RETURN(
      PreparedRun run, Prepare(env, spec, num_shards, params, total_blocks));
  const uint64_t parallel0 = run.store->parallel_time_us();
  const uint64_t total0 = run.store->total_work_us();

  // Workers spawn outside the timed region; the measured span is pure
  // submit/execute/join. Pinning (when requested and supported) is a
  // wall-clock-only knob: worker i -> core i mod available cores.
  std::vector<int> pin_cores;
  if (pin && CpuPinningSupported()) {
    pin_cores.resize(num_shards);
    std::iota(pin_cores.begin(), pin_cores.end(), 0);
    const int cores = static_cast<int>(NumAvailableCores());
    for (int& c : pin_cores) c %= cores;
  }
  ftl::ShardExecutor executor(num_shards, /*queue_capacity=*/1024, pin_cores);
  workload::RunStats stats;
  const auto t0 = std::chrono::steady_clock::now();
  FLASHDB_RETURN_IF_ERROR(run.driver->RunPipelined(
      run.schedule, batch_size, kDepth, &executor, &stats));
  const auto t1 = std::chrono::steady_clock::now();

  ParallelPoint point;
  point.wall_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  point.kops_per_sec = point.wall_ms > 0
                           ? static_cast<double>(env.measure_ops) /
                                 point.wall_ms
                           : 0;
  point.parallel_us_per_op =
      static_cast<double>(run.store->parallel_time_us() - parallel0) /
      static_cast<double>(env.measure_ops);
  point.total_us_per_op =
      static_cast<double>(run.store->total_work_us() - total0) /
      static_cast<double>(env.measure_ops);
  const double ops = static_cast<double>(env.measure_ops);
  const flash::DeviceCounters& dc = stats.device;
  point.gc_us_per_op =
      static_cast<double>(dc.of(flash::OpCategory::kGc).total_us()) / ops;
  point.meta_us_per_op =
      static_cast<double>(dc.of(flash::OpCategory::kMeta).total_us()) / ops;
  point.plane_stall_us_per_op =
      static_cast<double>(stats.plane_stall_us) / ops;
  point.p50_us = stats.latency.p50();
  point.p99_us = stats.latency.p99();
  point.p999_us = stats.latency.p999();

  // The uniform per-bench metrics object: run stats plus the executor's
  // per-worker submit/complete counters and the store's clock skew --
  // report-time reads only, the caller snapshots one epoch per point.
  if (metrics != nullptr) {
    obs::ImportRunStats(metrics, "run", stats);
    obs::ImportExecutorStats(metrics, "executor", executor);
    obs::ImportShardedStoreStats(metrics, "store", *run.store);
  }

  if (check) {
    // Replay the identical schedule inline on an identically prepared
    // store; thread-confined execution must leave every chip exactly where
    // the threaded run left it.
    FLASHDB_ASSIGN_OR_RETURN(
        PreparedRun ref, Prepare(env, spec, num_shards, params, total_blocks));
    workload::RunStats ref_stats;
    FLASHDB_RETURN_IF_ERROR(ref.driver->RunPipelined(
        ref.schedule, batch_size, kDepth, nullptr, &ref_stats));
    point.checked = true;
    point.deterministic = harness::SameVirtualRun(run.store.get(), stats,
                                                  ref.store.get(), ref_stats);
  }
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  harness::Flags flags(argc, argv);
  harness::ExperimentEnv env = harness::ExperimentEnv::FromFlags(flags);
  if (env.measure_ops == 0) {
    std::cerr << "--ops must be > 0\n";
    return 1;
  }
  const uint32_t total_blocks = env.flash_cfg.geometry.num_blocks;
  const bool check = flags.GetBool("check", true);
  const bool pin = flags.GetBool("pin", false);

  workload::WorkloadParams params;
  params.pct_changed_by_one_op = flags.GetDouble("changed", 2.0);
  params.updates_till_write =
      static_cast<uint32_t>(flags.GetInt("updates", 1));
  // Tail percentiles are virtual-time deltas: recording them never perturbs
  // the clocks (LatencyHistogramTest.RecordingNeverChangesVirtualTime).
  params.record_latency = true;

  std::vector<uint32_t> batch_sizes;
  if (flags.Has("batch")) {
    batch_sizes.push_back(static_cast<uint32_t>(flags.GetInt("batch", 8)));
  } else {
    batch_sizes = {1, 8, 32};
  }

  std::printf(
      "Experiment 9: wall-clock multi-chip scaling, %u blocks total, "
      "%llu ops\n(one ShardExecutor worker per shard; batched WriteBacks; "
      "speedup = wall-clock vs 1 shard at the same batch size)\n\n",
      total_blocks, static_cast<unsigned long long>(env.measure_ops));

  const std::vector<std::string> method_names = {"PDL(256B)", "OPU"};
  TablePrinter tbl({"Method", "Shards", "Batch", "wall_ms", "kops/s",
                    "speedup", "par us/op", "total us/op", "gc us/op",
                    "meta us/op", "stall us/op", "p50 us", "p99 us",
                    "p999 us", "determinism"});
  obs::MetricsRegistry metrics;
  uint64_t point_index = 0;
  int failures = 0;
  for (const std::string& name : method_names) {
    auto spec = methods::ParseMethodSpec(name);
    if (!spec.ok()) {
      std::cerr << spec.status().ToString() << "\n";
      return 1;
    }
    for (uint32_t batch : batch_sizes) {
      double base_wall = 0;
      for (uint32_t shards : {1u, 2u, 4u, 8u}) {
        auto point = RunPoint(env, *spec, shards, batch, params,
                                      total_blocks, pin, check, &metrics);
        metrics.SnapshotEpoch(point_index++);
        if (!point.ok()) {
          std::cerr << name << " x" << shards << " b" << batch << ": "
                    << point.status().ToString() << "\n";
          return 1;
        }
        if (shards == 1) base_wall = point->wall_ms;
        const double speedup =
            point->wall_ms > 0 ? base_wall / point->wall_ms : 0;
        if (point->checked && !point->deterministic) failures++;
        tbl.AddRow({name, std::to_string(shards), std::to_string(batch),
                    TablePrinter::Num(point->wall_ms, 2),
                    TablePrinter::Num(point->kops_per_sec),
                    TablePrinter::Num(speedup, 2) + "x",
                    TablePrinter::Num(point->parallel_us_per_op),
                    TablePrinter::Num(point->total_us_per_op),
                    TablePrinter::Num(point->gc_us_per_op),
                    TablePrinter::Num(point->meta_us_per_op),
                    TablePrinter::Num(point->plane_stall_us_per_op),
                    std::to_string(point->p50_us),
                    std::to_string(point->p99_us),
                    std::to_string(point->p999_us),
                    point->checked ? (point->deterministic ? "ok" : "FAIL")
                                   : "-"});
      }
    }
  }
  tbl.Print(std::cout);
  harness::JsonDump json(flags.GetString("json", ""));
  json.Add("exp9_parallel", tbl);
  json.AddRaw("metrics", metrics.ToJson());
  if (!json.Finish()) return 1;
  if (failures != 0) {
    std::cerr << "\n" << failures
              << " configuration(s) broke virtual-time determinism\n";
    return 1;
  }
  return 0;
}
