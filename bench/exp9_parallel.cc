// Experiment 9 (beyond the paper): wall-clock multi-chip scaling with the
// ShardExecutor -- real threads, not just virtual-time accounting.
//
// A fixed database and a fixed total capacity (--blocks) are striped across
// S chips, S in {1, 2, 4, 8}; each chip's pipeline runs thread-confined on
// its own ShardExecutor worker, fed per-shard windows of B update operations
// (RunPipelined, kDepth windows in flight per shard) whose queued
// write-backs flush write by write at the end of each window. For PDL(256B)
// and OPU the bench reports, per (S, B):
//   * wall_ms / kops_s -- host wall-clock (std::chrono) over the measured
//     ops; this is the figure that should scale with S on a multi-core host.
//   * par us/op       -- elapsed virtual time (the largest chip-clock
//     advance, RunStats::elapsed_vt_us): the multi-chip scaling in virtual
//     time, near-linear in S.
//   * total us/op     -- summed chip-clock advances (total_work_us): the
//     total work, flat in S.
//   * p50/p99/p999    -- per-op virtual-time latency percentiles
//     (deterministic; identical whether or not --pin is set).
//   * determinism     -- the same schedule is replayed inline (null
//     executor) on an identically prepared store; per-chip clocks and erase
//     counts and every virtual RunStats field must match the threaded run
//     bit-for-bit (ok/FAIL).
//
// Expected shape: wall-clock speedup approaching min(S, cores), flat
// per-shard virtual time, determinism always ok. Larger B amortizes
// submission overhead and saves read-step work (window-local reads are
// served from queued images). --pin=1 pins worker i to core i (mod
// available cores); it can only move wall_ms, never the virtual columns.

#include <cstdio>
#include <iostream>
#include <vector>

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
};

Result<ParallelPoint> RunPoint(const harness::ExperimentEnv& env,
                               const methods::MethodSpec& spec,
                               uint32_t num_shards, uint32_t batch_size,
                               const workload::WorkloadParams& params, bool pin,
                               obs::MetricsRegistry* metrics) {
  const harness::RigSpec rig_spec{.shards = num_shards, .params = params};
  FLASHDB_ASSIGN_OR_RETURN(harness::Rig rig,
                           harness::PrepareRig(env, spec, rig_spec));

  // The uniform per-bench metrics object: run stats plus the executor's
  // per-worker submit/complete counters and the store's clock skew --
  // report-time reads only, the caller snapshots one epoch per point.
  const harness::Execution threaded{.batch = batch_size,
                                    .depth = kDepth,
                                    .threaded = true,
                                    .pin = pin};
  FLASHDB_ASSIGN_OR_RETURN(
      harness::PointResult run,
      harness::Execute(&rig, env.measure_ops, threaded, metrics));
  if (metrics != nullptr) {
    obs::ImportShardedStoreStats(metrics, "store", *rig.sharded());
  }

  ParallelPoint point;
  point.wall_ms = run.wall_ms;
  point.kops_per_sec = point.wall_ms > 0
                           ? static_cast<double>(env.measure_ops) /
                                 point.wall_ms
                           : 0;
  const double ops = static_cast<double>(env.measure_ops);
  const workload::RunStats& stats = run.stats;
  point.parallel_us_per_op = static_cast<double>(stats.elapsed_vt_us) / ops;
  point.total_us_per_op = static_cast<double>(stats.total_work_us) / ops;
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

  // Replay the identical schedule inline on an identically prepared store;
  // thread-confined execution must leave every chip exactly where the
  // threaded run left it.
  FLASHDB_ASSIGN_OR_RETURN(harness::Rig ref,
                           harness::PrepareRig(env, spec, rig_spec));
  const harness::Execution inline_ex{.batch = batch_size, .depth = kDepth};
  FLASHDB_ASSIGN_OR_RETURN(harness::PointResult replay,
                           harness::Execute(&ref, env.measure_ops, inline_ex));
  point.deterministic = harness::SameVirtualRun(rig.store(), run.stats,
                                                ref.store(), replay.stats);
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
        auto point = RunPoint(env, *spec, shards, batch, params, pin, &metrics);
        metrics.SnapshotEpoch(point_index++);
        if (!point.ok()) {
          std::cerr << name << " x" << shards << " b" << batch << ": "
                    << point.status().ToString() << "\n";
          return 1;
        }
        if (shards == 1) base_wall = point->wall_ms;
        const double speedup =
            point->wall_ms > 0 ? base_wall / point->wall_ms : 0;
        if (!point->deterministic) failures++;
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
                    point->deterministic ? "ok" : "FAIL"});
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
