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

/// One measured point: the threaded run over `num_shards` chips, checked
/// against its inline replay.
Result<harness::CheckedRun> RunPoint(const harness::ExperimentEnv& env,
                                     const methods::MethodSpec& spec,
                                     uint32_t num_shards, uint32_t batch_size,
                                     const workload::WorkloadParams& params,
                                     bool pin, obs::MetricsRegistry* metrics) {
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
      harness::CheckedRun run,
      harness::ExecuteChecked(&rig, env.measure_ops, threaded, metrics));
  obs::ImportShardedStoreStats(metrics, "store", *rig.sharded());
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  harness::Flags flags(argc, argv);
  harness::ExperimentEnv env = harness::ExperimentEnv::FromFlags(flags);
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
        const workload::RunStats& s = point->run.stats;
        const double wall_ms = point->run.wall_ms;
        if (shards == 1) base_wall = wall_ms;
        const double kops_per_sec =
            wall_ms > 0 ? static_cast<double>(env.measure_ops) / wall_ms : 0;
        const double speedup = wall_ms > 0 ? base_wall / wall_ms : 0;
        if (!point->deterministic) failures++;
        tbl.AddRow(
            {name, std::to_string(shards), std::to_string(batch),
             TablePrinter::Num(wall_ms, 2), TablePrinter::Num(kops_per_sec),
             TablePrinter::Num(speedup, 2) + "x",
             TablePrinter::Num(s.PerOp(s.elapsed_vt_us)),
             TablePrinter::Num(s.PerOp(s.total_work_us)),
             TablePrinter::Num(
                 s.PerOp(s.device.of(flash::OpCategory::kGc).total_us())),
             TablePrinter::Num(
                 s.PerOp(s.device.of(flash::OpCategory::kMeta).total_us())),
             TablePrinter::Num(s.PerOp(s.plane_stall_us)),
             std::to_string(s.latency.p50()), std::to_string(s.latency.p99()),
             std::to_string(s.latency.p999()),
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
