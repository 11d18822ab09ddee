// Experiment 10 (beyond the paper): continuous cross-shard pipelining under
// skew -- how RunPipelined's bounded per-shard credits behave as the
// in-flight depth K grows.
//
// The workload deliberately skews the pid distribution: --hot percent of the
// operations target shard 0's residue class (pid % S == 0), making chip 0 a
// hotspot the way a hot relation pins one flash channel. RunPipelined
// streams windows round-robin with at most K in flight per shard (each
// executor ring holds exactly K), skipping a shard that is out of credits,
// so the cold chips overlap the hot one and wall-clock tracks the *max* of
// the shard workloads rather than their sum.
//
// For PDL(256B) and OPU the bench reports, per K in --depth:
//   * wall_ms / kops_s -- host wall-clock over the measured ops;
//   * speedup          -- wall-clock of the sweep's first row (K=1 by
//     default) over this row; > 1 means deeper pipelining won;
//   * lag_ms           -- shard clock spread max-min (virtual time) at the
//     end of the run: how far the hot chip ran ahead, the skew observable;
//   * par us/op        -- elapsed virtual time (the largest chip-clock
//     advance, harness::Cost);
//   * p50/p99/p999     -- per-op virtual-time latency percentiles
//     (deterministic; identical whether or not --pin is set);
//   * determinism      -- per-chip clocks and erase counts and every virtual
//     RunStats field must match an inline (null-executor) replay of the
//     same schedule bit-for-bit (ok/FAIL).
//
// Expected shape: K>=2 keeps the workers busy across window handoffs and
// beats K=1, which leaves them briefly idle between windows; every virtual
// column is identical across K; determinism always ok.

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <vector>

#include "harness/experiment.h"
#include "harness/table_printer.h"

using namespace flashdb;
using harness::TablePrinter;

namespace {

/// One measured point: RunPipelined with `depth` windows in flight per
/// shard, prepared and run `reps` times; the last rep is checked against
/// its inline replay. Virtual-time results are deterministic across reps,
/// so the last rep's stand for all; its wall_ms and credit wait are the
/// minimum over the reps (min, not mean: scheduler and frequency noise only
/// ever adds time). `lag_ms` receives the shard clock spread at the end.
Result<harness::CheckedRun> RunPoint(const harness::ExperimentEnv& env,
                                     const methods::MethodSpec& spec,
                                     uint32_t num_shards, uint32_t batch_size,
                                     uint32_t depth, uint32_t reps,
                                     const workload::WorkloadParams& params,
                                     bool pin, double* lag_ms) {
  const harness::RigSpec rig_spec{.shards = num_shards, .params = params};
  const harness::Execution threaded{.batch = batch_size,
                                    .depth = depth,
                                    .threaded = true,
                                    .pin = pin};
  harness::CheckedRun best;
  for (uint32_t rep = 0; rep < reps; ++rep) {
    FLASHDB_ASSIGN_OR_RETURN(harness::Rig rig,
                             harness::PrepareRig(env, spec, rig_spec));
    harness::CheckedRun this_rep;
    if (rep + 1 < reps) {
      FLASHDB_ASSIGN_OR_RETURN(
          harness::PointResult run,
          harness::Execute(&rig, env.measure_ops, threaded));
      this_rep.stats = run.stats;
      this_rep.cost = run.cost;
    } else {
      FLASHDB_ASSIGN_OR_RETURN(
          this_rep, harness::ExecuteChecked(&rig, env.measure_ops, threaded));
    }
    *lag_ms = static_cast<double>(rig.sharded()->shard_lag_us()) / 1000.0;
    if (rep > 0) {
      this_rep.cost.wall_ms =
          std::min(this_rep.cost.wall_ms, best.cost.wall_ms);
      this_rep.stats.credit_wait_ns =
          std::min(this_rep.stats.credit_wait_ns, best.stats.credit_wait_ns);
    }
    best = this_rep;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  harness::Flags flags(argc, argv);
  harness::ExperimentEnv env = harness::ExperimentEnv::FromFlags(flags);
  const uint32_t total_blocks = env.flash_cfg.geometry.num_blocks;
  const uint32_t num_shards = static_cast<uint32_t>(flags.GetInt("shards", 4));
  const uint32_t batch_size = static_cast<uint32_t>(flags.GetInt("batch", 8));
  const uint32_t reps =
      std::max<uint32_t>(1, static_cast<uint32_t>(flags.GetInt("reps", 1)));
  const bool pin = flags.GetBool("pin", false);

  workload::WorkloadParams params;
  params.pct_changed_by_one_op = flags.GetDouble("changed", 2.0);
  params.updates_till_write =
      static_cast<uint32_t>(flags.GetInt("updates", 1));
  params.hot_shard_pct = flags.GetDouble("hot", 60.0);
  // Tail percentiles are virtual-time deltas: recording them never perturbs
  // the clocks (RecordingTest.LatencyAndTracingChangeNothing).
  params.record_latency = true;

  std::vector<uint32_t> depths;
  if (flags.Has("depth")) {
    depths.push_back(static_cast<uint32_t>(flags.GetInt("depth", 2)));
  } else {
    depths = {1, 2, 4, 8};
  }
  harness::JsonDump json(flags.GetString("json", ""));
  if (!flags.AllRead()) return 2;

  std::printf(
      "Experiment 10: cross-shard pipelining under skew, %u shards, "
      "%u blocks total, %llu ops\n(%.0f%% of ops pinned to shard 0; "
      "batch %u;\n speedup = wall-clock of the first depth over this one)"
      "\n\n",
      num_shards, total_blocks,
      static_cast<unsigned long long>(env.measure_ops), params.hot_shard_pct,
      batch_size);

  const std::vector<std::string> method_names = {"PDL(256B)", "OPU"};
  TablePrinter tbl({"Method", "Mode", "K", "wall_ms", "kops/s", "speedup",
                    "lag_ms", "par us/op", "gc us/op", "meta us/op",
                    "wait_ms", "p50 us", "p99 us", "p999 us",
                    "determinism"});
  int failures = 0;
  for (const std::string& name : method_names) {
    auto spec = methods::ParseMethodSpec(name);
    if (!spec.ok()) {
      std::cerr << spec.status().ToString() << "\n";
      return 1;
    }
    double anchor_wall = 0;  // the first depth's wall-clock
    for (uint32_t depth : depths) {
      double lag_ms = 0;
      auto point = RunPoint(env, *spec, num_shards, batch_size, depth, reps,
                            params, pin, &lag_ms);
      if (!point.ok()) {
        std::cerr << name << " depth " << depth << ": "
                  << point.status().ToString() << "\n";
        return 1;
      }
      const workload::RunStats& s = point->stats;
      const double wall_ms = point->cost.wall_ms;
      if (depth == depths.front()) anchor_wall = wall_ms;
      const double kops_per_sec =
          wall_ms > 0 ? static_cast<double>(env.measure_ops) / wall_ms : 0;
      const double speedup = wall_ms > 0 ? anchor_wall / wall_ms : 0;
      if (!point->deterministic()) failures++;
      tbl.AddRow(
          {name, "pipelined", std::to_string(depth),
           TablePrinter::Num(wall_ms, 2), TablePrinter::Num(kops_per_sec),
           TablePrinter::Num(speedup, 2) + "x", TablePrinter::Num(lag_ms, 1),
           TablePrinter::Num(s.PerOp(point->cost.advance.elapsed_vt_us)),
           TablePrinter::Num(
               s.PerOp(s.device.of(flash::OpCategory::kGc).total_us())),
           TablePrinter::Num(
               s.PerOp(s.device.of(flash::OpCategory::kMeta).total_us())),
           TablePrinter::Num(static_cast<double>(s.credit_wait_ns) / 1e6, 2),
           std::to_string(s.latency.p50()), std::to_string(s.latency.p99()),
           std::to_string(s.latency.p999()),
           point->deterministic() ? "ok" : "FAIL"});
    }
  }
  tbl.Print(std::cout);
  json.Add("exp10_pipeline", tbl);
  if (!json.Finish()) return 1;
  if (failures != 0) {
    std::cerr << "\n" << failures
              << " configuration(s) broke virtual-time determinism\n";
    return 1;
  }
  return 0;
}
