// Experiment 10 (beyond the paper): continuous cross-shard pipelining under
// skew -- how RunPipelined's bounded per-shard credits behave as the
// in-flight depth K grows.
//
// The workload deliberately skews the pid distribution: --hot percent of the
// operations target shard 0's residue class (pid % S == 0), making chip 0 a
// hotspot the way a hot relation pins one flash channel. The executor rings
// are kept small (--queue) to model a steady-state flusher with bounded
// buffering. RunPipelined streams windows round-robin with at most K in
// flight per shard, skipping a shard that is out of credits, so the cold
// chips overlap the hot one and wall-clock tracks the *max* of the shard
// workloads rather than their sum.
//
// For PDL(256B) and OPU the bench reports, per K in --depth:
//   * wall_ms / kops_s -- host wall-clock over the measured ops;
//   * speedup          -- wall-clock of the sweep's first row (K=1 by
//     default) over this row; > 1 means deeper pipelining won;
//   * lag_ms           -- shard clock spread max-min (virtual time) at the
//     end of the run: how far the hot chip ran ahead, the skew observable;
//   * par us/op        -- elapsed virtual time (max of the chip clocks);
//   * p50/p99/p999     -- per-op virtual-time latency percentiles
//     (deterministic; identical whether or not --pin is set);
//   * determinism      -- per-chip clocks and erase counts and every virtual
//     RunStats field must match an inline (null-executor) replay of the
//     same schedule bit-for-bit (ok/FAIL; --check=0 disables the replay).
//
// Expected shape: K>=2 keeps the workers busy across window handoffs and
// beats K=1, which leaves them briefly idle between windows; every virtual
// column is identical across K; determinism always ok.

#include <algorithm>
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

struct PipelinePoint {
  double wall_ms = 0;
  double kops_per_sec = 0;
  double parallel_us_per_op = 0;
  double lag_ms = 0;
  // Stall attribution: gc/meta are induced virtual-time device traffic
  // (deterministic); wait_ms is the wall-clock the producer spent parked on
  // per-shard credits (min over reps, noisy -- reported, never gated).
  double gc_us_per_op = 0;
  double meta_us_per_op = 0;
  double wait_ms = 0;
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

/// One measured point: RunPipelined with `depth` windows in flight per
/// shard. Wall-clock is the minimum over
/// `reps` identically-prepared executions (min, not mean: scheduler and
/// frequency noise only ever adds time); virtual-time metrics are
/// deterministic across reps.
Result<PipelinePoint> RunPoint(const harness::ExperimentEnv& env,
                               const methods::MethodSpec& spec,
                               uint32_t num_shards, uint32_t batch_size,
                               uint32_t depth, size_t queue_capacity,
                               uint32_t reps,
                               const workload::WorkloadParams& params,
                               uint32_t total_blocks, bool pin, bool check,
                               obs::MetricsRegistry* metrics) {
  PipelinePoint point;
  std::unique_ptr<ftl::ShardedStore> last_store;
  workload::RunStats last_stats;
  // Pinning (when requested and supported) is a wall-clock-only knob:
  // worker i -> core i mod available cores.
  std::vector<int> pin_cores;
  if (pin && CpuPinningSupported()) {
    pin_cores.resize(num_shards);
    std::iota(pin_cores.begin(), pin_cores.end(), 0);
    const int cores = static_cast<int>(NumAvailableCores());
    for (int& c : pin_cores) c %= cores;
  }
  for (uint32_t rep = 0; rep < reps; ++rep) {
    FLASHDB_ASSIGN_OR_RETURN(
        PreparedRun run,
        Prepare(env, spec, num_shards, params, total_blocks));
    const uint64_t parallel0 = run.store->parallel_time_us();

    // Workers spawn outside the timed region; the measured span is pure
    // submit/execute/complete.
    ftl::ShardExecutor executor(num_shards, queue_capacity, pin_cores);
    workload::RunStats stats;
    const auto t0 = std::chrono::steady_clock::now();
    FLASHDB_RETURN_IF_ERROR(run.driver->RunPipelined(
        run.schedule, batch_size, depth, &executor, &stats));
    const auto t1 = std::chrono::steady_clock::now();

    const double wall_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (rep == 0 || wall_ms < point.wall_ms) point.wall_ms = wall_ms;
    point.parallel_us_per_op =
        static_cast<double>(run.store->parallel_time_us() - parallel0) /
        static_cast<double>(env.measure_ops);
    point.lag_ms = static_cast<double>(run.store->shard_lag_us()) / 1000.0;
    const double ops = static_cast<double>(env.measure_ops);
    const flash::DeviceCounters& dc = stats.device;
    point.gc_us_per_op =
        static_cast<double>(dc.of(flash::OpCategory::kGc).total_us()) / ops;
    point.meta_us_per_op =
        static_cast<double>(dc.of(flash::OpCategory::kMeta).total_us()) / ops;
    const double wait_ms =
        static_cast<double>(stats.credit_wait_ns) / 1e6;
    if (rep == 0 || wait_ms < point.wait_ms) point.wait_ms = wait_ms;
    point.p50_us = stats.latency.p50();
    point.p99_us = stats.latency.p99();
    point.p999_us = stats.latency.p999();
    // Uniform metrics object: run breakdown + the executor's per-worker
    // counters and the store's clock skew, read after the workers quiesce.
    if (metrics != nullptr && rep == reps - 1) {
      obs::ImportRunStats(metrics, "run", stats);
      obs::ImportExecutorStats(metrics, "executor", executor);
      obs::ImportShardedStoreStats(metrics, "store", *run.store);
    }
    last_store = std::move(run.store);
    last_stats = stats;
  }
  point.kops_per_sec =
      point.wall_ms > 0
          ? static_cast<double>(env.measure_ops) / point.wall_ms
          : 0;

  if (check) {
    // Replay the identical schedule inline on an identically prepared
    // store; continuous submission must leave every chip exactly where the
    // inline run leaves it.
    FLASHDB_ASSIGN_OR_RETURN(
        PreparedRun ref, Prepare(env, spec, num_shards, params, total_blocks));
    workload::RunStats ref_stats;
    FLASHDB_RETURN_IF_ERROR(ref.driver->RunPipelined(
        ref.schedule, batch_size, depth, nullptr, &ref_stats));
    point.checked = true;
    point.deterministic = harness::SameVirtualRun(
        last_store.get(), last_stats, ref.store.get(), ref_stats);
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
  const uint32_t num_shards = static_cast<uint32_t>(flags.GetInt("shards", 4));
  const uint32_t batch_size = static_cast<uint32_t>(flags.GetInt("batch", 8));
  const size_t queue_capacity =
      static_cast<size_t>(flags.GetInt("queue", 8));
  const uint32_t reps =
      std::max<uint32_t>(1, static_cast<uint32_t>(flags.GetInt("reps", 1)));
  const bool check = flags.GetBool("check", true);
  const bool pin = flags.GetBool("pin", false);

  workload::WorkloadParams params;
  params.pct_changed_by_one_op = flags.GetDouble("changed", 2.0);
  params.updates_till_write =
      static_cast<uint32_t>(flags.GetInt("updates", 1));
  params.hot_shard_pct = flags.GetDouble("hot", 60.0);
  // Tail percentiles are virtual-time deltas: recording them never perturbs
  // the clocks (LatencyHistogramTest.RecordingNeverChangesVirtualTime).
  params.record_latency = true;

  std::vector<uint32_t> depths;
  if (flags.Has("depth")) {
    depths.push_back(static_cast<uint32_t>(flags.GetInt("depth", 2)));
  } else {
    depths = {1, 2, 4, 8};
  }

  std::printf(
      "Experiment 10: cross-shard pipelining under skew, %u shards, "
      "%u blocks total, %llu ops\n(%.0f%% of ops pinned to shard 0; "
      "executor rings hold %zu windows; batch %u;\n speedup = wall-clock of "
      "the first depth over this one)\n\n",
      num_shards, total_blocks,
      static_cast<unsigned long long>(env.measure_ops), params.hot_shard_pct,
      queue_capacity, batch_size);

  const std::vector<std::string> method_names = {"PDL(256B)", "OPU"};
  TablePrinter tbl({"Method", "Mode", "K", "wall_ms", "kops/s", "speedup",
                    "lag_ms", "par us/op", "gc us/op", "meta us/op",
                    "wait_ms", "p50 us", "p99 us", "p999 us",
                    "determinism"});
  obs::MetricsRegistry metrics;
  uint64_t point_index = 0;
  int failures = 0;
  for (const std::string& name : method_names) {
    auto spec = methods::ParseMethodSpec(name);
    if (!spec.ok()) {
      std::cerr << spec.status().ToString() << "\n";
      return 1;
    }
    double anchor_wall = 0;  // the first depth's wall-clock
    for (uint32_t depth : depths) {
      auto point =
          RunPoint(env, *spec, num_shards, batch_size, depth, queue_capacity,
                   reps, params, total_blocks, pin, check, &metrics);
      metrics.SnapshotEpoch(point_index++);
      if (!point.ok()) {
        std::cerr << name << " depth " << depth << ": "
                  << point.status().ToString() << "\n";
        return 1;
      }
      if (depth == depths.front()) anchor_wall = point->wall_ms;
      const double speedup =
          point->wall_ms > 0 ? anchor_wall / point->wall_ms : 0;
      if (point->checked && !point->deterministic) failures++;
      tbl.AddRow({name, "pipelined", std::to_string(depth),
                  TablePrinter::Num(point->wall_ms, 2),
                  TablePrinter::Num(point->kops_per_sec),
                  TablePrinter::Num(speedup, 2) + "x",
                  TablePrinter::Num(point->lag_ms, 1),
                  TablePrinter::Num(point->parallel_us_per_op),
                  TablePrinter::Num(point->gc_us_per_op),
                  TablePrinter::Num(point->meta_us_per_op),
                  TablePrinter::Num(point->wait_ms, 2),
                  std::to_string(point->p50_us),
                  std::to_string(point->p99_us),
                  std::to_string(point->p999_us),
                  point->checked ? (point->deterministic ? "ok" : "FAIL")
                                 : "-"});
    }
  }
  tbl.Print(std::cout);
  harness::JsonDump json(flags.GetString("json", ""));
  json.Add("exp10_pipeline", tbl);
  json.AddRaw("metrics", metrics.ToJson());
  if (!json.Finish()) return 1;
  if (failures != 0) {
    std::cerr << "\n" << failures
              << " configuration(s) broke virtual-time determinism\n";
    return 1;
  }
  return 0;
}
