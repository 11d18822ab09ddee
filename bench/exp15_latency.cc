// Experiment 15 (beyond the paper): per-operation latency tails.
//
// The paper (and exp1-exp14) reports mean cost per update; a serving system
// lives and dies by its tail, where GC, wear-leveling migration, journal
// writes, and scrub stalls concentrate. This bench sweeps method x run mode
// x pipeline depth x core pinning x background work and reports the
// virtual-time latency distribution recorded by the driver
// (WorkloadParams::record_latency): p50/p99/p999/mean/max in microseconds,
// plus the worst single operation and where its time went (gc/meta).
//
// Row layout per method ({OPU, PDL(256B)}):
//   * seq   shards=1          -- the plain sequential Run() loop;
//   * pipe  shards=1 K=1,4    -- the same ops through the single-worker
//     pipelined mode (window size 1). These three rows' virtual columns are
//     identical by construction: single-op windows read every page from
//     flash and flush immediately, so scheduled execution degenerates to
//     the sequential sequence. The table shows that equality directly.
//   * pipe  shards=4 K=4      -- multi-chip pipelining (batch --batch);
//   * ... pin=on              -- same point with workers pinned to cores
//     (wall-clock knob only: virtual columns must equal the unpinned row);
//   * ... extra=wear          -- wear-leveling rebalancer on (epoch --epoch),
//     migrations at epoch boundaries;
//   * ... extra=scrub         -- bit-error injector (--ber) plus background
//     scrub at epoch boundaries. The injector's error model is a pure hash
//     with no RNG state, so one injector serves the run and its replay.
//
// Every row carries one cross-mode check (harness::ExecuteChecked): an
// identically prepared rig replays the same operations through the *other*
// executor (sequential rows via single-worker threaded RunPipelined;
// pipelined rows inline), and the per-chip clocks and erase counts, every
// virtual RunStats field -- whole latency histogram and worst-op sample
// included -- and the canonical event trace must match bit-for-bit. The
// determinism and trace columns both print that one verdict. The perf gate
// requires `ok` in every row and compares every virtual column exactly with
// the baseline; wall_ms is machine-relative and stays warn-only.

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "flash/fault_injector.h"
#include "harness/experiment.h"
#include "harness/table_printer.h"
#include "obs/metrics_import.h"
#include "obs/metrics_registry.h"
#include "obs/trace_recorder.h"

using namespace flashdb;
using harness::TablePrinter;

namespace {

/// One swept cell.
struct Config {
  const char* mode;   // "seq" or "pipe"
  uint32_t shards;
  uint32_t depth;     // pipelined in-flight windows (0 = sequential)
  bool pin;
  const char* extra;  // "-", "wear", "scrub"
};

/// Runs one cell in its own mode into `recorder`, checked against a replay
/// through the other executor on an identically prepared rig: chip state,
/// every virtual RunStats field and the canonical event trace must match.
/// With a --trace path, exports the run's timeline as Chrome trace JSON.
Result<harness::CheckedRun> RunPoint(harness::ExperimentEnv env,
                                     const methods::MethodSpec& spec,
                                     const Config& cfg, uint32_t batch_size,
                                     uint64_t epoch_ops, double hot_pct,
                                     uint32_t disturb_limit, double ber,
                                     obs::TraceRecorder* recorder,
                                     uint64_t point_index) {
  const bool scrubbing = std::string(cfg.extra) == "scrub";
  const bool leveling = std::string(cfg.extra) == "wear";
  if (scrubbing) env.flash_cfg.read_disturb_limit = disturb_limit;
  // The flat rig exercises the "no ShardedStore required" pipelined path.
  harness::RigSpec rig_spec{.shards = cfg.shards, .flat = cfg.shards == 1};
  rig_spec.params.record_latency = true;
  if (leveling) {
    rig_spec.leveling = ftl::WearLevelConfig{};
    rig_spec.params.rebalance_epoch_ops = epoch_ops;
    // Gives the rebalancer something to level.
    rig_spec.params.hot_shard_pct = hot_pct;
  }
  if (scrubbing) {
    rig_spec.params.rebalance_epoch_ops = epoch_ops;
    rig_spec.params.scrub = true;
  }
  // The error model is a pure hash of the read's address and attempt, so
  // one injector serves the run and its replay.
  flash::BitErrorInjector::Params inj_params;
  inj_params.page_error_rate = ber;
  flash::BitErrorInjector injector(inj_params);

  // Single-op windows make the shards=1 rows bit-identical to the
  // sequential Run() loop; multi-chip rows use the windowed batch size.
  // The sequential row's replay runs the single-worker pipelined mode --
  // the cross-mode proof the flat path exists for -- and pipelined rows
  // replay inline.
  const uint32_t batch = cfg.shards == 1 ? 1 : batch_size;
  const harness::Execution primary{.batch = batch,
                                   .depth = cfg.depth,
                                   .threaded = true,
                                   .pin = cfg.pin};

  FLASHDB_ASSIGN_OR_RETURN(harness::Rig rig,
                           harness::PrepareRig(env, spec, rig_spec));
  // The measured operations are drawn only now, after warm-up, so a
  // sequential row's Run() and its scheduled replay execute the very same
  // operations.
  FLASHDB_ASSIGN_OR_RETURN(
      harness::CheckedRun point,
      harness::ExecuteChecked(&rig, env.measure_ops, primary,
                              /*metrics=*/nullptr,
                              scrubbing ? &injector : nullptr, recorder));
  if (!env.trace_path.empty()) {
    FLASHDB_RETURN_IF_ERROR(recorder->WriteChromeTraceFile(
        harness::PointTracePath(env.trace_path, point_index)));
  }
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  harness::Flags flags(argc, argv);
  harness::ExperimentEnv env = harness::ExperimentEnv::FromFlags(flags);
  const uint32_t total_blocks = env.flash_cfg.geometry.num_blocks;
  const uint32_t num_shards = static_cast<uint32_t>(flags.GetInt("shards", 4));
  const uint32_t batch_size = static_cast<uint32_t>(flags.GetInt("batch", 8));
  const uint32_t depth = static_cast<uint32_t>(flags.GetInt("depth", 4));
  const uint64_t epoch_ops =
      static_cast<uint64_t>(flags.GetInt("epoch", 500));
  const double hot_pct = flags.GetDouble("hot", 60.0);
  const double ber = flags.GetDouble("ber", 0.01);
  const uint32_t disturb_limit =
      static_cast<uint32_t>(flags.GetInt("disturb-limit", 48));

  std::printf(
      "Experiment 15: per-operation latency tails, %u blocks total, "
      "%llu ops\n(virtual-time percentiles in us; seq and shards=1 pipe "
      "rows are bit-identical by\n construction; pin rows may only move "
      "wall_ms; extra=wear/scrub add epoch work\n every %llu ops)\n\n",
      total_blocks, static_cast<unsigned long long>(env.measure_ops),
      static_cast<unsigned long long>(epoch_ops));

  const std::vector<Config> configs = {
      {"seq", 1, 0, false, "-"},
      {"pipe", 1, 1, false, "-"},
      {"pipe", 1, 4, false, "-"},
      {"pipe", num_shards, depth, false, "-"},
      {"pipe", num_shards, depth, true, "-"},
      {"pipe", num_shards, depth, false, "wear"},
      {"pipe", num_shards, depth, false, "scrub"},
  };

  const std::vector<std::string> method_names = {"OPU", "PDL(256B)"};
  TablePrinter tbl({"Method", "mode", "shards", "K", "pin", "extra",
                    "p50 us", "p99 us", "p999 us", "mean us", "max us",
                    "worst us", "w_gc us", "w_meta us", "wall_ms",
                    "determinism", "trace"});
  obs::MetricsRegistry metrics;
  int failures = 0;
  uint64_t point_index = 0;
  for (const std::string& name : method_names) {
    auto spec = methods::ParseMethodSpec(name);
    if (!spec.ok()) {
      std::cerr << spec.status().ToString() << "\n";
      return 1;
    }
    for (const Config& cfg : configs) {
      obs::TraceRecorder recorder(cfg.shards);
      auto point = RunPoint(env, *spec, cfg, batch_size, epoch_ops, hot_pct,
                            disturb_limit, ber, &recorder, point_index);
      if (!point.ok()) {
        std::cerr << name << " " << cfg.mode << " shards=" << cfg.shards
                  << " K=" << cfg.depth << " extra=" << cfg.extra << ": "
                  << point.status().ToString() << "\n";
        return 1;
      }
      // The one verdict covers the trace too, so both columns read it.
      const char* verdict = point->deterministic ? "ok" : "FAIL";
      if (!point->deterministic) failures++;
      const workload::RunStats& s = point->run.stats;
      const workload::LatencyHistogram& h = s.latency;
      tbl.AddRow({name, cfg.mode, std::to_string(cfg.shards),
                  cfg.depth == 0 ? "-" : std::to_string(cfg.depth),
                  cfg.pin ? "on" : "off", cfg.extra,
                  std::to_string(h.p50()), std::to_string(h.p99()),
                  std::to_string(h.p999()), TablePrinter::Num(h.mean(), 1),
                  std::to_string(h.max()),
                  std::to_string(s.worst_op.total_us),
                  std::to_string(s.worst_op.gc_us),
                  std::to_string(s.worst_op.meta_us),
                  TablePrinter::Num(point->run.wall_ms, 2), verdict, verdict});
      // One epoch per measured row: the registry's time series doubles as a
      // machine-readable form of the whole sweep.
      obs::ImportRunStats(&metrics, "run", s);
      metrics.Set("trace.emitted",
                  static_cast<double>(recorder.total_emitted()),
                  obs::MetricsRegistry::Kind::kCounter);
      metrics.Set("trace.dropped",
                  static_cast<double>(recorder.total_dropped()),
                  obs::MetricsRegistry::Kind::kCounter);
      metrics.SnapshotEpoch(point_index);
      ++point_index;
    }
  }
  tbl.Print(std::cout);
  harness::JsonDump json(flags.GetString("json", ""));
  json.Add("exp15_latency", tbl);
  json.AddRaw("metrics", metrics.ToJson());
  if (!json.Finish()) return 1;
  if (failures != 0) {
    std::cerr << "\n" << failures
              << " configuration(s) broke latency or trace determinism\n";
    return 1;
  }
  return 0;
}
