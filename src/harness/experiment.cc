#include "harness/experiment.h"

#include <chrono>
#include <cstdio>
#include <utility>
#include <vector>

#include "common/cpu_affinity.h"
#include "flash/fault_injector.h"
#include "ftl/shard_executor.h"
#include "ftl/sharded_store.h"
#include "obs/metrics_import.h"
#include "obs/metrics_registry.h"
#include "obs/trace_recorder.h"

namespace flashdb::harness {

namespace {
/// Per-chip (virtual clock, erase count) pairs of a flat or sharded rig.
std::vector<std::pair<uint64_t, uint64_t>> ChipState(Rig* rig) {
  ftl::ShardedStore* sharded = rig->sharded();
  if (sharded == nullptr) {
    PageStore* store = rig->store();
    return {{store->device()->clock().now_us(), store->total_erases()}};
  }
  std::vector<std::pair<uint64_t, uint64_t>> chips;
  const std::vector<uint64_t> clocks = sharded->shard_clocks();
  const std::vector<uint64_t> erases = sharded->shard_erases();
  for (size_t i = 0; i < clocks.size(); ++i) {
    chips.emplace_back(clocks[i], erases[i]);
  }
  return chips;
}

/// Worker i -> core i mod the available cores; empty (unpinned) when not
/// requested or unsupported.
std::vector<int> PinCores(bool pin, uint32_t workers) {
  std::vector<int> cores;
  if (!pin || !CpuPinningSupported()) return cores;
  const uint32_t available = NumAvailableCores();
  for (uint32_t i = 0; i < workers; ++i) {
    cores.push_back(static_cast<int>(i % available));
  }
  return cores;
}
}  // namespace

uint32_t ExperimentEnv::num_db_pages(uint32_t chips) const {
  flash::FlashGeometry g = flash_cfg.geometry;
  g.num_blocks /= chips;
  return static_cast<uint32_t>(
      utilization *
      static_cast<double>(g.total_pages() - 2 * g.pages_per_block) * chips);
}

std::string PointTracePath(const std::string& base, uint64_t index) {
  if (index == 0) return base;
  char suffix[32];
  std::snprintf(suffix, sizeof(suffix), ".%llu",
                static_cast<unsigned long long>(index));
  const size_t dot = base.rfind('.');
  if (dot == std::string::npos || dot == 0) return base + suffix;
  return base.substr(0, dot) + suffix + base.substr(dot);
}

ExperimentEnv ExperimentEnv::FromFlags(const Flags& flags) {
  ExperimentEnv env;
  env.flash_cfg = flash::FlashConfig::Small(
      static_cast<uint32_t>(flags.GetInt("blocks", 128)));
  env.flash_cfg.geometry.data_size =
      static_cast<uint32_t>(flags.GetInt("page-size", 2048));
  env.flash_cfg.timing.read_us =
      static_cast<uint32_t>(flags.GetInt("tread", 110));
  env.flash_cfg.timing.write_us =
      static_cast<uint32_t>(flags.GetInt("twrite", 1010));
  env.flash_cfg.timing.erase_us =
      static_cast<uint32_t>(flags.GetInt("terase", 1500));
  env.flash_cfg.geometry.dies_per_chip =
      static_cast<uint32_t>(flags.GetInt("dies", 1));
  env.flash_cfg.geometry.planes_per_die =
      static_cast<uint32_t>(flags.GetInt("planes", 1));
  env.utilization = flags.GetDouble("util", 0.5);
  env.warmup_erases_per_block = flags.GetDouble("warmup-epb", 10.0);
  env.warmup_max_ops =
      static_cast<uint64_t>(flags.GetInt("warmup-max", 0));
  env.measure_ops = static_cast<uint64_t>(flags.GetInt("ops", 4000));
  env.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  env.trace_path = flags.GetString("trace", "");
  return env;
}

uint32_t Rig::chips() const {
  return sharded_ != nullptr ? sharded_->num_shards() : 1;
}

flash::FlashDevice* Rig::chip(uint32_t i) {
  return sharded_ != nullptr ? sharded_->shard_device(i) : flat_chip_.get();
}

void Rig::Attach(flash::FaultInjector* injector, obs::TraceRecorder* rec) {
  for (uint32_t i = 0; i < chips(); ++i) {
    chip(i)->set_fault_injector(injector);
    if (rec != nullptr) chip(i)->set_trace(rec->shard(i));
  }
  if (rec != nullptr) driver_->set_wall_trace(rec->wall_lane());
}

Result<Rig> PrepareRig(const ExperimentEnv& env,
                       const methods::MethodSpec& spec, const RigSpec& shape) {
  if (shape.flat && shape.leveling.has_value()) {
    return Status::InvalidArgument(
        "wear leveling needs a sharded rig: a flat rig has no ShardRouter");
  }
  // Below ~8 blocks a chip cannot sustain GC at 50% utilization (the
  // reserve alone eats most of it); reject instead of thrashing.
  const uint32_t blocks = env.flash_cfg.geometry.num_blocks;
  if (shape.shards == 0 || blocks / shape.shards < 8) {
    return Status::InvalidArgument(
        "--blocks=" + std::to_string(blocks) + " over " +
        std::to_string(shape.shards) + " chip(s): need >= 8 blocks per chip");
  }
  flash::FlashConfig chip_cfg = env.flash_cfg;
  chip_cfg.geometry.num_blocks = blocks / shape.shards;

  Rig out;
  out.env_ = env;
  out.spec_ = spec;
  out.shape_ = shape;
  if (shape.flat) {
    out.flat_chip_ = std::make_unique<flash::FlashDevice>(chip_cfg);
    out.store_ = methods::CreateStore(out.flat_chip_.get(), spec);
  } else {
    std::unique_ptr<ftl::ShardedStore> sharded =
        methods::CreateShardedStore(chip_cfg, shape.shards, spec);
    out.sharded_ = sharded.get();
    out.store_ = std::move(sharded);
    if (shape.leveling.has_value()) {
      FLASHDB_RETURN_IF_ERROR(
          out.sharded_->router()->EnableRebalancing(*shape.leveling));
    }
  }
  workload::WorkloadParams wp = shape.params;
  wp.seed = env.seed;
  out.driver_ = std::make_unique<workload::UpdateDriver>(out.store_.get(), wp);
  const uint32_t db_pages = env.num_db_pages(shape.shards);
  FLASHDB_RETURN_IF_ERROR(out.driver_->LoadDatabase(db_pages));
  const uint64_t warmup_cap =
      env.warmup_max_ops != 0 ? env.warmup_max_ops : 20ULL * db_pages;
  FLASHDB_RETURN_IF_ERROR(
      out.driver_->Warmup(env.warmup_erases_per_block, warmup_cap));
  return out;
}

Result<PointResult> Execute(Rig* rig, uint64_t num_ops, const Execution& ex,
                            obs::MetricsRegistry* metrics) {
  if (num_ops == 0) {
    return Status::InvalidArgument(
        "--ops=0: a measured run needs at least one operation");
  }
  using Clock = std::chrono::steady_clock;
  workload::UpdateDriver* driver = rig->driver_.get();
  PointResult result;
  result.method = std::string(rig->store()->name());
  std::unique_ptr<ftl::ShardExecutor> executor;
  Clock::time_point t0;
  if (ex.depth == 0) {
    t0 = Clock::now();
    FLASHDB_RETURN_IF_ERROR(driver->Run(num_ops, &result.stats));
  } else {
    const workload::Schedule schedule = driver->MakeSchedule(num_ops);
    if (ex.threaded) {
      executor = std::make_unique<ftl::ShardExecutor>(
          rig->chips(), ex.depth, PinCores(ex.pin, rig->chips()));
    }
    t0 = Clock::now();
    FLASHDB_RETURN_IF_ERROR(driver->RunPipelined(
        schedule, ex.batch, ex.depth, executor.get(), &result.stats));
  }
  result.wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  if (metrics != nullptr) {
    obs::ImportRunStats(metrics, "run", result.stats);
    if (executor != nullptr) {
      obs::ImportExecutorStats(metrics, "executor", *executor);
    }
  }
  return result;
}

Result<CheckedRun> ExecuteChecked(Rig* rig, uint64_t num_ops,
                                  const Execution& ex,
                                  obs::MetricsRegistry* metrics,
                                  flash::FaultInjector* injector,
                                  obs::TraceRecorder* trace) {
  rig->Attach(injector, trace);
  CheckedRun out;
  FLASHDB_ASSIGN_OR_RETURN(out.run, Execute(rig, num_ops, ex, metrics));

  // Run() is the window body at batch 1, so single-op windows replay the
  // sequential loop's very operations.
  Execution mirror = ex;
  mirror.threaded = !ex.threaded;
  if (ex.depth == 0) mirror = {.batch = 1, .depth = 4, .threaded = true};
  FLASHDB_ASSIGN_OR_RETURN(Rig twin,
                           PrepareRig(rig->env_, rig->spec_, rig->shape_));
  std::unique_ptr<obs::TraceRecorder> twin_trace;
  if (trace != nullptr) {
    twin_trace = std::make_unique<obs::TraceRecorder>(trace->num_shards());
  }
  twin.Attach(injector, twin_trace.get());
  FLASHDB_ASSIGN_OR_RETURN(PointResult replay,
                           Execute(&twin, num_ops, mirror));
  out.deterministic =
      ChipState(rig) == ChipState(&twin) &&
      out.run.stats.SameVirtualAs(replay.stats) &&
      (trace == nullptr ||
       trace->CanonicalBytes() == twin_trace->CanonicalBytes());
  return out;
}

Result<PointResult> RunWorkloadPoint(const ExperimentEnv& env,
                                     const methods::MethodSpec& spec,
                                     const workload::WorkloadParams& params) {
  const RigSpec flat{.flat = true, .params = params};
  FLASHDB_ASSIGN_OR_RETURN(Rig rig, PrepareRig(env, spec, flat));
  // Attach tracing after warmup so the timeline covers the measured run
  // only. Recording never perturbs virtual time (null-sink contract).
  std::unique_ptr<obs::TraceRecorder> recorder;
  if (!env.trace_path.empty()) {
    recorder = std::make_unique<obs::TraceRecorder>(1);
    rig.Attach(nullptr, recorder.get());
  }
  FLASHDB_ASSIGN_OR_RETURN(PointResult result,
                           Execute(&rig, env.measure_ops, Execution{}));
  if (recorder != nullptr) {
    static uint64_t point_index = 0;
    FLASHDB_RETURN_IF_ERROR(recorder->WriteChromeTraceFile(
        PointTracePath(env.trace_path, point_index++)));
  }
  return result;
}

}  // namespace flashdb::harness
