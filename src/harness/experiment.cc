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

/// Under --trace, a recorder with `chips` chip lanes; null otherwise.
std::unique_ptr<obs::TraceRecorder> RecorderIfTraced(const ExperimentEnv& env,
                                                     uint32_t chips) {
  if (env.trace_path.empty()) return nullptr;
  return std::make_unique<obs::TraceRecorder>(chips);
}

/// The one timeline exporter: under --trace, writes `rec` (when not null)
/// to the binary's next PointTracePath.
Status ExportTrace(const ExperimentEnv& env, const obs::TraceRecorder* rec) {
  if (env.trace_path.empty() || rec == nullptr) return Status::OK();
  static uint64_t exports = 0;
  return rec->WriteChromeTraceFile(PointTracePath(env.trace_path, exports++));
}
}  // namespace

uint32_t ExperimentEnv::num_db_pages(uint32_t chips) const {
  flash::FlashGeometry g = flash_cfg.geometry;
  g.num_blocks /= chips;
  return static_cast<uint32_t>(
      utilization *
      static_cast<double>(g.data_pages() - 2 * g.pages_per_block) * chips);
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

Twin Rig::AsTwin(const obs::TraceRecorder* trace) const {
  Twin twin{.trace = trace};
  for (const auto& chip : chips_) twin.chips.push_back(chip.get());
  return twin;
}

void Rig::Attach(flash::FaultInjector* injector, obs::TraceRecorder* rec) {
  for (const auto& chip : chips_) chip->set_fault_injector(injector);
  SetTrace(rec);
}

void Rig::SetTrace(obs::TraceRecorder* rec) {
  for (uint32_t i = 0; i < chips(); ++i) {
    chips_[i]->set_trace(rec != nullptr ? rec->shard(i) : nullptr);
  }
  if (driver_ != nullptr) {
    driver_->set_wall_trace(rec != nullptr ? rec->wall_lane() : nullptr);
  }
}

void Rig::Mount() {
  if (shape_.flat) {
    store_ = methods::CreateStore(chips_[0].get(), spec_);
    return;
  }
  std::vector<flash::FlashDevice*> chips;
  for (const auto& chip : chips_) chips.push_back(chip.get());
  std::unique_ptr<ftl::ShardedStore> sharded =
      methods::CreateShardedStoreOverDevices(chips, spec_);
  sharded_ = sharded.get();
  store_ = std::move(sharded);
}

void Rig::Crash() {
  driver_.reset();
  sharded_ = nullptr;
  store_.reset();
}

Result<Rig::Recovery> Rig::Remount(bool on_executor) {
  if (on_executor && shape_.flat) {
    return Status::InvalidArgument(
        "a flat rig recovers inline: its store takes no executor");
  }
  Crash();
  Mount();
  std::vector<uint64_t> before;
  for (const auto& chip : chips_) before.push_back(chip->clock().now_us());
  const std::unique_ptr<obs::TraceRecorder> recorder =
      RecorderIfTraced(env_, chips());
  if (recorder != nullptr) SetTrace(recorder.get());
  std::unique_ptr<ftl::ShardExecutor> executor;
  if (on_executor) executor = std::make_unique<ftl::ShardExecutor>(chips());
  using Clock = std::chrono::steady_clock;
  const Clock::time_point t0 = Clock::now();
  const Status st = sharded_ != nullptr ? sharded_->Recover(executor.get())
                                        : store_->Recover();
  Recovery out;
  out.wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  if (recorder != nullptr) SetTrace(nullptr);
  FLASHDB_RETURN_IF_ERROR(st);
  std::vector<uint64_t> after;
  for (const auto& chip : chips_) after.push_back(chip->clock().now_us());
  out.advance = workload::ClockAdvanceOf(before, after);
  FLASHDB_RETURN_IF_ERROR(ExportTrace(env_, recorder.get()));
  return out;
}

Result<Rig> PrepareRig(const ExperimentEnv& env,
                       const methods::MethodSpec& spec, const RigSpec& shape) {
  if (shape.flat && shape.leveling.has_value()) {
    return Status::InvalidArgument(
        "wear leveling needs a sharded rig: a flat rig has no ShardRouter");
  }
  // Below ~8 data blocks a chip cannot sustain GC at 50% utilization (the
  // reserve alone eats most of it); reject instead of thrashing.
  const uint32_t blocks = env.flash_cfg.geometry.num_blocks;
  const uint32_t meta_blocks = env.flash_cfg.geometry.meta_blocks;
  if (shape.shards == 0 || blocks / shape.shards < meta_blocks + 8) {
    return Status::InvalidArgument(
        "--blocks=" + std::to_string(blocks) + " over " +
        std::to_string(shape.shards) + " chip(s): need >= 8 data blocks " +
        "per chip beside its " + std::to_string(meta_blocks) +
        " meta block(s)");
  }
  flash::FlashConfig chip_cfg = env.flash_cfg;
  chip_cfg.geometry.num_blocks = blocks / shape.shards;

  Rig out;
  out.env_ = env;
  out.spec_ = spec;
  out.shape_ = shape;
  for (uint32_t i = 0; i < shape.shards; ++i) {
    out.chips_.push_back(std::make_unique<flash::FlashDevice>(chip_cfg));
  }
  out.Mount();
  uint32_t db_pages = env.num_db_pages(shape.shards);
  if (shape.leveling.has_value()) {
    ftl::ShardRouter* router = out.sharded_->router();
    FLASHDB_RETURN_IF_ERROR(router->EnableRebalancing(*shape.leveling));
    db_pages -= db_pages % router->num_buckets();
  }
  workload::WorkloadParams wp = shape.params;
  wp.seed = env.seed;
  out.driver_ = std::make_unique<workload::UpdateDriver>(out.store_.get(), wp);
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
  workload::UpdateDriver* driver = rig->driver_.get();
  if (driver == nullptr) {
    return Status::InvalidArgument(
        "a crashed or remounted rig has no driver to measure");
  }
  using Clock = std::chrono::steady_clock;
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
  std::unique_ptr<obs::TraceRecorder> own_trace;
  if (trace == nullptr) {
    own_trace = RecorderIfTraced(rig->env_, rig->chips());
    trace = own_trace.get();
  }
  rig->Attach(injector, trace);
  Result<PointResult> run = Execute(rig, num_ops, ex, metrics);
  if (own_trace != nullptr) rig->SetTrace(nullptr);
  CheckedRun out;
  FLASHDB_ASSIGN_OR_RETURN(out.run, std::move(run));
  FLASHDB_RETURN_IF_ERROR(ExportTrace(rig->env_, trace));

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
  if (auto d = FirstDivergence(rig->AsTwin(trace),
                               twin.AsTwin(twin_trace.get()))) {
    out.divergence = d->message;
  } else if (!out.run.stats.SameVirtualAs(replay.stats)) {
    out.divergence = "virtual RunStats differ";
  }
  if (!out.deterministic()) {
    std::fprintf(stderr,
                 "replay check FAIL: %s, %u chip(s), batch %u depth %u%s: "
                 "%s\n",
                 out.run.method.c_str(), rig->chips(), ex.batch, ex.depth,
                 ex.threaded ? " threaded" : "", out.divergence.c_str());
  }
  return out;
}

void TpccRig::Attach(obs::TraceRecorder* rec) {
  for (uint32_t i = 0; i < store->num_shards(); ++i) {
    store->shard_device(i)->set_trace(rec->shard(i));
  }
  driver->set_wall_trace(rec->wall_lane());
}

Result<TpccRig> PrepareTpccRig(const methods::MethodSpec& spec,
                               const workload::TpccDriverOptions& opts,
                               uint32_t shards) {
  const uint32_t page_size = 2048;  // FlashConfig::Small geometry
  const uint32_t pages_per_shard =
      workload::TpccDriver::PagesPerShard(opts.scale, page_size, shards);
  const uint32_t blocks_per_shard = (pages_per_shard * 2) / 64 + 8;
  TpccRig rig;
  rig.store = methods::CreateShardedStore(
      flash::FlashConfig::Small(blocks_per_shard), shards, spec);
  FLASHDB_RETURN_IF_ERROR(
      rig.store->Format(shards * pages_per_shard, nullptr, nullptr));
  rig.driver = std::make_unique<workload::TpccDriver>(rig.store.get(), opts);
  return rig;
}

Result<PointResult> RunWorkloadPoint(const ExperimentEnv& env,
                                     const methods::MethodSpec& spec,
                                     const workload::WorkloadParams& params) {
  const RigSpec flat{.flat = true, .params = params};
  FLASHDB_ASSIGN_OR_RETURN(Rig rig, PrepareRig(env, spec, flat));
  // Attach tracing after warmup so the timeline covers the measured run
  // only. Recording never perturbs virtual time (null-sink contract).
  const std::unique_ptr<obs::TraceRecorder> recorder =
      RecorderIfTraced(env, 1);
  rig.Attach(nullptr, recorder.get());
  FLASHDB_ASSIGN_OR_RETURN(PointResult result,
                           Execute(&rig, env.measure_ops, Execution{}));
  FLASHDB_RETURN_IF_ERROR(ExportTrace(env, recorder.get()));
  return result;
}

}  // namespace flashdb::harness
