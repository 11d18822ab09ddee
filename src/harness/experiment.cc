#include "harness/experiment.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <span>
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

/// The twin's recorder when the rig ran traced into `trace`; else null.
std::unique_ptr<obs::TraceRecorder> TwinRecorder(
    const obs::TraceRecorder* trace) {
  if (trace == nullptr) return nullptr;
  return std::make_unique<obs::TraceRecorder>(trace->num_shards());
}

/// Per-export trace file naming under --trace: index 0 keeps `base`, index
/// k becomes `<stem>.k.<ext>` (benches measure several points per run, each
/// with its own timeline).
std::string PointTracePath(const std::string& base, uint64_t index) {
  if (index == 0) return base;
  char suffix[32];
  std::snprintf(suffix, sizeof(suffix), ".%llu",
                static_cast<unsigned long long>(index));
  const size_t dot = base.rfind('.');
  if (dot == std::string::npos || dot == 0) return base + suffix;
  return base.substr(0, dot) + suffix + base.substr(dot);
}

/// The one timeline exporter: under --trace, writes `rec` (when not null)
/// to the binary's next PointTracePath.
Status ExportTrace(const ExperimentEnv& env, const obs::TraceRecorder* rec) {
  if (env.trace_path.empty() || rec == nullptr) return Status::OK();
  static uint64_t exports = 0;
  return rec->WriteChromeTraceFile(PointTracePath(env.trace_path, exports++));
}

/// The binary's one registry, which Rig::Measure records into.
obs::MetricsRegistry& Registry() {
  static obs::MetricsRegistry registry;
  return registry;
}

/// The one rule turning per-chip clocks read before and after a measured
/// call (equal lengths, chip order) into its ClockAdvance. Each chip's own
/// advance counts, so a chip whose clock started behind still reports its
/// work.
ClockAdvance ClockAdvanceOf(std::span<const uint64_t> before,
                            std::span<const uint64_t> after) {
  ClockAdvance adv;
  for (size_t i = 0; i < after.size(); ++i) {
    const uint64_t delta = after[i] - before[i];
    adv.elapsed_vt_us = std::max(adv.elapsed_vt_us, delta);
    adv.total_work_us += delta;
  }
  return adv;
}

/// The checked calls' one verdict on the rig's `stats` and `cost`: the
/// first difference between the rig and its twin (FirstDivergence), else
/// between their virtual stats (SameVirtualAs). A failed verdict prints
/// `what` and the difference to stderr.
template <typename Stats>
Checked<Stats> Verdict(Stats stats, const Cost& cost, const Twin& rig,
                       const Twin& twin, const Stats& replay,
                       const char* what) {
  Checked<Stats> out;
  out.stats = std::move(stats);
  out.cost = cost;
  if (auto d = FirstDivergence(rig, twin)) {
    out.divergence = d->message;
  } else if (!out.stats.SameVirtualAs(replay)) {
    out.divergence = "virtual stats differ";
  }
  if (!out.deterministic()) {
    std::fprintf(stderr, "replay check FAIL: %s: %s\n", what,
                 out.divergence.c_str());
  }
  return out;
}
}  // namespace

const obs::MetricsRegistry& Metrics() { return Registry(); }

std::vector<std::string> PaperMethodHeader(std::string first) {
  std::vector<std::string> header = {std::move(first)};
  for (const methods::MethodSpec& spec : methods::PaperMethodSet()) {
    header.push_back(spec.ToString());
  }
  return header;
}

uint32_t ExperimentEnv::num_db_pages(uint32_t chips) const {
  if (!(utilization > 0)) return 0;
  flash::FlashGeometry g = flash_cfg.geometry;
  g.num_blocks /= chips;
  return static_cast<uint32_t>(
      utilization *
      static_cast<double>(g.data_pages() - 2 * g.pages_per_block) * chips);
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
  obs::TraceShard* wall = rec != nullptr ? rec->wall_lane() : nullptr;
  if (driver_ != nullptr) driver_->set_wall_trace(wall);
  if (tpcc_ != nullptr) tpcc_->set_wall_trace(wall);
}

Rig::Rig(const ExperimentEnv& env, const methods::MethodSpec& spec,
         const RigSpec& shape, const flash::FlashConfig& chip_cfg)
    : env_(env), spec_(spec), shape_(shape) {
  for (uint32_t i = 0; i < shape.shards; ++i) {
    chips_.push_back(std::make_unique<flash::FlashDevice>(chip_cfg));
  }
  Mount();
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
  tpcc_.reset();
  sharded_ = nullptr;
  store_.reset();
}

Result<Cost> Rig::Measure(FunctionRef<Status()> fn, obs::TraceRecorder* trace) {
  return Measure(fn, trace, [](obs::MetricsRegistry*) {});
}

Result<Cost> Rig::Measure(FunctionRef<Status()> fn, obs::TraceRecorder* trace,
                          FunctionRef<void(obs::MetricsRegistry*)> record) {
  std::vector<uint64_t> before;
  for (const auto& chip : chips_) before.push_back(chip->clock().now_us());
  if (trace == nullptr && !env_.trace_path.empty()) {
    own_trace_ = std::make_unique<obs::TraceRecorder>(chips());
    trace = own_trace_.get();
  }
  if (trace != nullptr) SetTrace(trace);
  using Clock = std::chrono::steady_clock;
  const Clock::time_point t0 = Clock::now();
  const Status st = fn();
  Cost out;
  out.wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  if (trace != nullptr) SetTrace(nullptr);
  FLASHDB_RETURN_IF_ERROR(st);
  std::vector<uint64_t> after;
  for (const auto& chip : chips_) after.push_back(chip->clock().now_us());
  out.advance = ClockAdvanceOf(before, after);
  if (twin_) return out;
  FLASHDB_RETURN_IF_ERROR(ExportTrace(env_, trace));

  obs::MetricsRegistry& reg = Registry();
  reg.ClearValues();
  reg.Set("cost.wall_ms", out.wall_ms);
  reg.Set("cost.elapsed_vt_us",
          static_cast<double>(out.advance.elapsed_vt_us));
  reg.Set("cost.total_work_us", static_cast<double>(out.advance.total_work_us));
  if (trace != nullptr) {
    // The chip lanes only: the wall lane's credit waits vary run to run.
    uint64_t emitted = 0;
    uint64_t dropped = 0;
    for (uint32_t i = 0; i < chips(); ++i) {
      emitted += trace->shard(i)->emitted();
      dropped += trace->shard(i)->dropped();
    }
    reg.Set("trace.emitted", static_cast<double>(emitted));
    reg.Set("trace.dropped", static_cast<double>(dropped));
  }
  record(&reg);
  if (sharded_ != nullptr) {
    obs::ImportShardedStoreStats(&reg, "store", *sharded_);
  }
  reg.SnapshotEpoch();
  return out;
}

Result<Cost> Rig::Remount(bool on_executor) {
  if (on_executor && shape_.flat) {
    return Status::InvalidArgument(
        "a flat rig recovers inline: its store takes no executor");
  }
  Crash();
  Mount();
  std::unique_ptr<ftl::ShardExecutor> executor;
  if (on_executor) executor = std::make_unique<ftl::ShardExecutor>(chips());
  return Measure([&] {
    return sharded_ != nullptr ? sharded_->Recover(executor.get())
                               : store_->Recover();
  });
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
  FLASHDB_RETURN_IF_ERROR(chip_cfg.geometry.Check());
  uint32_t db_pages = env.num_db_pages(shape.shards);
  if (db_pages == 0) {
    char util[32];
    std::snprintf(util, sizeof(util), "%g", env.utilization);
    return Status::InvalidArgument(std::string("--util=") + util +
                                   " leaves the database no page");
  }

  Rig out(env, spec, shape, chip_cfg);
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

Result<PointResult> Rig::Run(uint64_t num_ops, const Execution& ex,
                             obs::TraceRecorder* trace) {
  if (num_ops == 0) {
    return Status::InvalidArgument(
        "--ops=0: a measured run needs at least one operation");
  }
  if (driver_ == nullptr) {
    return Status::InvalidArgument(
        "a TPC-C, crashed or remounted rig has no update driver to measure");
  }
  if (ex.depth == 0 && (ex.threaded || ex.batch != 1)) {
    return Status::InvalidArgument(
        "depth 0 runs the sequential Run() loop, which takes neither "
        "threaded nor a batch other than 1 (got batch " +
        std::to_string(ex.batch) + (ex.threaded ? ", threaded)" : ")"));
  }
  PointResult result;
  result.method = std::string(store_->name());
  workload::Schedule schedule;
  std::unique_ptr<ftl::ShardExecutor> executor;
  if (ex.depth > 0) {
    schedule = driver_->MakeSchedule(num_ops);
    if (ex.threaded) {
      executor = std::make_unique<ftl::ShardExecutor>(
          chips(), ex.depth, PinCores(ex.pin, chips()));
    }
  }
  const auto run = [&] {
    return ex.depth == 0
               ? driver_->Run(num_ops, &result.stats)
               : driver_->RunPipelined(schedule, ex.batch, ex.depth,
                                       executor.get(), &result.stats);
  };
  const auto record = [&](obs::MetricsRegistry* reg) {
    obs::ImportRunStats(reg, "run", result.stats);
    if (executor != nullptr) {
      obs::ImportExecutorStats(reg, "executor", *executor);
    }
  };
  FLASHDB_ASSIGN_OR_RETURN(result.cost, Measure(run, trace, record));
  return result;
}

Result<PointResult> Execute(Rig* rig, uint64_t num_ops, const Execution& ex) {
  return rig->Run(num_ops, ex, nullptr);
}

Result<CheckedRun> ExecuteChecked(Rig* rig, uint64_t num_ops,
                                  const Execution& ex,
                                  flash::FaultInjector* injector,
                                  obs::TraceRecorder* trace) {
  rig->Attach(injector, nullptr);
  FLASHDB_ASSIGN_OR_RETURN(PointResult run, rig->Run(num_ops, ex, trace));
  if (trace == nullptr) trace = rig->own_trace_.get();

  // Run() is the window body at batch 1, so single-op windows replay the
  // sequential loop's very operations.
  Execution mirror = ex;
  mirror.threaded = !ex.threaded;
  if (ex.depth == 0) mirror = {.batch = 1, .depth = 4, .threaded = true};
  FLASHDB_ASSIGN_OR_RETURN(Rig twin,
                           PrepareRig(rig->env_, rig->spec_, rig->shape_));
  twin.twin_ = true;
  twin.Attach(injector, nullptr);
  const std::unique_ptr<obs::TraceRecorder> twin_trace = TwinRecorder(trace);
  FLASHDB_ASSIGN_OR_RETURN(PointResult replay,
                           twin.Run(num_ops, mirror, twin_trace.get()));
  char what[128];
  std::snprintf(what, sizeof(what), "%s, %u chip(s), batch %u depth %u%s",
                run.method.c_str(), rig->chips(), ex.batch, ex.depth,
                ex.threaded ? " threaded" : "");
  return Verdict(std::move(run.stats), run.cost, rig->AsTwin(trace),
                 twin.AsTwin(twin_trace.get()), replay.stats, what);
}

Result<Rig> PrepareTpccRig(const methods::MethodSpec& spec,
                           const workload::TpccDriverOptions& opts,
                           uint32_t shards, uint64_t warmup_tx,
                           const std::string& trace_path, bool on_executor) {
  if (shards == 0) {
    return Status::InvalidArgument("a TPC-C rig needs at least one shard");
  }
  const uint32_t pages_per_shard = workload::TpccDriver::PagesPerShard(
      opts.scale, flash::FlashConfig::Small().geometry.data_size, shards);
  ExperimentEnv env;
  env.trace_path = trace_path;
  Rig out(env, spec, RigSpec{.shards = shards},
          flash::FlashConfig::Small((pages_per_shard * 2) / 64 + 8));
  out.tpcc_opts_ = opts;
  FLASHDB_RETURN_IF_ERROR(
      out.sharded_->Format(shards * pages_per_shard, nullptr, nullptr));
  out.tpcc_ = std::make_unique<workload::TpccDriver>(out.sharded_, opts);
  std::unique_ptr<ftl::ShardExecutor> executor;
  if (on_executor) executor = std::make_unique<ftl::ShardExecutor>(shards);
  FLASHDB_RETURN_IF_ERROR(out.tpcc_->Load(executor.get()));
  if (warmup_tx > 0) {
    FLASHDB_RETURN_IF_ERROR(
        out.tpcc_->Serve(warmup_tx, executor.get(), nullptr));
    out.tpcc_log_ = out.tpcc_->commit_log();
  }
  return out;
}

Result<CheckedServe> ServeChecked(Rig* rig, uint64_t num_txns,
                                  obs::TraceRecorder* trace) {
  workload::TpccDriver* driver = rig->tpcc_.get();
  if (driver == nullptr) {
    return Status::InvalidArgument(
        "an update, crashed or remounted rig has no TPC-C driver to serve");
  }
  ftl::ShardExecutor executor(rig->chips());
  workload::TpccRunStats stats;
  const auto serve = [&] { return driver->Serve(num_txns, &executor, &stats); };
  const auto record = [&](obs::MetricsRegistry* reg) {
    obs::ImportTpccStats(reg, "tpcc", stats);
  };
  FLASHDB_ASSIGN_OR_RETURN(const Cost cost, rig->Measure(serve, trace, record));
  if (trace == nullptr) trace = rig->own_trace_.get();

  FLASHDB_ASSIGN_OR_RETURN(
      Rig twin, PrepareTpccRig(rig->spec_, rig->tpcc_opts_, rig->chips(),
                               /*warmup_tx=*/0, /*trace_path=*/"",
                               /*on_executor=*/false));
  FLASHDB_RETURN_IF_ERROR(twin.tpcc_->Replay(rig->tpcc_log_, nullptr));
  const std::unique_ptr<obs::TraceRecorder> twin_trace = TwinRecorder(trace);
  twin.SetTrace(twin_trace.get());
  const workload::TpccCommitLog& served = driver->commit_log();
  workload::TpccRunStats replay;
  FLASHDB_RETURN_IF_ERROR(twin.tpcc_->Replay(served, &replay));
  rig->tpcc_log_.insert(rig->tpcc_log_.end(), served.begin(), served.end());
  char what[128];
  std::snprintf(what, sizeof(what), "TPC-C %s, %u chip(s), %u client(s)",
                std::string(rig->store()->name()).c_str(), rig->chips(),
                rig->tpcc_opts_.num_clients);
  return Verdict(std::move(stats), cost, rig->AsTwin(trace),
                 twin.AsTwin(twin_trace.get()), replay, what);
}

Result<PointResult> RunWorkloadPoint(const ExperimentEnv& env,
                                     const methods::MethodSpec& spec,
                                     const workload::WorkloadParams& params) {
  const RigSpec flat{.flat = true, .params = params};
  FLASHDB_ASSIGN_OR_RETURN(Rig rig, PrepareRig(env, spec, flat));
  return Execute(&rig, env.measure_ops, Execution{});
}

}  // namespace flashdb::harness
