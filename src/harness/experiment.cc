#include "harness/experiment.h"

#include <cstdio>
#include <utility>
#include <vector>

#include "ftl/shard_executor.h"
#include "ftl/sharded_store.h"
#include "obs/trace_recorder.h"

namespace flashdb::harness {

namespace {
/// Per-chip (virtual clock, erase count) pairs of a flat or sharded store.
std::vector<std::pair<uint64_t, uint64_t>> ChipState(PageStore* store) {
  auto* sharded = dynamic_cast<ftl::ShardedStore*>(store);
  if (sharded == nullptr) {
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
}  // namespace

bool SameVirtualRun(PageStore* a, const workload::RunStats& sa, PageStore* b,
                    const workload::RunStats& sb) {
  return ChipState(a) == ChipState(b) && sa.SameVirtualAs(sb);
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
  env.pipeline_depth =
      static_cast<uint32_t>(flags.GetInt("pipeline", 0));
  env.trace_path = flags.GetString("trace", "");
  return env;
}

Result<PointResult> RunWorkloadPoint(const ExperimentEnv& env,
                                     const methods::MethodSpec& spec,
                                     const workload::WorkloadParams& params) {
  flash::FlashDevice dev(env.flash_cfg);
  std::unique_ptr<PageStore> store = methods::CreateStore(&dev, spec);
  workload::WorkloadParams wp = params;
  wp.seed = env.seed;
  workload::UpdateDriver driver(store.get(), wp);
  FLASHDB_RETURN_IF_ERROR(driver.LoadDatabase(env.num_db_pages()));
  const uint64_t warmup_cap = env.warmup_max_ops != 0
                                  ? env.warmup_max_ops
                                  : 20ULL * env.num_db_pages();
  FLASHDB_RETURN_IF_ERROR(
      driver.Warmup(env.warmup_erases_per_block, warmup_cap));
  // Attach tracing after warmup so the timeline covers the measured run
  // only. Recording never perturbs virtual time (null-sink contract).
  std::unique_ptr<obs::TraceRecorder> recorder;
  if (!env.trace_path.empty()) {
    recorder = std::make_unique<obs::TraceRecorder>(1);
    dev.set_trace(recorder->shard(0));
    driver.set_wall_trace(recorder->wall_lane());
  }
  PointResult result;
  result.method = std::string(store->name());
  if (env.pipeline_depth == 0) {
    FLASHDB_RETURN_IF_ERROR(driver.Run(env.measure_ops, &result.stats));
  } else {
    // Threaded single-chip mode: window size 1 makes scheduled execution
    // degenerate to the sequential op sequence (every read from flash,
    // every write-back flushed immediately), so the measured virtual time
    // is bit-identical to the Run() path above for the same flags.
    const workload::Schedule schedule = driver.MakeSchedule(env.measure_ops);
    ftl::ShardExecutor executor(1);
    FLASHDB_RETURN_IF_ERROR(driver.RunPipelined(
        schedule, /*batch_size=*/1, env.pipeline_depth, &executor,
        &result.stats));
  }
  if (recorder != nullptr) {
    static uint64_t point_index = 0;
    FLASHDB_RETURN_IF_ERROR(recorder->WriteChromeTraceFile(
        PointTracePath(env.trace_path, point_index++)));
  }
  return result;
}

}  // namespace flashdb::harness
