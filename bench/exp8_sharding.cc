// Experiment 8 (beyond the paper): multi-chip scaling with the ShardedStore.
//
// A fixed-size database and a fixed total flash capacity (--blocks) are
// striped across S chips, S in {1, 2, 4, 8}, for the paper's best two
// methods (PDL(256B) and OPU). Two virtual-time figures are reported per
// operation:
//   * total  -- summed device busy time across chips (the work done); flat
//               across S up to GC boundary effects.
//   * parallel -- the max of the per-chip clocks (elapsed time with chips
//               operating concurrently); this is what an I/O-parallel driver
//               would observe, and it should fall roughly as 1/S under the
//               uniform workload.
//
// Expected shape: near-linear parallel speedup for both methods, with PDL
// keeping its absolute advantage at every shard count.

#include <cstdio>
#include <iostream>

#include "harness/experiment.h"
#include "harness/table_printer.h"

using namespace flashdb;
using harness::TablePrinter;

namespace {

struct ShardPoint {
  double total_us_per_op = 0;
  double parallel_us_per_op = 0;
};

Result<ShardPoint> RunShardedPoint(const harness::ExperimentEnv& env,
                                   const methods::MethodSpec& spec,
                                   uint32_t num_shards,
                                   const workload::WorkloadParams& params) {
  // The chip capacity splits evenly and the database size tracks the usable
  // total, so utilization stays constant across shard counts.
  const harness::RigSpec rig_spec{.shards = num_shards, .params = params};
  FLASHDB_ASSIGN_OR_RETURN(harness::Rig rig,
                           harness::PrepareRig(env, spec, rig_spec));
  const ftl::ShardedStore* store = rig.sharded();
  const uint64_t total0 = store->total_work_us();
  const uint64_t parallel0 = store->parallel_time_us();
  FLASHDB_RETURN_IF_ERROR(
      harness::Execute(&rig, env.measure_ops, harness::Execution{}).status());
  ShardPoint point;
  point.total_us_per_op =
      static_cast<double>(store->total_work_us() - total0) /
      static_cast<double>(env.measure_ops);
  point.parallel_us_per_op =
      static_cast<double>(store->parallel_time_us() - parallel0) /
      static_cast<double>(env.measure_ops);
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

  workload::WorkloadParams params;
  params.pct_changed_by_one_op = flags.GetDouble("changed", 2.0);
  params.updates_till_write =
      static_cast<uint32_t>(flags.GetInt("updates", 1));

  std::printf(
      "Experiment 8: multi-chip scaling, %u blocks total striped over S "
      "shards\n(overall us/op; parallel = max-of-chips elapsed, total = "
      "summed work)\n\n",
      total_blocks);

  const std::vector<std::string> method_names = {"PDL(256B)", "OPU"};
  TablePrinter tbl({"Shards", "PDL total", "PDL parallel", "PDL speedup",
                    "OPU total", "OPU parallel", "OPU speedup"});
  std::vector<double> base_parallel(method_names.size(), 0);
  for (uint32_t shards : {1u, 2u, 4u, 8u}) {
    std::vector<std::string> row = {std::to_string(shards)};
    for (size_t m = 0; m < method_names.size(); ++m) {
      auto spec = methods::ParseMethodSpec(method_names[m]);
      if (!spec.ok()) {
        std::cerr << spec.status().ToString() << "\n";
        return 1;
      }
      auto point = RunShardedPoint(env, *spec, shards, params);
      if (!point.ok()) {
        std::cerr << method_names[m] << " x" << shards << ": "
                  << point.status().ToString() << "\n";
        return 1;
      }
      if (shards == 1) base_parallel[m] = point->parallel_us_per_op;
      const double speedup = point->parallel_us_per_op > 0
                                 ? base_parallel[m] / point->parallel_us_per_op
                                 : 0;
      row.push_back(TablePrinter::Num(point->total_us_per_op));
      row.push_back(TablePrinter::Num(point->parallel_us_per_op));
      row.push_back(TablePrinter::Num(speedup) + "x");
    }
    tbl.AddRow(std::move(row));
  }
  tbl.Print(std::cout);
  harness::JsonDump json(flags.GetString("json", ""));
  json.Add("sharding", tbl);
  if (!json.Finish()) return 1;
  return 0;
}
