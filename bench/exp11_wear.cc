// Experiment 11 (beyond the paper): cross-shard wear leveling via hot-pid
// remapping -- ShardRouter bucket migration under a skewed pid distribution.
//
// The workload pins --hot percent of the operations to shard 0's legacy
// residue class (pid % S == 0). Without wear leveling those pids can never
// leave chip 0, so its erase count grows without bound relative to the cold
// chips -- the multi-chip wear imbalance the paper's single-chip methods
// cannot see. With wear leveling enabled the ShardRouter watches the
// max/min per-shard erase ratio, and at epoch boundaries (--epoch operations)
// migrates the hottest pid buckets to the least-worn chip by swapping them
// with equally-sized cold buckets.
//
// The sweep is skew (--hot list fixed at 0/60/90) x rebalance-trigger
// threshold ("off" plus --thresh list, default 1.25 and 1.50). Per point:
//   * swaps       -- bucket migrations committed during the measured run;
//   * erase_ratio -- max/min per-shard erase delta over the measured run
//                    ("inf" when a chip saw no erase at all): the wear-
//                    leveling objective, <= the threshold when it works;
//   * wear_cv     -- coefficient of variation of the per-block erase deltas
//                    over every block of every chip (0 = perfectly flat);
//   * migr us/op  -- virtual-time cost of the migration copies (the price
//                    paid for leveling, amortized over the measured ops);
//   * par us/op   -- elapsed virtual time (the largest chip-clock advance,
//                    harness::Cost);
//   * wall_ms     -- host wall-clock of the measured RunPipelined call;
//   * determinism -- the measured threaded run must leave every chip's
//                    virtual clock and erase count, and every virtual
//                    RunStats field (swap count included), bit-identical to
//                    an inline replay of the same schedule (ok/FAIL).
//
// Expected shape: at hot=0 no swaps happen and all columns match the "off"
// row (the router's identity mapping is legacy striping); at hot=90 with the
// threshold on, erase_ratio drops from unbounded (typically > 5) to under
// ~1.5 for a few migration copies' worth of migr us/op.

#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/table_printer.h"

using namespace flashdb;
using harness::TablePrinter;

namespace {

struct WearPoint {
  harness::CheckedRun checked;
  double erase_ratio = 0;    ///< Valid only when ratio_finite.
  bool ratio_finite = true;  ///< False when some chip saw zero erases.
  double wear_cv = 0;
};

/// One measured point: threaded RunPipelined under the given skew/threshold
/// (`threshold` <= 0 leaves wear leveling off), checked against its inline
/// replay: wear leveling must plan the same migrations at the same epoch
/// boundaries and leave every chip bit-identical.
Result<WearPoint> RunPoint(const harness::ExperimentEnv& env,
                           const methods::MethodSpec& spec, uint32_t num_shards,
                           uint32_t batch_size, uint32_t depth,
                           const workload::WorkloadParams& params,
                           double threshold,
                           const ftl::WearLevelConfig& wl_base) {
  harness::RigSpec rig_spec{.shards = num_shards, .params = params};
  if (threshold > 0) {
    rig_spec.leveling = wl_base;
    rig_spec.leveling->max_erase_ratio = threshold;
  }
  WearPoint point;
  FLASHDB_ASSIGN_OR_RETURN(harness::Rig rig,
                           harness::PrepareRig(env, spec, rig_spec));
  ftl::ShardedStore* store = rig.sharded();
  const std::vector<uint64_t> erases0 = store->shard_erases();
  const std::vector<uint32_t> blocks0 = store->stats().block_erase_counts;

  const harness::Execution threaded{.batch = batch_size,
                                    .depth = depth,
                                    .threaded = true};
  FLASHDB_ASSIGN_OR_RETURN(
      point.checked,
      harness::ExecuteChecked(&rig, env.measure_ops, threaded));

  const std::vector<uint64_t> erases1 = store->shard_erases();
  uint64_t max_d = 0;
  uint64_t min_d = UINT64_MAX;
  for (uint32_t i = 0; i < num_shards; ++i) {
    const uint64_t d = erases1[i] - erases0[i];
    max_d = std::max(max_d, d);
    min_d = std::min(min_d, d);
  }
  point.ratio_finite = min_d > 0;
  if (point.ratio_finite) {
    point.erase_ratio =
        static_cast<double>(max_d) / static_cast<double>(min_d);
  }

  std::vector<uint32_t> block_deltas = store->stats().block_erase_counts;
  for (size_t i = 0; i < block_deltas.size(); ++i) {
    block_deltas[i] -= blocks0[i];
  }
  point.wear_cv = flash::SummarizeWear(block_deltas).cv();
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
  // OPU is the default: wear is erase-driven, and the page-based baseline
  // erases orders of magnitude more than PDL at bench scale, so leveling is
  // observable within a short run (pass --method=PDL(256B) etc. to explore).
  const std::string method_name = flags.GetString("method", "OPU");

  workload::WorkloadParams params;
  params.pct_changed_by_one_op = flags.GetDouble("changed", 2.0);
  params.updates_till_write =
      static_cast<uint32_t>(flags.GetInt("updates", 1));
  params.rebalance_epoch_ops = static_cast<uint64_t>(
      flags.GetInt("epoch", static_cast<int64_t>(env.measure_ops / 10)));

  ftl::WearLevelConfig wl_base;
  wl_base.buckets_per_shard =
      static_cast<uint32_t>(flags.GetInt("buckets", 8));
  wl_base.min_total_erases =
      static_cast<uint64_t>(flags.GetInt("min-erases", 32));

  const std::vector<double> skews = {0.0, 60.0, 90.0};
  std::vector<double> thresholds;  // <= 0 encodes "off"
  thresholds.push_back(0.0);
  if (flags.Has("thresh")) {
    thresholds.push_back(flags.GetDouble("thresh", 1.25));
  } else {
    thresholds.push_back(1.25);
    thresholds.push_back(1.50);
  }
  harness::JsonDump json(flags.GetString("json", ""));
  if (!flags.AllRead()) return 2;

  std::printf(
      "Experiment 11: cross-shard wear leveling via hot-pid remapping, "
      "%s, %u shards, %u blocks total, %llu ops\n(rebalance epoch %llu ops, "
      "%u buckets/shard, up to %u swaps per rebalance;\n erase_ratio = "
      "max/min per-shard erase delta over the measured run)\n\n",
      method_name.c_str(), num_shards, total_blocks,
      static_cast<unsigned long long>(env.measure_ops),
      static_cast<unsigned long long>(params.rebalance_epoch_ops),
      wl_base.buckets_per_shard, ftl::ShardRouter::kMaxSwapsPerRebalance);

  auto spec = methods::ParseMethodSpec(method_name);
  if (!spec.ok()) {
    std::cerr << spec.status().ToString() << "\n";
    return 1;
  }

  TablePrinter tbl({"Method", "hot", "thresh", "swaps", "erase_ratio",
                    "wear_cv", "migr us/op", "par us/op", "wall_ms",
                    "determinism"});
  int failures = 0;
  for (double hot : skews) {
    for (double threshold : thresholds) {
      workload::WorkloadParams wp = params;
      wp.hot_shard_pct = hot;
      auto point = RunPoint(env, *spec, num_shards, batch_size, depth, wp,
                            threshold, wl_base);
      if (!point.ok()) {
        std::cerr << method_name << " hot=" << hot << " thresh=" << threshold
                  << ": " << point.status().ToString() << "\n";
        return 1;
      }
      const workload::RunStats& s = point->checked.stats;
      const harness::Cost& cost = point->checked.cost;
      const bool deterministic = point->checked.deterministic();
      if (!deterministic) failures++;
      tbl.AddRow({method_name, TablePrinter::Num(hot, 0),
                  threshold > 0 ? TablePrinter::Num(threshold, 2) : "off",
                  std::to_string(s.migrations),
                  point->ratio_finite ? TablePrinter::Num(point->erase_ratio, 2)
                                      : "inf",
                  TablePrinter::Num(point->wear_cv, 3),
                  TablePrinter::Num(s.migrate_us_per_op()),
                  TablePrinter::Num(s.PerOp(cost.advance.elapsed_vt_us)),
                  TablePrinter::Num(cost.wall_ms, 2),
                  deterministic ? "ok" : "FAIL"});
    }
  }
  tbl.Print(std::cout);
  json.Add("exp11_wear", tbl);
  if (!json.Finish()) return 1;
  if (failures != 0) {
    std::cerr << "\n" << failures
              << " configuration(s) broke virtual-time determinism\n";
    return 1;
  }
  return 0;
}
