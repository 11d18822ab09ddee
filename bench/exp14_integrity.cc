// Experiment 14 (beyond the paper): end-to-end read-path integrity -- the
// cost and effectiveness of CRC-verified reads, the bounded retry ladder,
// and the background scrubber under an injected bit-error model.
//
// A BitErrorInjector makes read attempts fail with probability
// p * (1 + kWearFactor*erases + disturb_factor*reads_since_erase), attenuated
// by the fixed kRetryAttenuation per retry pass. The device re-reads up to
// FlashDevice::kMaxReadRetries times (charging Tread per pass) and flags
// retried or disturb-saturated pages for scrub; with --scrub the driver
// drains those flags at every epoch boundary and relocates the live data,
// resetting its read-disturb exposure. This bench sweeps bit-error rate x
// scrub {off,on} x method and reports:
//   * vt us/op    -- virtual-clock advance per operation (the largest
//     chip-clock advance, RunStats::elapsed_vt_us; retries included);
//   * retry us/op -- virtual time spent in retry passes, per operation;
//   * retries     -- total retry passes; corrected -- reads clean after >= 1
//     retry; uncorr -- reads still corrupt after the ladder (the perf gate
//     requires 0 on every scrub=on row);
//   * scrub us/op -- virtual time of scrub relocations, per operation;
//   * reloc       -- pages relocated by the scrubber (0 with scrub=off);
//   * determinism -- a threaded replay must match the inline run
//     bit-for-bit (per-chip clocks and erase counts, every virtual RunStats
//     field): the error model and the scrubber are pure functions of
//     per-shard state, so the executor must not change a single retry
//     decision.
//
// Expected shape: retry us/op grows with the error rate, and the scrub=on
// rows pay a small relocation cost to keep the disturb term (and with it the
// retry tail) from compounding; uncorrectable reads stay at zero on every
// row at these rates -- the ladder absorbs what the scrubber has not yet
// refreshed.

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "flash/fault_injector.h"
#include "flash/flash_device.h"
#include "harness/experiment.h"
#include "harness/table_printer.h"

using namespace flashdb;
using harness::TablePrinter;

namespace {

/// Measures one (method, error-rate, scrub) cell: an inline RunPipelined
/// execution for the deterministic metrics, checked against a threaded
/// replay of the identical schedule. The error injector is attached only
/// after warmup, so every point measures the same warmed flash image and
/// the sweep isolates the read-path costs.
Result<harness::CheckedRun> RunPoint(const harness::ExperimentEnv& env,
                                     const methods::MethodSpec& spec,
                                     flash::FaultInjector* injector,
                                     bool scrub, uint32_t num_shards,
                                     uint32_t batch_size, uint32_t depth,
                                     uint64_t epoch_ops) {
  harness::RigSpec rig_spec{.shards = num_shards};
  rig_spec.params.rebalance_epoch_ops = epoch_ops;
  rig_spec.params.scrub = scrub;
  FLASHDB_ASSIGN_OR_RETURN(harness::Rig rig,
                           harness::PrepareRig(env, spec, rig_spec));
  const harness::Execution inline_ex{.batch = batch_size, .depth = depth};
  return harness::ExecuteChecked(&rig, env.measure_ops, inline_ex,
                                 /*metrics=*/nullptr, injector);
}

}  // namespace

int main(int argc, char** argv) {
  harness::Flags flags(argc, argv);
  harness::ExperimentEnv env = harness::ExperimentEnv::FromFlags(flags);
  const uint32_t total_blocks = env.flash_cfg.geometry.num_blocks;
  const uint32_t num_shards = static_cast<uint32_t>(flags.GetInt("shards", 2));
  const uint32_t batch_size = static_cast<uint32_t>(flags.GetInt("batch", 8));
  const uint32_t depth = static_cast<uint32_t>(flags.GetInt("depth", 4));
  const uint32_t disturb_limit =
      static_cast<uint32_t>(flags.GetInt("disturb-limit", 48));
  env.flash_cfg.read_disturb_limit = disturb_limit;
  const uint64_t epoch_ops =
      static_cast<uint64_t>(flags.GetInt("epoch", 500));
  const double disturb_factor = flags.GetDouble("disturb", 0.01);

  // Error rates stay comfortably inside the ladder's budget: the point is
  // the cost curve and the scrubber's effect on it, not data loss (the
  // zero-uncorrectable row is what the perf gate pins).
  const std::vector<double> error_rates = {0.0, 0.005, 0.02};

  std::printf(
      "Experiment 14: read-path integrity under injected bit errors, "
      "%u shards, %u blocks total, %llu ops\n(retry ladder <= %u "
      "passes of Tread; scrub drains device flags every %llu ops; "
      "disturb_factor %.3f, disturb limit %u reads)\n\n",
      num_shards, total_blocks,
      static_cast<unsigned long long>(env.measure_ops),
      flash::FlashDevice::kMaxReadRetries,
      static_cast<unsigned long long>(epoch_ops), disturb_factor,
      disturb_limit);

  const std::vector<std::string> method_names = {"OPU", "PDL(256B)"};
  TablePrinter tbl({"Method", "ber", "scrub", "vt us/op", "retry us/op",
                    "retries", "corrected", "uncorr", "scrub us/op", "reloc",
                    "determinism"});
  int failures = 0;
  for (const std::string& name : method_names) {
    auto spec = methods::ParseMethodSpec(name);
    if (!spec.ok()) {
      std::cerr << spec.status().ToString() << "\n";
      return 1;
    }
    for (const double ber : error_rates) {
      flash::BitErrorInjector::Params params;
      params.page_error_rate = ber;
      params.disturb_factor = disturb_factor;
      flash::BitErrorInjector injector(params);
      flash::FaultInjector* fi = ber > 0 ? &injector : nullptr;
      for (const bool scrub : {false, true}) {
        auto point = RunPoint(env, *spec, fi, scrub, num_shards, batch_size,
                              depth, epoch_ops);
        if (!point.ok()) {
          std::cerr << name << " ber=" << ber << " scrub=" << scrub << ": "
                    << point.status().ToString() << "\n";
          return 1;
        }
        const workload::RunStats& s = point->run.stats;
        const flash::IntegrityCounters& integrity = s.device.integrity;
        if (!point->deterministic) failures++;
        if (integrity.reads_uncorrectable != 0 && scrub) failures++;
        tbl.AddRow({name, TablePrinter::Num(ber, 3), scrub ? "on" : "off",
                    TablePrinter::Num(s.PerOp(s.elapsed_vt_us)),
                    TablePrinter::Num(s.retry_us_per_op(), 2),
                    std::to_string(integrity.read_retries),
                    std::to_string(integrity.reads_corrected),
                    std::to_string(integrity.reads_uncorrectable),
                    TablePrinter::Num(s.scrub_us_per_op(), 2),
                    std::to_string(s.scrub_relocations),
                    point->deterministic ? "ok" : "FAIL"});
      }
    }
  }
  tbl.Print(std::cout);
  harness::JsonDump json(flags.GetString("json", ""));
  json.Add("exp14_integrity", tbl);
  if (!json.Finish()) return 1;
  if (failures != 0) {
    std::cerr << "\n" << failures
              << " configuration(s) broke determinism or lost data under "
                 "scrub\n";
    return 1;
  }
  return 0;
}
