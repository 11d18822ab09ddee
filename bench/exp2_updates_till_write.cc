// Experiment 2 (Fig. 13): overall I/O time per update operation as
// N_updates_till_write varies from 1 to 8, for logical pages of 2 KB (a)
// and 8 KB (b). %ChangedByOneU_Op = 2.
//
// Expected shape: OPU and IPU flat; IPL stepwise-increasing (its write count
// is ceil(size_of_update_logs / log_buffer)); PDL(2KB) nearly flat (changed
// regions overlap within one differential); PDL(256B) grows toward OPU as
// differentials start exceeding Max_Differential_Size (Case 3).

#include <cstdio>
#include <iostream>

#include "harness/experiment.h"
#include "harness/table_printer.h"

using namespace flashdb;
using harness::TablePrinter;

namespace {

int RunSeries(const harness::ExperimentEnv& env, double pct_changed,
              const std::string& series, harness::JsonDump* json) {
  TablePrinter tbl(harness::PaperMethodHeader("N_updates_till_write"));
  for (uint32_t n = 1; n <= 8; ++n) {
    std::vector<std::string> row = {std::to_string(n)};
    for (const methods::MethodSpec& spec : methods::PaperMethodSet()) {
      workload::WorkloadParams params;
      params.pct_changed_by_one_op = pct_changed;
      params.updates_till_write = n;
      auto r = harness::RunWorkloadPoint(env, spec, params);
      if (!r.ok()) {
        std::cerr << spec.ToString() << ": " << r.status().ToString() << "\n";
        return 1;
      }
      row.push_back(TablePrinter::Num(r->stats.overall_us_per_op()));
    }
    tbl.AddRow(std::move(row));
  }
  tbl.Print(std::cout);
  json->Add(series, tbl);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  harness::Flags flags(argc, argv);
  harness::ExperimentEnv env = harness::ExperimentEnv::FromFlags(flags);
  const double pct = flags.GetDouble("changed", 2.0);
  harness::JsonDump json(flags.GetString("json", ""));
  if (!flags.AllRead()) return 2;

  std::printf(
      "Experiment 2 (Fig. 13): overall us/op vs N_updates_till_write "
      "(%%Changed=%.1f)\n\n(a) logical page = %u bytes\n",
      pct, env.flash_cfg.geometry.data_size);
  if (RunSeries(env, pct, "page_2kb", &json) != 0) return 1;

  if (!flags.Has("page-size")) {
    // (b) 8 KB logical pages (geometry keeps 128 KB blocks: 16 pages/block).
    harness::ExperimentEnv env8 = env;
    env8.flash_cfg.geometry.data_size = 8192;
    env8.flash_cfg.geometry.pages_per_block = 16;
    std::printf("\n(b) logical page = 8192 bytes\n");
    if (RunSeries(env8, pct, "page_8kb", &json) != 0) return 1;
  }
  if (!json.Finish()) return 1;
  return 0;
}
