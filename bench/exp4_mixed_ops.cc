// Experiment 4 (Fig. 15): overall I/O time per operation for mixes of
// read-only and update operations, as %UpdateOps varies from 0 to 100
// (%ChangedByOneU_Op = 2, N_updates_till_write = 1 and 5).
//
// Expected shape: at %UpdateOps ~ 0, OPU wins (PDL reads two pages for
// already-updated pages -- the paper's "0.5x" special case); PDL overtakes
// OPU as updates grow; PDL(256B) always beats IPL. The paper reports
// improvements of 0.5~3.4x over OPU and 1.6~3.1x over IPL(18KB).

#include <cstdio>
#include <iostream>

#include "harness/experiment.h"
#include "harness/table_printer.h"

using namespace flashdb;
using harness::TablePrinter;

namespace {

int RunSeries(const harness::ExperimentEnv& env, uint32_t n_updates,
              double* pdl_vs_opu_min, double* pdl_vs_opu_max,
              const std::string& series, harness::JsonDump* json) {
  TablePrinter tbl(harness::PaperMethodHeader("%UpdateOps"));
  for (double pct_up : {0.0, 10.0, 25.0, 50.0, 75.0, 100.0}) {
    std::vector<std::string> row = {TablePrinter::Num(pct_up, 0)};
    double pdl256 = 0;
    double opu = 0;
    for (const methods::MethodSpec& spec : methods::PaperMethodSet()) {
      workload::WorkloadParams params;
      params.pct_changed_by_one_op = 2.0;
      params.updates_till_write = n_updates;
      params.pct_update_ops = pct_up;
      auto r = harness::RunWorkloadPoint(env, spec, params);
      if (!r.ok()) {
        std::cerr << spec.ToString() << ": " << r.status().ToString() << "\n";
        return 1;
      }
      const double us = r->stats.overall_us_per_op();
      row.push_back(TablePrinter::Num(us));
      if (r->method == "PDL(256B)") pdl256 = us;
      if (r->method == "OPU") opu = us;
    }
    if (pdl256 > 0) {
      const double ratio = opu / pdl256;
      *pdl_vs_opu_min = std::min(*pdl_vs_opu_min, ratio);
      *pdl_vs_opu_max = std::max(*pdl_vs_opu_max, ratio);
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
  harness::JsonDump json(flags.GetString("json", ""));
  if (!flags.AllRead()) return 2;
  double lo = 1e9, hi = 0;
  std::printf(
      "Experiment 4 (Fig. 15): overall us/op for read/update mixes "
      "(%%Changed=2)\n\n(a) N_updates_till_write = 1\n");
  if (RunSeries(env, 1, &lo, &hi, "nupdates_1", &json) != 0) return 1;
  std::printf("\n(b) N_updates_till_write = 5\n");
  if (RunSeries(env, 5, &lo, &hi, "nupdates_5", &json) != 0) return 1;
  std::printf(
      "\nPDL(256B) vs OPU speedup range: %.2fx ~ %.2fx "
      "(paper: 0.5x ~ 3.4x)\n",
      lo, hi);
  if (!json.Finish()) return 1;
  return 0;
}
