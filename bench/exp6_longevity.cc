// Experiment 6 (Fig. 17): number of erase operations per update operation as
// N_updates_till_write varies 1..8 (%ChangedByOneU_Op = 2). Fewer erases =
// longer flash lifetime (each block endures ~100K erases).
//
// Expected shape at N=1 (most erases first): OPU > PDL(2KB) > IPL(18KB) >
// PDL(256B) > IPL(64KB). IPL(64KB) lives longest but loses badly on mixed
// read/update performance (Exp. 4); PDL(256B) is next best on longevity
// while also being the fastest overall.

#include <cstdio>
#include <iostream>

#include "harness/experiment.h"
#include "harness/table_printer.h"

using namespace flashdb;
using harness::TablePrinter;

int main(int argc, char** argv) {
  harness::Flags flags(argc, argv);
  harness::ExperimentEnv env = harness::ExperimentEnv::FromFlags(flags);
  harness::JsonDump json(flags.GetString("json", ""));
  if (!flags.AllRead()) return 2;
  std::printf(
      "Experiment 6 (Fig. 17): erase operations per update operation vs "
      "N_updates_till_write (%%Changed=2)\n\n");
  TablePrinter tbl(harness::PaperMethodHeader("N_updates_till_write"));
  for (uint32_t n = 1; n <= 8; ++n) {
    std::vector<std::string> row = {std::to_string(n)};
    for (const methods::MethodSpec& spec : methods::PaperMethodSet()) {
      workload::WorkloadParams params;
      params.pct_changed_by_one_op = 2.0;
      params.updates_till_write = n;
      auto r = harness::RunWorkloadPoint(env, spec, params);
      if (!r.ok()) {
        std::cerr << spec.ToString() << ": " << r.status().ToString() << "\n";
        return 1;
      }
      row.push_back(TablePrinter::Num(r->stats.erases_per_op(), 4));
    }
    tbl.AddRow(std::move(row));
  }
  tbl.Print(std::cout);
  json.Add("erases_per_op", tbl);
  if (!json.Finish()) return 1;
  return 0;
}
