// Experiment 3 (Fig. 14): overall I/O time per update operation as
// %ChangedByOneU_Op varies from 0.1 to 100, for N_updates_till_write = 1 (a)
// and 5 (b).
//
// Expected shape: PDL(256B) best except at very large %Changed; at
// %Changed ~ 100, PDL(2KB) is slightly worse than OPU (same writes, but
// three reads per operation: base + differential on the read, base again to
// compute the differential on the write).

#include <cstdio>
#include <iostream>

#include "harness/experiment.h"
#include "harness/table_printer.h"

using namespace flashdb;
using harness::TablePrinter;

namespace {

int RunSeries(const harness::ExperimentEnv& env, uint32_t n_updates,
              const std::string& series, harness::JsonDump* json) {
  TablePrinter tbl(harness::PaperMethodHeader("%Changed"));
  for (double pct : {0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0}) {
    std::vector<std::string> row = {TablePrinter::Num(pct, 1)};
    for (const methods::MethodSpec& spec : methods::PaperMethodSet()) {
      workload::WorkloadParams params;
      params.pct_changed_by_one_op = pct;
      params.updates_till_write = n_updates;
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
  harness::JsonDump json(flags.GetString("json", ""));
  if (!flags.AllRead()) return 2;
  std::printf(
      "Experiment 3 (Fig. 14): overall us/op vs %%ChangedByOneU_Op\n\n"
      "(a) N_updates_till_write = 1\n");
  if (RunSeries(env, 1, "nupdates_1", &json) != 0) return 1;
  std::printf("\n(b) N_updates_till_write = 5\n");
  if (RunSeries(env, 5, "nupdates_5", &json) != 0) return 1;
  if (!json.Finish()) return 1;
  return 0;
}
