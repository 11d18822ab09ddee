// Experiment 1 (Fig. 12): read, write, and overall I/O time per update
// operation for IPL(18KB), IPL(64KB), PDL(2KB), PDL(256B), OPU and IPU, at
// N_updates_till_write = 1, %ChangedByOneU_Op = 2.
//
// Prints three tables matching Fig. 12 (a) reading step, (b) writing step
// (with the garbage-collection share broken out, the figure's slashed area,
// and the read time inside the writing step, the figure's lighter area), and
// (c) overall time.

#include <cstdio>
#include <iostream>

#include "harness/experiment.h"
#include "harness/table_printer.h"

using namespace flashdb;
using harness::TablePrinter;

int main(int argc, char** argv) {
  harness::Flags flags(argc, argv);
  harness::ExperimentEnv env = harness::ExperimentEnv::FromFlags(flags);
  workload::WorkloadParams params;
  params.pct_changed_by_one_op = flags.GetDouble("changed", 2.0);
  params.updates_till_write =
      static_cast<uint32_t>(flags.GetInt("nupdates", 1));
  harness::JsonDump json(flags.GetString("json", ""));
  if (!flags.AllRead()) return 2;

  std::printf(
      "Experiment 1 (Fig. 12): per-update-operation I/O time\n"
      "  N_updates_till_write=%u  %%ChangedByOneU_Op=%.1f  db=%u pages  "
      "flash=%u blocks\n\n",
      params.updates_till_write, params.pct_changed_by_one_op,
      env.num_db_pages(), env.flash_cfg.geometry.num_blocks);

  TablePrinter read_tbl({"method", "read_us/op", "reads/op"});
  TablePrinter write_tbl({"method", "write_us/op", "gc_us/op",
                          "read_in_write_us/op", "writes/op"});
  TablePrinter overall_tbl({"method", "overall_us/op"});

  for (const methods::MethodSpec& spec : methods::PaperMethodSet()) {
    auto r = harness::RunWorkloadPoint(env, spec, params);
    if (!r.ok()) {
      std::cerr << spec.ToString() << ": " << r.status().ToString() << "\n";
      return 1;
    }
    const workload::RunStats& s = r->stats;
    const double ops = static_cast<double>(s.operations);
    const flash::OpCounters& rd = s.device.of(flash::OpCategory::kReadStep);
    const flash::OpCounters& wr = s.device.of(flash::OpCategory::kWriteStep);
    const flash::OpCounters& gc = s.device.of(flash::OpCategory::kGc);
    read_tbl.AddRow({r->method, TablePrinter::Num(rd.total_us() / ops),
                     TablePrinter::Num(rd.reads / ops, 2)});
    write_tbl.AddRow({r->method,
                      TablePrinter::Num((wr.total_us() + gc.total_us()) / ops),
                      TablePrinter::Num(gc.total_us() / ops),
                      TablePrinter::Num(wr.read_us / ops),
                      TablePrinter::Num((wr.writes + gc.writes) / ops, 2)});
    overall_tbl.AddRow({r->method, TablePrinter::Num(s.overall_us_per_op())});
  }

  std::cout << "(a) reading step\n";
  read_tbl.Print(std::cout);
  std::cout << "\n(b) writing step (gc amortized; read_in_write = base-page "
               "reads PDL needs to create differentials)\n";
  write_tbl.Print(std::cout);
  std::cout << "\n(c) overall\n";
  overall_tbl.Print(std::cout);

  json.Add("reading_step", read_tbl);
  json.Add("writing_step", write_tbl);
  json.Add("overall", overall_tbl);
  if (!json.Finish()) return 1;
  return 0;
}
