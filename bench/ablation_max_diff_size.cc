// Ablation A1 (paper footnote 8): sweep PDL's Max_Differential_Size from
// 64 B to 2 KB and report overall cost, write cost, Case-3 (new base page)
// frequency, and erases per operation. Shows the trade-off the paper tunes
// between PDL(256B) and PDL(2KB): small limits fall back to page-based
// writes sooner but keep the differential region small and cheap to collect.

#include <cstdio>
#include <iostream>

#include "harness/experiment.h"
#include "harness/table_printer.h"
#include "pdl/pdl_store.h"

using namespace flashdb;
using harness::TablePrinter;

int main(int argc, char** argv) {
  harness::Flags flags(argc, argv);
  harness::ExperimentEnv env = harness::ExperimentEnv::FromFlags(flags);
  workload::WorkloadParams params;
  params.pct_changed_by_one_op = flags.GetDouble("changed", 2.0);
  params.updates_till_write =
      static_cast<uint32_t>(flags.GetInt("nupdates", 1));

  std::printf(
      "Ablation: Max_Differential_Size sweep (%%Changed=%.1f, N=%u)\n\n",
      params.pct_changed_by_one_op, params.updates_till_write);
  TablePrinter tbl({"max_diff", "overall_us/op", "write_us/op", "case3/op",
                    "flushes/op", "erases/op"});
  const harness::RigSpec flat{.flat = true, .params = params};
  for (uint32_t max_diff : {64u, 128u, 256u, 512u, 1024u, 2048u}) {
    const methods::MethodSpec spec{methods::MethodKind::kPdl, max_diff};
    auto rig = harness::PrepareRig(env, spec, flat);
    if (!rig.ok()) {
      std::cerr << max_diff << "B: " << rig.status().ToString() << "\n";
      return 1;
    }
    const auto& store = static_cast<const pdl::PdlStore&>(*rig->store());
    const pdl::PdlCounters c0 = store.counters();
    auto run = harness::Execute(&rig.value(), env.measure_ops,
                                harness::Execution{});
    if (!run.ok()) {
      std::cerr << max_diff << "B: " << run.status().ToString() << "\n";
      return 1;
    }
    const workload::RunStats& stats = run->stats;
    const pdl::PdlCounters c1 = store.counters();
    const double ops = static_cast<double>(stats.operations);
    tbl.AddRow({std::to_string(max_diff),
                TablePrinter::Num(stats.overall_us_per_op()),
                TablePrinter::Num(stats.write_us_per_op()),
                TablePrinter::Num((c1.new_base_pages - c0.new_base_pages) / ops,
                                  3),
                TablePrinter::Num((c1.buffer_flushes - c0.buffer_flushes) / ops,
                                  3),
                TablePrinter::Num(stats.erases_per_op(), 4)});
  }
  tbl.Print(std::cout);
  harness::JsonDump json(flags.GetString("json", ""));
  json.Add("max_diff_sweep", tbl);
  if (!json.Finish()) return 1;
  return 0;
}
