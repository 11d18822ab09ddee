// Experiment 5 (Fig. 16): overall I/O time per update operation as the flash
// performance parameters vary: Tread in {10..1500}us with Twrite = 500us (a)
// and 1000us (b); Terase = 1500us, N=1, %Changed=2.
//
// Expected shape: PDL(256B) wins across the whole sweep; OPU catches up with
// PDL(2KB) and IPL as Tread grows (their extra reads get more expensive).
//
// Section (c) goes beyond the paper's figure: the same workload on the
// FlashConfig presets -- the paper-era chip, a modern 2-die x 4-plane part,
// and the modern part flattened to one plane (identical timings, no command
// overlap). The plane_speedup column (flattened vt/op over multi-plane
// vt/op) isolates what the die/plane model alone buys each method.

#include <cstdio>
#include <iostream>

#include "harness/experiment.h"
#include "harness/table_printer.h"

using namespace flashdb;
using harness::TablePrinter;

namespace {

int RunSeries(harness::ExperimentEnv env, uint32_t twrite,
              const std::string& series, harness::JsonDump* json) {
  env.flash_cfg.timing.write_us = twrite;
  TablePrinter tbl(harness::PaperMethodHeader("Tread_us"));
  for (uint32_t tread : {10u, 50u, 110u, 250u, 500u, 1000u, 1500u}) {
    env.flash_cfg.timing.read_us = tread;
    std::vector<std::string> row = {std::to_string(tread)};
    for (const methods::MethodSpec& spec : methods::PaperMethodSet()) {
      workload::WorkloadParams params;
      params.pct_changed_by_one_op = 2.0;
      params.updates_till_write = 1;
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

/// Virtual-clock advance per operation for one method on one preset chip
/// (scaled to the bench block count). For 1-plane chips this equals the
/// summed busy time; with planes it is the max over the plane timelines.
Result<double> PresetVtPerOp(const harness::ExperimentEnv& base,
                             flash::FlashConfig preset,
                             const methods::MethodSpec& spec) {
  harness::ExperimentEnv env = base;
  preset.geometry.num_blocks = base.flash_cfg.geometry.num_blocks;
  preset.geometry.data_size = base.flash_cfg.geometry.data_size;
  env.flash_cfg = preset;
  workload::WorkloadParams params;
  params.pct_changed_by_one_op = 2.0;
  params.updates_till_write = 1;
  FLASHDB_ASSIGN_OR_RETURN(harness::PointResult r,
                           harness::RunWorkloadPoint(env, spec, params));
  return static_cast<double>(r.cost.advance.elapsed_vt_us) /
         static_cast<double>(env.measure_ops);
}

int RunPresets(const harness::ExperimentEnv& env, harness::JsonDump* json) {
  const flash::FlashConfig paper = flash::FlashConfig::Paper();
  const flash::FlashConfig modern = flash::FlashConfig::Modern();
  flash::FlashConfig flat = modern;
  flat.geometry.dies_per_chip = 1;
  flat.geometry.planes_per_die = 1;

  TablePrinter tbl({"Method", "paper vt/op", "flat vt/op", "modern vt/op",
                    "plane_speedup"});
  for (const methods::MethodSpec& spec : methods::PaperMethodSet()) {
    double vt_paper = 0, vt_flat = 0, vt_modern = 0;
    struct Cell {
      const flash::FlashConfig* cfg;
      double* out;
    };
    for (Cell cell : {Cell{&paper, &vt_paper}, Cell{&flat, &vt_flat},
                      Cell{&modern, &vt_modern}}) {
      auto vt = PresetVtPerOp(env, *cell.cfg, spec);
      if (!vt.ok()) {
        std::cerr << spec.ToString() << ": " << vt.status().ToString() << "\n";
        return 1;
      }
      *cell.out = *vt;
    }
    const double speedup = vt_modern > 0 ? vt_flat / vt_modern : 0;
    tbl.AddRow({spec.ToString(), TablePrinter::Num(vt_paper),
                TablePrinter::Num(vt_flat), TablePrinter::Num(vt_modern),
                TablePrinter::Num(speedup, 2) + "x"});
  }
  tbl.Print(std::cout);
  json->Add("presets", tbl);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  harness::Flags flags(argc, argv);
  harness::ExperimentEnv env = harness::ExperimentEnv::FromFlags(flags);
  harness::JsonDump json(flags.GetString("json", ""));
  if (!flags.AllRead()) return 2;
  std::printf(
      "Experiment 5 (Fig. 16): overall us/op as flash parameters vary "
      "(N=1, %%Changed=2, Terase=1500us)\n\n(a) Twrite = 500us\n");
  if (RunSeries(env, 500, "twrite_500", &json) != 0) return 1;
  std::printf("\n(b) Twrite = 1000us\n");
  if (RunSeries(env, 1000, "twrite_1000", &json) != 0) return 1;
  std::printf(
      "\n(c) FlashConfig presets (beyond the paper): virtual-time us/op on "
      "the paper chip, the modern 2-die x 4-plane chip flattened to one "
      "plane, and the full modern chip\n");
  if (RunPresets(env, &json) != 0) return 1;
  if (!json.Finish()) return 1;
  return 0;
}
