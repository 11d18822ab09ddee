// Experiment 13 (beyond the paper): die/plane-aware command overlap --
// virtual-time throughput as the chip geometry grows from one plane to a
// modern multi-die, multi-plane layout.
//
// The device model gives every plane its own ready time: operations on
// distinct planes overlap in virtual time, same-plane operations serialize,
// and the chip clock is the max over the planes. The BlockManager stripes
// each allocation stream round-robin across the planes, so a write-heavy
// workload fans its programs out; garbage collection erases whole plane
// groups with one multi-plane command when the victims align. This bench
// sweeps geometry x method (x pipeline depth for the threaded check) and
// reports, per point:
//   * vt us/op   -- virtual-clock advance per operation (the largest
//     chip-clock advance, harness::Cost);
//   * vt kops/s  -- operations per virtual second, the device-parallel
//     throughput (deterministic; gated against the baseline);
//   * vt_speedup -- vt throughput over the same method's 1x1 point (the
//     perf gate requires >= 2.0 on the 4-plane rows);
//   * stall/op   -- virtual time ops spent queued behind same-plane work
//     while another plane was idle (plane model's residual serialization);
//   * wall_ms    -- host wall-clock of the measured threaded RunPipelined
//     execution (depth --depth windows in flight per shard);
//   * determinism -- per-chip clocks and erase counts and every virtual
//     RunStats field of the threaded run must match an inline replay of
//     the same schedule bit-for-bit (ok/FAIL).
//
// Expected shape: vt_speedup grows with the plane count and saturates
// slightly below it (random reads collide on planes; GC compaction writes
// chain within a block), comfortably clearing 2x at 4 planes at equal
// thread count. Identity geometry rows are bit-identical to the other
// experiments' device behavior by construction.

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/table_printer.h"

using namespace flashdb;
using harness::TablePrinter;

namespace {

struct GeometryPoint {
  uint32_t dies = 1;
  uint32_t planes_per_die = 1;
  uint32_t planes_per_chip() const { return dies * planes_per_die; }
};

/// Measures one geometry x method cell: a threaded RunPipelined execution
/// (its wall_ms is the row's), checked against an inline replay of the
/// identical schedule.
Result<harness::CheckedRun> RunPoint(harness::ExperimentEnv env,
                                     const methods::MethodSpec& spec,
                                     const GeometryPoint& geom,
                                     uint32_t num_shards, uint32_t batch_size,
                                     uint32_t depth) {
  env.flash_cfg.geometry.dies_per_chip = geom.dies;
  env.flash_cfg.geometry.planes_per_die = geom.planes_per_die;
  FLASHDB_ASSIGN_OR_RETURN(
      harness::Rig rig,
      harness::PrepareRig(env, spec, harness::RigSpec{.shards = num_shards}));
  const harness::Execution threaded{
      .batch = batch_size, .depth = depth, .threaded = true};
  return harness::ExecuteChecked(&rig, env.measure_ops, threaded);
}

}  // namespace

int main(int argc, char** argv) {
  harness::Flags flags(argc, argv);
  harness::ExperimentEnv env = harness::ExperimentEnv::FromFlags(flags);
  const uint32_t total_blocks = env.flash_cfg.geometry.num_blocks;
  const uint32_t num_shards = static_cast<uint32_t>(flags.GetInt("shards", 2));
  const uint32_t batch_size = static_cast<uint32_t>(flags.GetInt("batch", 8));
  const uint32_t depth = static_cast<uint32_t>(flags.GetInt("depth", 4));
  harness::JsonDump json(flags.GetString("json", ""));
  if (!flags.AllRead()) return 2;

  // 1x1 is the identity anchor; 1x2 and 1x4 grow one die's planes; 2x4 is
  // the modern two-die layout (8 planes, multi-plane erases per die).
  const std::vector<GeometryPoint> geometries = {
      {1, 1}, {1, 2}, {1, 4}, {2, 4}};

  std::printf(
      "Experiment 13: plane-striped allocation and multi-plane overlap, "
      "%u shards, %u blocks total, %llu ops\n(vt_speedup = virtual-time "
      "throughput over the method's 1x1 point; threaded check: pipelined "
      "K=%u)\n\n",
      num_shards, total_blocks,
      static_cast<unsigned long long>(env.measure_ops), depth);

  const std::vector<std::string> method_names = {"OPU", "PDL(256B)"};
  TablePrinter tbl({"Method", "dies", "planes", "vt us/op", "vt kops/s",
                    "vt_speedup", "stall/op", "wall_ms", "determinism"});
  int failures = 0;
  for (const std::string& name : method_names) {
    auto spec = methods::ParseMethodSpec(name);
    if (!spec.ok()) {
      std::cerr << spec.status().ToString() << "\n";
      return 1;
    }
    double base_vt_kops = 0;
    for (const GeometryPoint& geom : geometries) {
      auto point = RunPoint(env, *spec, geom, num_shards, batch_size, depth);
      if (!point.ok()) {
        std::cerr << name << " " << geom.dies << "x" << geom.planes_per_die
                  << ": " << point.status().ToString() << "\n";
        return 1;
      }
      const workload::RunStats& s = point->stats;
      const uint64_t elapsed_vt_us = point->cost.advance.elapsed_vt_us;
      const double vt_kops_per_sec =
          elapsed_vt_us > 0 ? 1000.0 * static_cast<double>(s.operations) /
                                  static_cast<double>(elapsed_vt_us)
                            : 0;
      if (geom.planes_per_chip() == 1) base_vt_kops = vt_kops_per_sec;
      const double speedup =
          base_vt_kops > 0 ? vt_kops_per_sec / base_vt_kops : 0;
      if (!point->deterministic()) failures++;
      tbl.AddRow({name, std::to_string(geom.dies),
                  std::to_string(geom.planes_per_die),
                  TablePrinter::Num(s.PerOp(elapsed_vt_us)),
                  TablePrinter::Num(vt_kops_per_sec, 2),
                  TablePrinter::Num(speedup, 2) + "x",
                  TablePrinter::Num(s.PerOp(s.plane_stall_us)),
                  TablePrinter::Num(point->cost.wall_ms, 2),
                  point->deterministic() ? "ok" : "FAIL"});
    }
  }
  tbl.Print(std::cout);
  json.Add("exp13_planes", tbl);
  if (!json.Finish()) return 1;
  if (failures != 0) {
    std::cerr << "\n" << failures
              << " configuration(s) broke virtual-time determinism\n";
    return 1;
  }
  return 0;
}
