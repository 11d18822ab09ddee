// Shared experiment plumbing: builds a device + store + driver for a method,
// loads the database, reaches steady state, and measures a workload point.
//
// Scale note: the paper runs a 1 GB database on a 2 GB chip and warms up
// until every block was garbage-collected >= 10 times. Virtual-time results
// per operation are scale-invariant once steady state is reached, so benches
// default to a smaller chip with the same 50% utilization; pass
// --blocks=32768 --warmup-epb=10 (and a large --warmup-max) for paper scale.

#ifndef FLASHDB_HARNESS_EXPERIMENT_H_
#define FLASHDB_HARNESS_EXPERIMENT_H_

#include <memory>
#include <string>

#include "harness/cli.h"
#include "methods/method_factory.h"
#include "workload/update_driver.h"

namespace flashdb::harness {

/// Environment shared by every workload point of an experiment.
struct ExperimentEnv {
  flash::FlashConfig flash_cfg;
  /// Fraction of flash data capacity occupied by the database (paper: 0.5).
  double utilization = 0.5;
  /// Steady-state warm-up: average erases per block before measuring.
  double warmup_erases_per_block = 10.0;
  /// Warm-up operation cap; 0 = "20 update operations per database page",
  /// which matches the depth the paper's 10-erases-per-block protocol
  /// reaches at its scale (~10.5M ops over 512K pages). The cap matters for
  /// PDL(2KB): differentials grow cumulatively with the number of updates a
  /// page has absorbed since its last base-page write, so the operating
  /// point depends on update depth, not just on GC steady state (see
  /// bench/ablation_warmup_depth).
  uint64_t warmup_max_ops = 0;
  uint64_t measure_ops = 4000;
  uint64_t seed = 42;
  /// Measured-run execution mode (--pipeline=K). 0 runs the plain
  /// sequential Run() loop. K > 0 pre-draws the schedule and streams it
  /// depth-K to a one-worker ShardExecutor via RunPipelined with window
  /// size 1 -- the single-chip threaded mode, bit-identical to sequential
  /// (single-op windows read every page from flash and flush immediately,
  /// so scheduled execution degenerates to exactly the Run() sequence).
  uint32_t pipeline_depth = 0;
  /// When non-empty (--trace=out.json), every measured point records a
  /// deterministic event timeline (flash command spans, GC/scrub/meta/
  /// buffer-pool traffic, op spans) and exports it as Chrome trace-event
  /// JSON: the first point to `trace_path`, point k to `<stem>.k.<ext>`.
  /// Recording never changes virtual-time results (null-sink contract,
  /// pinned by tests/trace_test.cc).
  std::string trace_path;

  uint32_t num_db_pages() const {
    // Two blocks of headroom keep IPL(64KB) feasible at 50% utilization: its
    // per-block log region (half the block) means the database occupies the
    // whole chip, and merging still needs one spare block.
    const auto& g = flash_cfg.geometry;
    return static_cast<uint32_t>(
        utilization *
        static_cast<double>(g.total_pages() - 2 * g.pages_per_block));
  }

  /// Common bench flags: --blocks, --page-size, --util, --warmup-epb,
  /// --warmup-max, --ops, --seed, --tread, --twrite, --terase, --dies,
  /// --planes, --pipeline, --trace.
  static ExperimentEnv FromFlags(const Flags& flags);
};

/// One measured point: a method under a workload.
struct PointResult {
  std::string method;
  workload::RunStats stats;
};

/// Builds a fresh device+store for `spec`, loads `env.num_db_pages()` pages,
/// warms up to steady state, then measures `env.measure_ops` operations.
Result<PointResult> RunWorkloadPoint(const ExperimentEnv& env,
                                     const methods::MethodSpec& spec,
                                     const workload::WorkloadParams& params);

/// The benches' replay check: true when two executions of one schedule left
/// every chip with the same virtual clock and erase count and agree on
/// every virtual RunStats field (RunStats::SameVirtualAs; the wall-clock
/// credit_wait_ns is excluded). Either store may be flat or sharded.
bool SameVirtualRun(PageStore* a, const workload::RunStats& sa, PageStore* b,
                    const workload::RunStats& sb);

/// Per-point trace file naming under --trace: index 0 keeps `base`, index k
/// becomes `<stem>.k.<ext>` (benches measure several points per run, each
/// with its own timeline).
std::string PointTracePath(const std::string& base, uint64_t index);

}  // namespace flashdb::harness

#endif  // FLASHDB_HARNESS_EXPERIMENT_H_
