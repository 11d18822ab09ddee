// Shared experiment plumbing: builds a device + store + driver for a method,
// loads the database, reaches steady state, and measures a workload point.
// Every update-workload bench prepares its stores with PrepareRig and times
// its measured runs with Execute, or with ExecuteChecked, which also replays
// them in the mirrored mode on a twin rig and compares the two.
//
// Scale note: the paper runs a 1 GB database on a 2 GB chip and warms up
// until every block was garbage-collected >= 10 times. Virtual-time results
// per operation are scale-invariant once steady state is reached, so benches
// default to a smaller chip with the same 50% utilization; pass
// --blocks=32768 --warmup-epb=10 (and a large --warmup-max) for paper scale.

#ifndef FLASHDB_HARNESS_EXPERIMENT_H_
#define FLASHDB_HARNESS_EXPERIMENT_H_

#include <memory>
#include <optional>
#include <string>

#include "ftl/shard_router.h"
#include "harness/cli.h"
#include "methods/method_factory.h"
#include "workload/update_driver.h"

namespace flashdb::flash {
class FaultInjector;
}  // namespace flashdb::flash
namespace flashdb::obs {
class MetricsRegistry;
class TraceRecorder;
}  // namespace flashdb::obs

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
  /// When non-empty (--trace=out.json), every measured point records a
  /// deterministic event timeline (flash command spans, GC/scrub/meta/
  /// buffer-pool traffic, op spans) and exports it as Chrome trace-event
  /// JSON: the first point to `trace_path`, point k to `<stem>.k.<ext>`.
  /// Recording never changes virtual-time results (null-sink contract,
  /// pinned by tests/trace_test.cc).
  std::string trace_path;

  /// Database pages over `chips` chips that split `flash_cfg`'s blocks
  /// evenly: `utilization` of every chip's pages less two blocks of
  /// headroom. The headroom keeps IPL(64KB) feasible at 50% utilization: its
  /// per-block log region (half the block) means the database occupies the
  /// whole chip, and merging still needs one spare block.
  uint32_t num_db_pages(uint32_t chips = 1) const;

  /// Common bench flags: --blocks, --page-size, --util, --warmup-epb,
  /// --warmup-max, --ops, --seed, --tread, --twrite, --terase, --dies,
  /// --planes, --trace.
  static ExperimentEnv FromFlags(const Flags& flags);
};

/// One measured point: a method under a workload.
struct PointResult {
  std::string method;
  workload::RunStats stats;
  /// Host wall-clock of the measured run (never gated: machine-relative).
  double wall_ms = 0;
};

/// How Execute runs the measured operations.
struct Execution {
  /// Operations per per-shard window.
  uint32_t batch = 1;
  /// Windows in flight per shard. 0 runs the plain sequential Run() loop on
  /// the calling thread, drawing each operation just before it executes
  /// (the other fields are then unused).
  uint32_t depth = 0;
  /// Streams the windows to a fresh ShardExecutor with one worker per chip
  /// instead of running them on the calling thread. Each worker's ring
  /// holds `depth` windows, the most the credits keep in flight, so no
  /// submission blocks on a full ring.
  bool threaded = false;
  /// Pins worker i to core i mod the available cores: a wall-clock knob
  /// that never moves virtual time.
  bool pin = false;
};

/// Shape of the rig PrepareRig builds.
struct RigSpec {
  /// Chips the flash capacity (env.flash_cfg's blocks) is split over.
  uint32_t shards = 1;
  /// One chip driven through the method's own store instead of a
  /// ShardedStore; needs shards == 1.
  bool flat = false;
  /// Cross-shard wear leveling, enabled before the load; sharded rigs only.
  std::optional<ftl::WearLevelConfig> leveling = std::nullopt;
  /// Workload of the load, the warmup and the measured run; its seed is
  /// replaced by env.seed.
  workload::WorkloadParams params = {};
};

/// A measured run and the verdict of its cross-mode replay.
struct CheckedRun {
  PointResult run;
  /// The replay left every chip with the same virtual clock and erase
  /// count, agreed on every virtual RunStats field (RunStats::SameVirtualAs;
  /// the wall-clock credit_wait_ns is excluded) and, when traced, recorded
  /// the same canonical event bytes.
  bool deterministic = false;
};

/// A store plus its driver at steady state, and the arguments it was
/// prepared from. Two rigs prepared with equal arguments hold bit-identical
/// state, which ExecuteChecked's replay relies on.
class Rig {
 public:
  Rig(Rig&&) = default;
  // No move assignment: memberwise order would free a flat rig's chip
  // before the store that writes to it.
  Rig& operator=(Rig&&) = delete;

  PageStore* store() { return store_.get(); }
  /// The store as a ShardedStore; null for a flat rig.
  ftl::ShardedStore* sharded() { return sharded_; }
  uint32_t chips() const;

 private:
  friend Result<Rig> PrepareRig(const ExperimentEnv& env,
                                const methods::MethodSpec& spec,
                                const RigSpec& shape);
  friend Result<PointResult> Execute(Rig* rig, uint64_t num_ops,
                                     const Execution& ex,
                                     obs::MetricsRegistry* metrics);
  friend Result<CheckedRun> ExecuteChecked(Rig* rig, uint64_t num_ops,
                                           const Execution& ex,
                                           obs::MetricsRegistry* metrics,
                                           flash::FaultInjector* injector,
                                           obs::TraceRecorder* trace);
  friend Result<PointResult> RunWorkloadPoint(
      const ExperimentEnv& env, const methods::MethodSpec& spec,
      const workload::WorkloadParams& params);
  Rig() = default;
  flash::FlashDevice* chip(uint32_t i);
  /// Attaches `injector` to every chip and, when `rec` is not null, its
  /// lane i to chip i and its wall lane to the driver (`rec` needs chips()
  /// lanes).
  void Attach(flash::FaultInjector* injector, obs::TraceRecorder* rec);

  ExperimentEnv env_;  // PrepareRig's arguments, for the replay's twin
  methods::MethodSpec spec_;
  RigSpec shape_;
  std::unique_ptr<flash::FlashDevice> flat_chip_;  // flat rigs only
  std::unique_ptr<PageStore> store_;
  ftl::ShardedStore* sharded_ = nullptr;  // store_, when sharded
  std::unique_ptr<workload::UpdateDriver> driver_;
};

/// Builds the store for `spec` on env.flash_cfg's blocks split evenly over
/// `shape.shards` chips (InvalidArgument below 8 blocks per chip: the GC
/// reserve would eat most of the chip), loads env.num_db_pages(shape.shards)
/// pages and warms up to env's steady state, capped at
/// env.warmup_max_ops operations or, when that is 0, 20 per database page.
/// Draws nothing of the measured run: Execute does that.
Result<Rig> PrepareRig(const ExperimentEnv& env,
                       const methods::MethodSpec& spec, const RigSpec& shape);

/// Draws `num_ops` operations from the rig's driver and runs them as `ex`
/// says (InvalidArgument for zero). Only the run is timed: a pre-drawn
/// schedule and the worker start-up stay outside wall_ms. With `metrics`,
/// imports the run stats under "run" and, when threaded, the executor's
/// counters under "executor".
Result<PointResult> Execute(Rig* rig, uint64_t num_ops, const Execution& ex,
                            obs::MetricsRegistry* metrics = nullptr);

/// The benches' one replay check. Executes the warmed `rig` as `ex` says
/// (with `metrics`, as Execute does), then prepares a twin from the rig's
/// PrepareRig arguments and replays the same operations on it in the
/// mirrored mode: a threaded run inline and an inline one threaded, at the
/// same batch and depth; the sequential loop as single-op windows through a
/// threaded pipeline of depth 4. `injector` (when not null) is attached to
/// both rigs, and `trace` (when not null, with chips() lanes) to the rig
/// while the twin records into a recorder of its own; both attach after
/// warm-up. Returns the rig's run and the verdict; the rig stays the
/// caller's to inspect.
Result<CheckedRun> ExecuteChecked(Rig* rig, uint64_t num_ops,
                                  const Execution& ex,
                                  obs::MetricsRegistry* metrics = nullptr,
                                  flash::FaultInjector* injector = nullptr,
                                  obs::TraceRecorder* trace = nullptr);

/// A flat rig for `spec` (PrepareRig), measured for `env.measure_ops`
/// operations by the sequential Run() loop. With --trace the measured run's
/// timeline is exported (PointTracePath).
Result<PointResult> RunWorkloadPoint(const ExperimentEnv& env,
                                     const methods::MethodSpec& spec,
                                     const workload::WorkloadParams& params);

/// Per-point trace file naming under --trace: index 0 keeps `base`, index k
/// becomes `<stem>.k.<ext>` (benches measure several points per run, each
/// with its own timeline).
std::string PointTracePath(const std::string& base, uint64_t index);

}  // namespace flashdb::harness

#endif  // FLASHDB_HARNESS_EXPERIMENT_H_
