// Shared experiment plumbing: builds a device + store + driver for a method,
// loads the database, reaches steady state, and measures a workload point.
// Every update-workload bench prepares its stores with PrepareRig and times
// its measured runs with Execute, or with ExecuteChecked, which also replays
// them in the mirrored mode on a twin rig and compares the two. A rig can
// also crash and remount a fresh store over its chips, to measure recovery.
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
#include <vector>

#include "ftl/shard_router.h"
#include "harness/cli.h"
#include "harness/replay_verdict.h"
#include "methods/method_factory.h"
#include "workload/tpcc_driver.h"
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
  /// When non-empty (--trace=out.json), the harness records a
  /// deterministic event timeline (flash command spans, GC/scrub/meta/
  /// buffer-pool traffic, op spans) of every measured run -- the rig of
  /// every checked run (never its twin), every RunWorkloadPoint run and
  /// every Rig::Remount recovery -- and exports it as Chrome trace-event
  /// JSON: the binary's first export to `trace_path`, export k to
  /// PointTracePath(trace_path, k). Recording never changes virtual-time
  /// results (null-sink contract, pinned by tests/execution_engine_test.cc).
  std::string trace_path;

  /// Database pages over `chips` chips that split `flash_cfg`'s blocks
  /// evenly: `utilization` of every chip's data region (the pages outside
  /// its meta blocks) less two blocks of headroom. The headroom keeps
  /// IPL(64KB) feasible at 50% utilization: its per-block log region (half
  /// the block) means the database occupies the whole chip, and merging
  /// still needs one spare block.
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
  /// Empty when the replay agreed: FirstDivergence found every chip (clock,
  /// erase counts, cells) and, when traced, the canonical event stream
  /// identical, and every virtual RunStats field matched
  /// (RunStats::SameVirtualAs; the wall-clock credit_wait_ns is excluded).
  /// Otherwise the first difference.
  std::string divergence;

  bool deterministic() const { return divergence.empty(); }
};

/// Chips, the store over them and its driver at steady state, and the
/// arguments they were prepared from. Two rigs prepared with equal arguments
/// hold bit-identical state, which ExecuteChecked's replay relies on. The
/// rig owns its chips, so a crash and a remount leave them in place.
class Rig {
 public:
  Rig(Rig&&) = default;
  // No move assignment: memberwise order would free the chips before the
  // store that writes to them.
  Rig& operator=(Rig&&) = delete;

  /// The store; null after Crash().
  PageStore* store() { return store_.get(); }
  /// The store as a ShardedStore; null for a flat rig and after Crash().
  ftl::ShardedStore* sharded() { return sharded_; }
  uint32_t chips() const { return static_cast<uint32_t>(chips_.size()); }
  /// Attaches `injector` and, with `rec`, lane i of `rec` to chip i and its
  /// wall lane to the driver (`rec` needs chips() lanes); a null argument
  /// detaches.
  void Attach(flash::FaultInjector* injector, obs::TraceRecorder* rec);
  /// The rig's chips and `trace`, for FirstDivergence.
  Twin AsTwin(const obs::TraceRecorder* trace = nullptr) const;

  /// The power cut: drops the store and the driver, every table they kept
  /// in RAM, and keeps the chips with their flash images.
  void Crash();

  /// One remount's recovery.
  struct Recovery {
    /// Host wall-clock of the Recover() call.
    double wall_ms = 0;
    /// Its chip-clock advance (workload::ClockAdvanceOf).
    workload::ClockAdvance advance;
  };
  /// Crashes the rig if it still holds a store, then mounts a fresh store of
  /// its method over the same chips and recovers it: inline, or with
  /// `on_executor` on a ShardExecutor with one worker per chip (sharded rigs
  /// only). A sharded rig's journal, if its chips reserve meta blocks,
  /// restores the routing. A remounted rig has no driver: Execute and
  /// ExecuteChecked refuse it with InvalidArgument.
  Result<Recovery> Remount(bool on_executor);

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
  /// Builds a fresh store of spec_ over the chips.
  void Mount();
  /// Attaches lane i of `rec` to chip i and its wall lane to the driver;
  /// null detaches.
  void SetTrace(obs::TraceRecorder* rec);

  ExperimentEnv env_;  // PrepareRig's arguments, for the replay's twin
  methods::MethodSpec spec_;
  RigSpec shape_;
  std::vector<std::unique_ptr<flash::FlashDevice>> chips_;
  std::unique_ptr<PageStore> store_;
  ftl::ShardedStore* sharded_ = nullptr;  // store_, when sharded
  std::unique_ptr<workload::UpdateDriver> driver_;
};

/// Builds the store for `spec` on env.flash_cfg's blocks split evenly over
/// `shape.shards` chips. Each chip keeps env.flash_cfg's meta blocks, which
/// a sharded store journals its routing in (ShardedStore), and needs 8 data
/// blocks beside them: fewer is InvalidArgument before any chip is built
/// (the GC reserve would eat most of the chip). Then loads
/// env.num_db_pages(shape.shards) pages -- rounded down to whole buckets
/// when leveling, so every bucket swap pairs equal buckets -- and warms up
/// to env's steady state, capped at env.warmup_max_ops operations or, when
/// that is 0, 20 per database page. Draws nothing of the measured run:
/// Execute does that.
Result<Rig> PrepareRig(const ExperimentEnv& env,
                       const methods::MethodSpec& spec, const RigSpec& shape);

/// Draws `num_ops` operations from the rig's driver and runs them as `ex`
/// says (InvalidArgument for zero, or for a crashed or remounted rig). Only
/// the run is timed: a pre-drawn schedule and the worker start-up stay
/// outside wall_ms. With `metrics`, imports the run stats under "run" and,
/// when threaded, the executor's counters under "executor".
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
/// warm-up. Under --trace an untraced run records into a recorder of the
/// harness's, and the rig's timeline is exported. Returns the rig's run and
/// the verdict, and prints a failed verdict's divergence to stderr; the rig
/// stays the caller's to inspect.
Result<CheckedRun> ExecuteChecked(Rig* rig, uint64_t num_ops,
                                  const Execution& ex,
                                  obs::MetricsRegistry* metrics = nullptr,
                                  flash::FaultInjector* injector = nullptr,
                                  obs::TraceRecorder* trace = nullptr);

/// A formatted TPC-C serving rig: a ShardedStore over FlashConfig::Small
/// chips sized for ~50% utilization (as exp7 sizes its chip) and a
/// TpccDriver over it. TPC-C formats its own page layout and serves through
/// the TpccDriver, so it has a rig of its own. Two rigs prepared with equal
/// arguments hold bit-identical state, which a commit-log replay relies on.
struct TpccRig {
  std::unique_ptr<ftl::ShardedStore> store;
  std::unique_ptr<workload::TpccDriver> driver;

  /// Attaches lane i of `rec` to chip i and its wall lane to the driver;
  /// only while the workers are quiescent.
  void Attach(obs::TraceRecorder* rec);
};
Result<TpccRig> PrepareTpccRig(const methods::MethodSpec& spec,
                               const workload::TpccDriverOptions& opts,
                               uint32_t shards);

/// A flat rig for `spec` (PrepareRig), measured for `env.measure_ops`
/// operations by the sequential Run() loop. With --trace the measured run's
/// timeline is exported.
Result<PointResult> RunWorkloadPoint(const ExperimentEnv& env,
                                     const methods::MethodSpec& spec,
                                     const workload::WorkloadParams& params);

/// Per-export trace file naming under --trace: index 0 keeps `base`, index
/// k becomes `<stem>.k.<ext>` (benches measure several points per run, each
/// with its own timeline).
std::string PointTracePath(const std::string& base, uint64_t index);

}  // namespace flashdb::harness

#endif  // FLASHDB_HARNESS_EXPERIMENT_H_
