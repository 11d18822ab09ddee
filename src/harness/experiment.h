// Shared experiment plumbing: builds a device + store + driver for a method,
// loads the database, reaches steady state, and measures a workload point.
// Every update-workload bench prepares its stores with PrepareRig and runs
// its measured operations with Execute, or with ExecuteChecked, which also
// replays them in the mirrored mode on a twin rig and compares the two.
// TPC-C rigs come from PrepareTpccRig and serve through ServeChecked, which
// replays their commit log on a twin. Any rig can also crash and remount a
// fresh store over its chips, to measure recovery.
//
// Rig::Measure is the one timer and the one reader of the chip clocks around
// a measured call: Execute, ServeChecked and Remount measure through it, and
// so may a bench, and each returns its Cost (wall ms and clock advance). Each
// measured call on a prepared rig is timed, traced under --trace and
// recorded as one epoch of the binary's metrics registry (Metrics()), which
// every --json dump carries; a replay twin, a load and a warm-up are none of
// these.
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

#include "common/function_ref.h"
#include "ftl/shard_router.h"
#include "harness/cli.h"
#include "harness/replay_verdict.h"
#include "methods/method_factory.h"
#include "obs/trace_recorder.h"
#include "workload/tpcc_driver.h"
#include "workload/update_driver.h"

namespace flashdb::flash {
class FaultInjector;
}  // namespace flashdb::flash
namespace flashdb::obs {
class MetricsRegistry;
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
  /// buffer-pool traffic, op spans) of every Rig::Measure call -- each
  /// Execute, the rig of each checked run or serve (never its twin) and
  /// each Rig::Remount recovery -- and exports it as Chrome trace-event
  /// JSON: the binary's first export to `trace_path`, export k to
  /// `<stem>.k.<ext>`. Recording never changes virtual-time results
  /// (null-sink contract, pinned by tests/execution_engine_test.cc).
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

/// Virtual time of a measured call over a rig's chips.
struct ClockAdvance {
  /// The largest per-chip clock advance: the elapsed time with the chips
  /// running in parallel.
  uint64_t elapsed_vt_us = 0;
  /// The sum of the per-chip advances: total device busy time.
  uint64_t total_work_us = 0;

  friend bool operator==(const ClockAdvance& a,
                         const ClockAdvance& b) = default;
};

/// What one measured call cost: Rig::Measure's one reading of it.
struct Cost {
  /// Host wall-clock of the call (never gated: machine-relative).
  double wall_ms = 0;
  /// Its chip-clock advance.
  ClockAdvance advance;
};

/// One measured point: a method under a workload.
struct PointResult {
  std::string method;
  workload::RunStats stats;
  Cost cost;
};

/// How Execute runs the measured operations.
struct Execution {
  /// Operations per per-shard window.
  uint32_t batch = 1;
  /// Windows in flight per shard. 0 runs the plain sequential Run() loop on
  /// the calling thread, drawing each operation just before it executes; it
  /// takes batch 1 and no threads (Execute refuses anything else).
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

/// A checked call's stats and cost, and the verdict of its replay on a twin.
template <typename Stats>
struct Checked {
  Stats stats;
  Cost cost;
  /// Empty when the replay agreed: FirstDivergence found every chip (clock,
  /// erase counts, cells) and, when traced, the canonical event stream
  /// identical, and every virtual stats field matched (SameVirtualAs; the
  /// wall-clock credit_wait_ns is excluded). Otherwise the first difference.
  std::string divergence;

  bool deterministic() const { return divergence.empty(); }
};
/// A measured update run (ExecuteChecked).
using CheckedRun = Checked<workload::RunStats>;
/// A TPC-C rig's measured transactions (ServeChecked).
using CheckedServe = Checked<workload::TpccRunStats>;

/// Chips, the store over them and its driver at steady state, and the
/// arguments they were prepared from. Two rigs prepared with equal arguments
/// hold bit-identical state, which ExecuteChecked's and ServeChecked's
/// replays rely on. An update rig (PrepareRig) has an UpdateDriver, a TPC-C
/// rig (PrepareTpccRig) a TpccDriver. The rig owns its chips, so a crash and
/// a remount leave them in place.
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
  /// The TPC-C driver; null for an update rig and after Crash().
  workload::TpccDriver* tpcc() { return tpcc_.get(); }
  /// Attaches `injector` and, with `rec`, lane i of `rec` to chip i and its
  /// wall lane to the driver (`rec` needs chips() lanes); a null argument
  /// detaches.
  void Attach(flash::FaultInjector* injector, obs::TraceRecorder* rec);
  /// The rig's chips and `trace`, for FirstDivergence.
  Twin AsTwin(const obs::TraceRecorder* trace = nullptr) const;

  /// Runs `fn` with `trace` (chips() lanes) attached while it runs -- when
  /// null, under --trace, a recorder of the harness's -- and returns its
  /// cost, the only reading of the chip clocks around a measured call.
  /// Under --trace the timeline is exported. Records one epoch of
  /// Metrics(): the cost ("cost"), the chip lanes' emitted and dropped event
  /// counts when traced ("trace"; the wall lane's credit waits vary from run
  /// to run), and a sharded rig's store stats ("store").
  Result<Cost> Measure(FunctionRef<Status()> fn,
                       obs::TraceRecorder* trace = nullptr);

  /// The power cut: drops the store and the driver (a TPC-C driver with its
  /// buffer pools), every table they kept in RAM, and keeps the chips with
  /// their flash images.
  void Crash();

  /// Crashes the rig if it still holds a store, then mounts a fresh store of
  /// its method over the same chips and recovers it: inline, or with
  /// `on_executor` on a ShardExecutor with one worker per chip (sharded rigs
  /// only). A sharded rig's journal, if its chips reserve meta blocks,
  /// restores the routing. Returns the recovery's Measure cost. A remounted
  /// rig has no driver: Execute, ExecuteChecked and ServeChecked refuse it
  /// with InvalidArgument.
  Result<Cost> Remount(bool on_executor);

 private:
  friend Result<Rig> PrepareRig(const ExperimentEnv& env,
                                const methods::MethodSpec& spec,
                                const RigSpec& shape);
  friend Result<PointResult> Execute(Rig* rig, uint64_t num_ops,
                                     const Execution& ex);
  friend Result<CheckedRun> ExecuteChecked(Rig* rig, uint64_t num_ops,
                                           const Execution& ex,
                                           flash::FaultInjector* injector,
                                           obs::TraceRecorder* trace);
  friend Result<Rig> PrepareTpccRig(const methods::MethodSpec& spec,
                                    const workload::TpccDriverOptions& opts,
                                    uint32_t shards, uint64_t warmup_tx,
                                    const std::string& trace_path,
                                    bool on_executor);
  friend Result<CheckedServe> ServeChecked(Rig* rig, uint64_t num_txns,
                                           obs::TraceRecorder* trace);
  /// `shape.shards` chips of `chip_cfg` and a store of `spec` over them.
  Rig(const ExperimentEnv& env, const methods::MethodSpec& spec,
      const RigSpec& shape, const flash::FlashConfig& chip_cfg);
  /// Builds a fresh store of spec_ over the chips.
  void Mount();
  /// Attaches lane i of `rec` to chip i and its wall lane to the driver;
  /// null detaches.
  void SetTrace(obs::TraceRecorder* rec);
  /// Measure, with `record` adding the call's own stats to its epoch.
  Result<Cost> Measure(FunctionRef<Status()> fn, obs::TraceRecorder* trace,
                       FunctionRef<void(obs::MetricsRegistry*)> record);
  /// Execute, traced into `trace` as Measure says.
  Result<PointResult> Run(uint64_t num_ops, const Execution& ex,
                          obs::TraceRecorder* trace);

  // The prepare call's arguments, for the replay's twin. Of env_ and
  // shape_, a TPC-C rig sets only env_.trace_path and shape_.shards.
  ExperimentEnv env_;
  methods::MethodSpec spec_;
  RigSpec shape_;
  workload::TpccDriverOptions tpcc_opts_;
  std::vector<std::unique_ptr<flash::FlashDevice>> chips_;
  std::unique_ptr<PageStore> store_;
  ftl::ShardedStore* sharded_ = nullptr;  // store_, when sharded
  std::unique_ptr<workload::UpdateDriver> driver_;
  std::unique_ptr<workload::TpccDriver> tpcc_;
  /// A TPC-C rig's commits before its driver's current commit_log(): the
  /// warm-up's, then each earlier ServeChecked's.
  workload::TpccCommitLog tpcc_log_;
  /// ExecuteChecked's replay twin: its Measure records and exports nothing.
  bool twin_ = false;
  /// Under --trace, the recorder of the last Measure given none, kept for
  /// the replay check.
  std::unique_ptr<obs::TraceRecorder> own_trace_;
};

/// Builds the store for `spec` on env.flash_cfg's blocks split evenly over
/// `shape.shards` chips. Each chip keeps env.flash_cfg's meta blocks, which
/// a sharded store journals its routing in (ShardedStore), and needs 8 data
/// blocks beside them (the GC reserve would eat most of a smaller chip).
/// Fewer blocks, a chip geometry FlashGeometry::Check refuses, or a
/// utilization that leaves the database no page is InvalidArgument naming
/// the field, before any chip is built. Then loads
/// env.num_db_pages(shape.shards) pages -- rounded down to whole buckets
/// when leveling, so every bucket swap pairs equal buckets -- and warms up
/// to env's steady state, capped at env.warmup_max_ops operations or, when
/// that is 0, 20 per database page. Draws nothing of the measured run:
/// Execute does that.
Result<Rig> PrepareRig(const ExperimentEnv& env,
                       const methods::MethodSpec& spec, const RigSpec& shape);

/// Draws `num_ops` operations from the rig's driver and runs them as `ex`
/// says through Rig::Measure. InvalidArgument for zero operations, for a
/// TPC-C, crashed or remounted rig, and for depth 0 with `threaded` or a
/// batch other than 1. A pipelined run draws its schedule and starts its
/// workers before Measure, so wall_ms excludes both. Its epoch adds the
/// run stats ("run") and, when threaded, the executor's counters
/// ("executor").
Result<PointResult> Execute(Rig* rig, uint64_t num_ops, const Execution& ex);

/// The benches' one replay check. Executes the warmed `rig` as `ex` says,
/// traced into `trace` (when not null, with chips() lanes) as Execute's
/// Measure says, then prepares a twin from the rig's PrepareRig arguments
/// and replays the same operations on it in the mirrored mode: a threaded
/// run inline and an inline one threaded, at the same batch and depth; the
/// sequential loop as single-op windows through a threaded pipeline of
/// depth 4. `injector` (when not null) is attached to both rigs after
/// warm-up. When the rig's run was traced, the twin's records into a
/// recorder of its own; the twin records no epoch and exports no timeline.
/// Returns the rig's run stats and cost and the verdict, and prints a failed
/// verdict's divergence to stderr; the rig stays the caller's to inspect.
Result<CheckedRun> ExecuteChecked(Rig* rig, uint64_t num_ops,
                                  const Execution& ex,
                                  flash::FaultInjector* injector = nullptr,
                                  obs::TraceRecorder* trace = nullptr);

/// A TPC-C rig over `shards` chips of FlashConfig::Small geometry, each
/// sized for the fullest shard's TPC-C pages at ~50% utilization: a
/// ShardedStore formatted over them and a TpccDriver of `opts` over it,
/// loaded and warmed up by `warmup_tx` served transactions on a
/// ShardExecutor with one worker per chip, or inline when not `on_executor`
/// (the per-shard state is the same either way). With `trace_path`
/// (--trace), ServeChecked and Measure export the rig's timelines. Zero
/// shards, or more shards than warehouses, is InvalidArgument.
Result<Rig> PrepareTpccRig(const methods::MethodSpec& spec,
                           const workload::TpccDriverOptions& opts,
                           uint32_t shards, uint64_t warmup_tx,
                           const std::string& trace_path = "",
                           bool on_executor = true);

/// The TPC-C counterpart of ExecuteChecked. Serves `num_txns` transactions
/// of the rig's clients on a ShardExecutor with one worker per chip, then
/// prepares a twin from the rig's PrepareTpccRig arguments, loaded inline,
/// and replays the rig's whole commit log on it inline: the warm-up and
/// earlier ServeChecked serves first (a serve through rig->tpcc() directly
/// is not in that log), then this serve's. The serve runs through
/// Rig::Measure, traced into `trace` (when not null, with chips() lanes) as
/// Measure says; its epoch adds the TPC-C stats ("tpcc"). When it was
/// traced, the twin records the replayed serve into a recorder of its own.
/// InvalidArgument for an update, crashed or remounted rig. Returns the
/// rig's serve stats and cost and the verdict (ExecuteChecked's comparison
/// step), and prints a failed verdict's divergence to stderr.
Result<CheckedServe> ServeChecked(Rig* rig, uint64_t num_txns,
                                  obs::TraceRecorder* trace = nullptr);

/// A flat rig for `spec` (PrepareRig), measured for `env.measure_ops`
/// operations by the sequential Run() loop (Execute).
Result<PointResult> RunWorkloadPoint(const ExperimentEnv& env,
                                     const methods::MethodSpec& spec,
                                     const workload::WorkloadParams& params);

/// A table header: `first`, then the names of methods::PaperMethodSet() in
/// its order, the order a row's cells are filled in.
std::vector<std::string> PaperMethodHeader(std::string first);

/// The binary's metrics registry: one epoch per Rig::Measure call on a
/// prepared rig, holding only the values that call set, each under one
/// name. JsonDump writes it as "metrics".
const obs::MetricsRegistry& Metrics();

}  // namespace flashdb::harness

#endif  // FLASHDB_HARNESS_EXPERIMENT_H_
