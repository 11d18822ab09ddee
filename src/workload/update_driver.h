// The synthetic workload driver of Section 5.1.
//
// An *update operation* follows the paper's definition: (1) read the
// addressed page (the reading step); (2) change the data in the page --
// `N_updates_till_write` in-memory update commands, each touching a random
// contiguous region of `%ChangedByOneU_Op` percent of the page; (3) write the
// updated page (the writing step). Experiments run these with the DBMS buffer
// excluded, so read/write/overall performance is measured directly.
//
// A *read-only operation* performs only the reading step. Experiment 4 mixes
// the two kinds with probability `%UpdateOps`.
//
// The driver tags device traffic with OpCategory::kReadStep / kWriteStep so
// harnesses can reproduce the paper's stacked breakdown; garbage collection
// performed inside the store is tagged kGc by the store itself and is
// amortized into the writing step when reported (as the paper does).

#ifndef FLASHDB_WORKLOAD_UPDATE_DRIVER_H_
#define FLASHDB_WORKLOAD_UPDATE_DRIVER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/function_ref.h"
#include "common/random.h"
#include "flash/flash_stats.h"
#include "ftl/page_store.h"
#include "workload/run_accounting.h"

namespace flashdb::ftl {
class ShardExecutor;
class ShardedStore;
}  // namespace flashdb::ftl

namespace flashdb::obs {
class TraceShard;
}  // namespace flashdb::obs

namespace flashdb::workload {

/// Parameters of the synthetic workload (Table 3).
struct WorkloadParams {
  double pct_changed_by_one_op = 2.0;  ///< %ChangedByOneU_Op
  uint32_t updates_till_write = 1;     ///< N_updates_till_write
  double pct_update_ops = 100.0;       ///< %UpdateOps (Exp. 4)
  uint64_t seed = 42;
  /// Shard-targeted skew (beyond the paper): this percentage of operations
  /// draws its pid from shard 0's residue class (pid % num_shards == 0)
  /// instead of uniformly, turning shard 0 into a deliberate hotspot --
  /// exactly the one-slow-chip scenario pipelined execution is built to
  /// absorb. 0 (the default) keeps the uniform draw and consumes the RNG
  /// identically to older versions; ignored on a non-sharded store.
  double hot_shard_pct = 0.0;
  /// Wear-leveling epoch length for RunPipelined: every this-many
  /// operations the driver quiesces the shards at a window boundary, feeds
  /// the epoch's per-bucket write counts to the store's ShardRouter, and
  /// executes any bucket migrations the router plans -- then re-partitions
  /// the rest of the schedule under the new assignment. 0 (the default)
  /// disables epoch splitting entirely. Splitting applies whenever this is
  /// non-zero -- even with the router disabled, so leveling-off reference
  /// runs share the leveling-on runs' window boundaries -- but migrations
  /// only happen on a ShardedStore whose router has rebalancing enabled, at
  /// identical virtual-time points inline and threaded (determinism is
  /// preserved). Run() and Warmup() never split. RunPipelined refuses 0 on
  /// a store whose router rebalances, or with `scrub` on a sharded store.
  uint64_t rebalance_epoch_ops = 0;
  /// Maintain an in-memory shadow database and verify every page read
  /// against it (tests; costs RAM proportional to the database).
  bool verify = false;
  /// Background integrity scrub for RunPipelined: at every epoch boundary
  /// (rebalance_epoch_ops windows -- scrub shares the rebalancer's quiescent
  /// boundaries and needs a non-zero epoch length) the driver drains the
  /// shards' scrub-candidate lists and relocates the flagged live pages
  /// (ShardedStore::ScrubShards). Deterministic inline and threaded; ignored
  /// on a non-sharded store.
  bool scrub = false;
  /// Sample every operation's virtual latency into RunStats::latency (and
  /// track the worst op with its per-cause breakdown). An op's latency is
  /// the advance of its owning chip's virtual clock from the op's start to
  /// its write-back completion. Windows flush write by write (WriteBack)
  /// either way; recording only samples each write-back's clock delta, so
  /// it never changes any gated virtual-time column.
  bool record_latency = false;
};

/// Virtual-time breakdown of a measured run: what its operations did on the
/// device, by category. Its elapsed time and total work are the chip-clock
/// advance that harness::Rig::Measure reads around the call. The OpSamples
/// base holds the per-operation latency (WorkloadParams::record_latency
/// only): the distribution of per-op virtual latency in microseconds, merged
/// across shards by counter addition so it is bit-identical across the
/// inline and threaded executions of one schedule, and the slowest op with
/// its per-cause attribution. Both stay empty when recording is off.
/// Epoch-boundary work (bucket migration, scrub sweeps, the migration
/// journal) runs while the shards are quiescent and belongs to no operation,
/// so it appears in the migrate/scrub/meta counters but never in the
/// samples.
struct RunStats : OpSamples {
  uint64_t operations = 0;        ///< Operations executed (cycles + reads).
  uint64_t update_ops = 0;        ///< Of which update operations.
  /// Device traffic of the run: the delta of the store's counters, summed
  /// over every chip. device.of(kReadStep) is the reading step, kWriteStep
  /// the writing step without GC, kGc garbage collection and merging,
  /// kMigrate / kMeta / kScrub the wear-leveling, journal and scrub
  /// traffic; device.integrity classifies the run's reads.
  flash::DeviceCounters device;
  uint64_t migrations = 0;        ///< Bucket swaps committed during the run.
  uint64_t scrub_candidates = 0;  ///< Flagged pages drained by scrub sweeps.
  uint64_t scrub_relocations = 0; ///< Live pages the scrubber rewrote.

  // --- Stall attribution --------------------------------------------------
  // Where an operation's virtual time went beyond the raw command latencies:
  // the device categories above attribute induced traffic; the two fields
  // below attribute waiting.
  /// Virtual time ops spent queued behind same-plane work while another
  /// plane of the chip was idle (delta of FlashStats::plane_stall_us over
  /// every chip). 0 on single-plane geometries.
  uint64_t plane_stall_us = 0;
  /// Wall-clock nanoseconds the producer spent parked waiting for a
  /// per-shard credit (threaded RunPipelined only; 0 elsewhere). Wall time,
  /// not virtual time: excluded from determinism comparisons.
  uint64_t credit_wait_ns = 0;

  /// `v` per operation (0 for an empty run).
  double PerOp(uint64_t v) const {
    return operations == 0 ? 0
                           : static_cast<double>(v) /
                                 static_cast<double>(operations);
  }
  /// Paper-style per-operation figures (microseconds).
  double read_us_per_op() const {
    return PerOp(device.of(flash::OpCategory::kReadStep).total_us());
  }
  /// GC is amortized into the write cost, as in Fig. 12b.
  double write_us_per_op() const {
    return PerOp(device.of(flash::OpCategory::kWriteStep).total_us() +
                 device.of(flash::OpCategory::kGc).total_us());
  }
  double overall_us_per_op() const {
    return read_us_per_op() + write_us_per_op();
  }
  /// Wear-leveling copy cost, reported separately from the paper-style
  /// read/write breakdown (the paper has no migration traffic).
  double migrate_us_per_op() const {
    return PerOp(device.of(flash::OpCategory::kMigrate).total_us());
  }
  double erases_per_op() const { return PerOp(device.total.erases); }
  /// Background-scrub cost, reported separately like migration.
  double scrub_us_per_op() const {
    return PerOp(device.of(flash::OpCategory::kScrub).total_us());
  }
  double retry_us_per_op() const { return PerOp(device.integrity.retry_us); }

  /// Equality of every virtual field -- all of RunStats but the wall-clock
  /// credit_wait_ns. Two executions of one schedule must agree on it.
  bool SameVirtualAs(RunStats other) const {
    other.credit_wait_ns = credit_wait_ns;
    return *this == other;
  }
  friend bool operator==(const RunStats& a, const RunStats& b) = default;
};

/// One pre-generated in-memory update command of a planned operation.
struct PlannedUpdate {
  uint32_t offset = 0;
  ByteBuffer data;
};

/// One planned operation: an update cycle (read + updates + write-back) or a
/// read-only operation, with every random choice already drawn.
struct PlannedOp {
  PageId pid = 0;
  bool is_update = true;
  /// The update commands; only meaningful when is_update.
  std::vector<PlannedUpdate> updates;
};

/// A deterministic operation schedule. Pre-generating the schedule moves the
/// RNG off the measured path and -- more importantly -- fixes each shard's
/// operation subsequence up front, so threaded execution is exactly as
/// deterministic as inline execution (thread interleaving cannot reorder the
/// ops any one chip sees).
using Schedule = std::vector<PlannedOp>;

/// See file comment.
///
/// Execution engine. Every run mode is one engine: operations are routed to
/// per-shard streams (one stream on a flat store), each stream executes its
/// ops in windows of `batch_size` -- reads of a page with a queued
/// write-back are served from the queued image, and the window's
/// write-backs flush together -- and windows stream to the shards through a
/// CreditStream whose executor is either inline (null) or threaded. Run()
/// and Warmup() are the same window body at batch 1, drawing each op just
/// before executing it.
class UpdateDriver {
 public:
  UpdateDriver(PageStore* store, const WorkloadParams& params);

  /// Loads the database: formats the store with pseudo-random page images.
  Status LoadDatabase(uint32_t num_pages);

  /// Runs update operations until every block has been erased
  /// `erases_per_block` times on average (steady state; the paper uses 10),
  /// or until `max_ops` operations, whichever first. Never records latency.
  Status Warmup(double erases_per_block, uint64_t max_ops);

  /// Runs `num_ops` operations (mixed per pct_update_ops) one at a time,
  /// drawing each just before it executes, and accumulates into `*out`
  /// (which the caller zero-initializes). Equal to MakeSchedule(num_ops)
  /// followed by RunPipelined at batch 1 without epochs.
  Status Run(uint64_t num_ops, RunStats* out);

  /// Pre-draws `num_ops` operations with exactly the distributions (and RNG
  /// consumption) of Run().
  Schedule MakeSchedule(uint64_t num_ops);

  /// Executes `schedule` in per-shard windows of `batch_size`, keeping at
  /// most `max_inflight` windows outstanding per shard. With `executor`
  /// null every window runs on the calling thread; otherwise windows stream
  /// round-robin across the shards (shard i on worker i, or the whole flat
  /// store on worker 0) with per-shard credits returned by completion
  /// callbacks, so a hot shard never blocks the cold ones and there is no
  /// global join anywhere in the run. Windows of one shard run in schedule
  /// order either way, so per-shard device state, stats, histograms and
  /// virtual clocks are bit-identical inline and threaded, at any depth. On
  /// the first window error submission stops and the in-flight windows
  /// drain before the error returns. `max_inflight` should not exceed the
  /// executor's ring capacity or submission degrades to blocking pushes.
  /// Accumulates into `*out`.
  Status RunPipelined(const Schedule& schedule, uint32_t batch_size,
                      uint32_t max_inflight, ftl::ShardExecutor* executor,
                      RunStats* out);

  /// One read-only operation against page `pid` (verified against the
  /// shadow database when WorkloadParams::verify is set).
  Status ReadOperation(PageId pid);

  PageStore* store() { return store_; }
  Random& rng() { return rng_; }
  uint32_t num_pages() const { return num_pages_; }

  /// Wall-clock-domain trace lane (TraceRecorder::wall_lane()) for the
  /// producer's credit-wait events. Written only by the submitting thread;
  /// null disables. Per-shard virtual-time events attach one layer down via
  /// FlashDevice::set_trace.
  void set_wall_trace(obs::TraceShard* lane) { wall_trace_ = lane; }

 private:
  /// One shard's slice of a schedule plus its thread-confined execution
  /// state (scratch buffers and the queued write-back window).
  struct ShardStream {
    PageStore* store = nullptr;  ///< Inner store (thread-confined).
    bool record = false;         ///< Sample per-op latency.

    struct Op {
      const PlannedOp* op = nullptr;
      PageId inner_pid = 0;  ///< Pid inside the shard.
      PageId pid = 0;        ///< Global pid, for shadow lookups.
    };
    std::vector<Op> ops;  ///< Slice, in schedule order.

    struct QueuedWrite {
      PageId inner_pid = 0;
      ByteBuffer image;
      /// Latency recording only: the op's inline cost (reading step +
      /// in-memory updates' log spills), completed with the write-back
      /// delta at flush time.
      WorstOpSample cost;
      /// Latency recording only: the shard clock when the op began -- the
      /// kOpSpan timestamp, emitted when the write-back flushes.
      uint64_t start_us = 0;
    };
    ByteBuffer scratch;               ///< Current page image.
    UpdateLog log_scratch;            ///< Reused OnUpdate log.
    std::vector<QueuedWrite> queued;  ///< Window pool, reused per flush.
    size_t queued_n = 0;

    /// Latency recording only; thread-confined to the shard's worker like
    /// everything else here, folded into the run's samples after the chunk
    /// quiesces.
    OpSamples samples;
  };

  /// One contiguous slice of a schedule: the unit between two epoch
  /// boundaries, and the whole schedule when epochs are off.
  using ChunkSpan = std::span<const PlannedOp>;

  /// One empty stream per shard (one for a flat store).
  std::vector<ShardStream> MakeStreams(bool record);
  /// Appends `op` to its shard's stream, using the store's *current* pid
  /// routing (re-route after any bucket migration), and returns the stream.
  ShardStream* Route(const PlannedOp& op, std::vector<ShardStream>* streams);
  /// Executes ops [begin, end) of `s` and flushes the queued write-backs.
  Status RunShardWindow(ShardStream* s, size_t begin, size_t end);
  Status FlushShardWindow(ShardStream* s);
  /// Draw-one-execute-one loop behind Run() and Warmup(): each op is routed
  /// alone and runs as a batch-1 window. `next` draws into the reused op
  /// and returns false to stop. Records per-op latency into `*samples`
  /// when it is non-null.
  Status RunEach(OpSamples* samples, FunctionRef<bool(PlannedOp*)> next);
  /// Streams `chunk`'s windows through one CreditStream, drains it, and
  /// folds the streams' latency samples into `*samples` in shard order.
  Status RunChunk(ChunkSpan chunk, uint32_t batch_size, uint32_t max_inflight,
                  ftl::ShardExecutor* executor, OpSamples* samples);
  /// Folds the op counts, the device-stats delta since `before` and the
  /// run's latency samples into `*out`.
  void AccumulateRunStats(const flash::FlashStats& before,
                          uint64_t operations, uint64_t update_ops,
                          const OpSamples& samples, RunStats* out);
  /// Epoch boundary (shards quiescent): feeds the finished chunk's write
  /// heat to the router, plans against per-shard erase counts, and executes
  /// the planned bucket migrations.
  Status RebalanceEpoch(ChunkSpan chunk, ftl::ShardExecutor* executor,
                        RunStats* out);
  /// Epoch boundary (shards quiescent): drains and relocates the shards'
  /// scrub candidates (ShardedStore::ScrubShards).
  Status ScrubEpoch(RunStats* out);

  /// Draws one operation into `op`: pid, then (when `draw_kind`) the
  /// update-or-read kind, then an update's commands. The single RNG
  /// consumer behind Run, Warmup (no kind draw) and MakeSchedule.
  void DrawOp(bool draw_kind, PlannedOp* op);
  /// Draws one update command (offset + payload) from the workload
  /// distribution.
  void DrawUpdateCmd(uint32_t* offset, ByteBuffer* data);
  /// Draws the target pid of one operation -- uniform, or shard-0-skewed
  /// when params_.hot_shard_pct is set.
  PageId DrawPid();

  PageStore* store_;
  ftl::ShardedStore* sharded_;  ///< store_ when it is sharded, else null.
  WorkloadParams params_;
  Random rng_;
  /// Pid stride of the hot residue class: num_shards() when hot_shard_pct
  /// is active on a sharded store, 0 when the draw is uniform.
  uint32_t hot_pid_stride_ = 0;
  uint32_t num_pages_ = 0;
  uint32_t data_size_;
  /// Cumulative wall time the producer spent parked on credits (only the
  /// submitting thread writes it; see RunStats::credit_wait_ns).
  uint64_t credit_wait_ns_ = 0;
  /// Wall lane for credit-wait trace events (see set_wall_trace).
  obs::TraceShard* wall_trace_ = nullptr;
  ByteBuffer scratch_;
  std::vector<ByteBuffer> shadow_;  ///< Only when params_.verify.
};

}  // namespace flashdb::workload

#endif  // FLASHDB_WORKLOAD_UPDATE_DRIVER_H_
