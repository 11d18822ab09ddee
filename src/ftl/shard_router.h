// ShardRouter: the logical-pid -> (shard, local pid) indirection layer under
// ShardedStore, replacing the fixed residue-class striping so hot pid ranges
// can be migrated between chips (cross-shard wear leveling).
//
// Routing model. Pids are grouped into B = num_shards * buckets_per_shard
// *buckets* by residue class: bucket(pid) = pid % B. A bucket is the unit of
// migration. Each bucket is assigned a (shard, slot-class) pair; pid `p` of
// bucket `b` with rank k = p / B lives on shard `shard_of_bucket[b]` at local
// pid `slot_of_bucket[b] + k * buckets_per_shard`. The *identity* assignment
// (bucket b -> shard b % N, slot b / N) reproduces the legacy round-robin
// striping bit-for-bit for every choice of buckets_per_shard: shard_of(p) ==
// p % N and inner_pid(p) == p / N. A store that never migrates is therefore
// indistinguishable from the pre-router ShardedStore.
//
// Slot classes. On a shard, slot class g is the set of local pids congruent
// to g modulo buckets_per_shard. Under the identity assignment, bucket
// b = g*N + s occupies exactly slot class g of shard s, and the class holds
// exactly |bucket b| pages. Because migrations only ever *swap* two buckets
// of equal page count, every slot class always holds a bucket that fits it
// and per-shard page counts never change -- no shard ever needs spare
// capacity provisioned for migration.
//
// Rebalancing policy. The router keeps one decayed write-heat counter per
// bucket (fed by the workload driver from the executed schedule, so heat is
// identical across sequential / parallel / pipelined execution) and is shown
// the per-shard erase totals the chips' BlockManagers have accumulated
// (surfaced through FlashStats). When the max/min per-shard erase ratio
// crosses `max_erase_ratio`, PlanRebalance() greedily pairs the hottest
// buckets of the most-worn shard with equally-sized cold buckets of the
// least-worn shard until the predicted heat imbalance is gone (or
// kMaxSwapsPerRebalance is hit). Planning is a pure function of the
// counters, so every execution mode plans the same swaps at the same epoch
// boundaries.
//
// Thread-safety: none. The router is read on the submission path
// (shard_of / inner_pid during schedule partitioning) and mutated
// (AddEpochHeat / CommitSwap) only at epoch boundaries while the shard
// workers are quiescent -- the same confinement contract as the devices.
//
// Durability: the in-RAM table is volatile, but ShardedStore persists a
// snapshot of it (assignment + swap counter + erase baseline) in the
// ftl::MetaJournal at Format() and at every committed migration epoch;
// Recover() re-installs the newest valid snapshot via Restore(). A store
// without a journal falls back to the identity assignment and therefore
// refuses recovery after migrations (see ShardedStore::Recover()).

#ifndef FLASHDB_FTL_SHARD_ROUTER_H_
#define FLASHDB_FTL_SHARD_ROUTER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "ftl/page_store.h"

namespace flashdb::ftl {

/// Tuning knobs of the cross-shard wear-leveling policy.
struct WearLevelConfig {
  /// Migration granularity: buckets per shard (B = shards * this). More
  /// buckets give finer rebalancing at the cost of smaller, more frequent
  /// copies; the identity mapping is legacy-identical for every value.
  uint32_t buckets_per_shard = 8;
  /// Rebalancing triggers when the max/min per-shard erase *delta* since the
  /// previous plan exceeds this. Deltas, not cumulative counts: wear already
  /// paid cannot be undone, so once recent wear is level the trigger goes
  /// quiet instead of re-planning (and re-copying) forever.
  double max_erase_ratio = 1.5;
  /// No rebalancing while fewer than this many erases accumulated since the
  /// previous plan (small-sample ratios are noise).
  uint64_t min_total_erases = 64;
};

/// See file comment.
class ShardRouter {
 public:
  /// Upper bound on bucket swaps per rebalancing decision.
  static constexpr uint32_t kMaxSwapsPerRebalance = 8;

  /// One planned (or committed) migration: the two buckets exchange their
  /// (shard, slot-class) assignments and their page contents.
  struct Swap {
    uint32_t bucket_a = 0;
    uint32_t bucket_b = 0;
  };

  /// Starts with the identity (legacy striping) assignment and rebalancing
  /// disabled.
  explicit ShardRouter(uint32_t num_shards, uint32_t buckets_per_shard = 8);

  /// Re-binds the router to a database of `num_pages` logical pages and
  /// resets the assignment to identity, zeroing heat and the swap counter.
  /// Called by ShardedStore::Format / Recover.
  void Reset(uint32_t num_pages);

  /// Restores a persisted routing table (a MetaJournal snapshot record):
  /// re-granulates to `buckets_per_shard`, installs the bucket assignment,
  /// the swap counter, and the wear-trigger erase baseline, and zeroes the
  /// (deliberately unpersisted, decaying) heat. Validates that the
  /// assignment is a permutation consistent with equal-size swaps. Restoring
  /// the baseline -- instead of re-seeding it from the chips' current
  /// cumulative counters -- is what makes repeated Recover() cycles
  /// idempotent: wear observed since the last persisted plan keeps counting
  /// toward the delta trigger instead of being forgotten on every reboot.
  Status Restore(uint32_t num_pages, uint32_t buckets_per_shard,
                 std::span<const uint32_t> shard_of_bucket,
                 std::span<const uint32_t> slot_of_bucket,
                 uint64_t swaps_committed,
                 std::span<const uint64_t> erase_baseline);

  /// Turns the rebalancing policy on. Changing the bucket granularity is
  /// only legal while the assignment is still the identity (no committed
  /// swaps): re-granulating migrated data would scramble the pid mapping.
  /// Re-enabling with the *current* granularity is always legal -- the path
  /// a recovered (Restore()d) store takes.
  Status EnableRebalancing(const WearLevelConfig& config);
  bool rebalancing_enabled() const { return enabled_; }
  const WearLevelConfig& config() const { return config_; }

  uint32_t num_shards() const { return num_shards_; }
  uint32_t buckets_per_shard() const { return buckets_per_shard_; }
  uint32_t num_buckets() const { return num_buckets_; }
  uint32_t num_pages() const { return num_pages_; }

  // --- Routing (hot path: called per operation while partitioning) --------
  uint32_t bucket_of(PageId pid) const { return pid % num_buckets_; }
  uint32_t shard_of(PageId pid) const {
    return shard_of_bucket_[bucket_of(pid)];
  }
  PageId inner_pid(PageId pid) const {
    const uint32_t b = bucket_of(pid);
    return slot_of_bucket_[b] + (pid / num_buckets_) * buckets_per_shard_;
  }

  // --- Bucket views (migration bookkeeping) -------------------------------
  /// Shard currently holding bucket `b`.
  uint32_t bucket_shard(uint32_t b) const { return shard_of_bucket_[b]; }
  /// Slot class bucket `b` currently occupies on its shard.
  uint32_t bucket_slot(uint32_t b) const { return slot_of_bucket_[b]; }
  /// Number of logical pages in bucket `b` (its pids are b, b + B, b + 2B,
  /// ... below num_pages).
  uint32_t bucket_size(uint32_t b) const {
    return num_pages_ > b ? (num_pages_ - b - 1) / num_buckets_ + 1 : 0;
  }
  /// True while the assignment equals the legacy residue-class striping.
  bool is_identity() const { return swaps_committed_ == 0; }
  uint64_t swaps_committed() const { return swaps_committed_; }
  /// The wear-trigger delta baseline (persisted in MetaJournal snapshots).
  const std::vector<uint64_t>& erase_baseline() const {
    return erase_baseline_;
  }

  // --- Rebalancing (epoch boundaries only, shards quiescent) --------------
  /// Folds one epoch's per-bucket write counts into the decayed heat.
  /// `per_bucket_writes` must have num_buckets() entries.
  void AddEpochHeat(std::span<const uint64_t> per_bucket_writes);

  /// Seeds the delta-trigger baseline with the chips' current cumulative
  /// erase counts (one entry per shard). ShardedStore calls this after
  /// Format/Recover on devices that may carry historical wear, so the first
  /// plan reacts to wear accumulated *from now on*, not to the device's
  /// whole history.
  void SeedEraseBaseline(std::span<const uint64_t> shard_erases);

  /// Plans bucket swaps given the chips' cumulative erase counts (one entry
  /// per shard); internally the trigger compares the *delta* since the last
  /// call that saw enough wear (see WearLevelConfig::max_erase_ratio).
  /// Empty when rebalancing is disabled, the trigger ratio is not reached,
  /// or no size-compatible improving swap exists. Commits no swap
  /// (ShardedStore::MigrateBuckets commits each one mid-copy); only the
  /// trigger's delta baseline advances.
  std::vector<Swap> PlanRebalance(std::span<const uint64_t> shard_erases);

  /// Applies one swap to the routing table. The caller (ShardedStore) has
  /// already captured both buckets' page images and writes them to the
  /// swapped locations afterwards.
  void CommitSwap(const Swap& swap);

 private:
  /// Multiplier applied to every bucket's heat before an epoch's write
  /// counts are added (exponential decay).
  static constexpr double kHeatDecay = 0.5;

  uint32_t num_shards_;
  uint32_t buckets_per_shard_;
  uint32_t num_buckets_;
  uint32_t num_pages_ = 0;
  std::vector<uint32_t> shard_of_bucket_;
  std::vector<uint32_t> slot_of_bucket_;
  std::vector<double> heat_;  ///< Decayed per-bucket write heat.
  /// Per-shard erase counts at the last PlanRebalance that saw at least
  /// min_total_erases of fresh wear (the delta-trigger baseline).
  std::vector<uint64_t> erase_baseline_;
  WearLevelConfig config_;
  bool enabled_ = false;
  uint64_t swaps_committed_ = 0;
};

}  // namespace flashdb::ftl

#endif  // FLASHDB_FTL_SHARD_ROUTER_H_
