// ShardedStore: a PageStore that stripes logical pages across N inner stores,
// each running on its own FlashDevice -- the multi-chip scaling layer on top
// of the single-chip page-update methods.
//
// Logical-to-physical placement is delegated to a ShardRouter
// (ftl/shard_router.h). Its default (identity) assignment reproduces the
// classic round-robin striping -- page `pid` on shard `pid % N` as inner page
// `pid / N` -- bit-for-bit; with wear leveling enabled the router migrates
// hot pid buckets between chips via MigrateBuckets(), and shard_of() /
// inner_pid() reflect the current assignment. All shards must share the same
// page geometry. The shards are independent chips: each runs its own
// allocation, garbage collection and recovery.
//
// Accounting: stats() sums the operation counters over the shards (total
// work) and concatenates per-block wear in shard order; shard_clocks()
// exposes every chip's virtual clock. A run's elapsed time and total work
// are derived from clock readings taken before and after it by the
// workload layer's one rule (workload::ClockAdvanceOf).

#ifndef FLASHDB_FTL_SHARDED_STORE_H_
#define FLASHDB_FTL_SHARDED_STORE_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ftl/meta_journal.h"
#include "ftl/page_store.h"
#include "ftl/shard_router.h"

namespace flashdb::ftl {

class ShardExecutor;

/// See file comment.
///
/// Thread-safety: shard confinement (see ftl/shard_executor.h). The
/// aggregating methods here run on the submitting thread and touch every
/// chip; they are only legal while the shard workers are quiescent. Inner
/// stores obtained via shard() are safe to drive from their own worker.
///
/// Determinism: all routing and aggregation is pure bookkeeping over the
/// shards' deterministic virtual clocks; two runs with the same schedule,
/// seed, and migration sequence produce bit-identical per-shard state
/// regardless of wall-clock interleaving.
class ShardedStore : public PageStore {
 public:
  /// One shard: an inner store bound to its device. `owned_device` may be
  /// null when the caller keeps the device alive itself (e.g. remount
  /// tests); `device` must always point at the store's device.
  struct Shard {
    std::unique_ptr<flash::FlashDevice> owned_device;
    flash::FlashDevice* device = nullptr;
    std::unique_ptr<PageStore> store;
  };

  /// `shards` must be non-empty, each with a device and a store, all with
  /// the same page data size; otherwise the constructor aborts with a
  /// message, in every build.
  explicit ShardedStore(std::vector<Shard> shards);

  std::string_view name() const override { return name_; }
  Status Format(uint32_t num_logical_pages, PageInitializer initial,
                void* initial_arg) override;
  Status ReadPage(PageId pid, MutBytes out) override;
  Status OnUpdate(PageId pid, ConstBytes page_after,
                  const UpdateLog& log) override;
  Status WriteBack(PageId pid, ConstBytes page) override;
  Status Flush() override;
  /// Sequential recovery (PageStore interface): Recover(nullptr).
  Status Recover() override { return Recover(nullptr); }
  /// Rebuilds the store from flash after a crash. With a meta journal
  /// attached (EnableMetaJournal), the journal's newest valid snapshot seeds
  /// the ShardRouter (routing table, swap counter, wear baseline) before the
  /// per-chip recoveries run, so migrated instances recover correctly; if
  /// the snapshot's migration epoch never completed, its redo payload is
  /// replayed idempotently, restoring the exact committed-epoch state.
  /// Without a journal, recovery restores identity striping and -- as before
  /// -- refuses on a same-instance store that has migrated.
  ///
  /// `executor` (may be null) dispatches the per-chip Recover() calls and
  /// redo writes to the shards' workers; shard confinement makes this safe,
  /// and per-chip state is bit-identical to a sequential recovery.
  Status Recover(ShardExecutor* executor);
  uint32_t num_logical_pages() const override { return num_pages_; }
  /// Representative device (shard 0) -- geometry inspection only.
  flash::FlashDevice* device() override { return shards_[0].device; }

  void set_category(flash::OpCategory c) override;
  flash::OpCategory category() override;
  flash::FlashStats stats() override;
  uint64_t total_erases() override;

  uint32_t num_shards() const { return static_cast<uint32_t>(shards_.size()); }
  PageStore* shard(uint32_t i) { return shards_[i].store.get(); }
  flash::FlashDevice* shard_device(uint32_t i) { return shards_[i].device; }

  /// The placement map, public so parallel drivers can partition work per
  /// shard without round-tripping every page through this object. Delegates
  /// to the ShardRouter: identical to the legacy `pid % N` / `pid / N`
  /// striping until a bucket migration commits. Only valid between
  /// migrations (the driver re-partitions each epoch).
  uint32_t shard_of(PageId pid) const { return router_->shard_of(pid); }
  PageId inner_pid(PageId pid) const { return router_->inner_pid(pid); }

  /// The pid -> (shard, local pid) indirection layer. Use
  /// router()->EnableRebalancing() to turn on cross-shard wear leveling;
  /// mutations (heat, swaps) follow the same quiescence contract as the
  /// aggregating methods above.
  ShardRouter* router() { return router_.get(); }
  const ShardRouter* router() const { return router_.get(); }

  /// Attaches the durable-metadata journal (ftl::MetaJournal) on shard 0's
  /// device, which must reserve >= 2 meta blocks
  /// (FlashGeometry::meta_blocks). Call before Format()/Recover(). From then
  /// on Format() writes an epoch-0 snapshot and every committed bucket swap
  /// appends a snapshot (+ redo payload) and a completion record, making
  /// crash recovery after migrations possible. Journal traffic is accounted
  /// under OpCategory::kMeta on shard 0.
  Status EnableMetaJournal();
  /// Migration epochs committed to the journal (0 = format snapshot only).
  uint64_t journal_epochs() const {
    return journal_ == nullptr || journal_->next_epoch() == 0
               ? 0
               : journal_->next_epoch() - 1;
  }

  /// Executes (and commits) the planned bucket swaps, one epoch each. A
  /// swap reads both buckets' pages through the current assignment, commits
  /// the router, then writes each image set to the exchanged slots, so
  /// ReadPage(pid) observes unchanged contents. Per shard the device sees
  /// the reads, then the writes, in slot order, with or without `executor`.
  /// Traffic is accounted under OpCategory::kMigrate. Requires quiescent
  /// shards at entry (epoch boundary) and returns with them quiescent.
  ///
  /// A failure before the commit leaves the store intact. A failure after
  /// it leaves the store unusable: every later call fails instead of
  /// serving the wrong bucket's pages. With a meta journal, the snapshot
  /// record (post-swap routing plus the images to write) is appended before
  /// any data write and a completion record after the copies are durable. A
  /// crash while appending the snapshot rolls the swap back on Recover(); a
  /// crash after it rolls the swap forward from the redo payload.
  Status MigrateBuckets(std::span<const ShardRouter::Swap> swaps,
                        ShardExecutor* executor);

  /// Outcome counters of one ScrubShards() sweep.
  struct ScrubResult {
    uint64_t candidates = 0;  ///< Device-flagged pages drained.
    uint64_t relocated = 0;   ///< Pages whose live data was rewritten.
    uint64_t skipped = 0;     ///< Flagged pages that were no longer live.
  };

  /// Background integrity scrub: drains every shard device's scrub-candidate
  /// list (pages that needed a read retry or crossed the read-disturb limit,
  /// FlashDevice::TakeScrubCandidates) and asks the owning store to relocate
  /// whatever live data each candidate still holds (PageStore::ScrubPhysPage)
  /// -- refreshing the data before its error rate degrades past the retry
  /// ladder. Traffic is accounted under OpCategory::kScrub (GC triggered by
  /// the relocations stays kGc).
  ///
  /// Same quiescence contract as MigrateBuckets: call at a drained epoch
  /// boundary. Shards are processed in order and candidates in flag order, so
  /// the sweep is deterministic across execution modes. With a meta journal
  /// attached, a sweep that relocated anything appends a snapshot +
  /// completion epoch, so a power cut mid-scrub recovers onto a committed
  /// epoch: either the journaled post-scrub state, or the prior epoch with
  /// any half-finished relocation resolved by the chips' own timestamp
  /// arbitration.
  Status ScrubShards(ScrubResult* out);

  /// Cumulative erase count per shard (cheap: no stats snapshot). The input
  /// of the router's wear trigger; same quiescence contract as stats().
  std::vector<uint64_t> shard_erases();

  /// Virtual clock per shard -- the quantity the benches' determinism
  /// cross-checks compare bit-for-bit against a sequential replay. Same
  /// quiescence contract as stats().
  std::vector<uint64_t> shard_clocks() const;

  /// Clock spread max-min over the shards: 0 on a perfectly balanced run,
  /// growing with pid skew. Same quiescence contract as stats().
  uint64_t shard_lag_us() const;

 private:
  /// Points the router's erase-delta trigger at the chips' current
  /// cumulative counters (Format/Recover on possibly pre-worn devices).
  void SeedRouterEraseBaseline();

  /// InvalidArgument unless `executor` is null or has a worker per shard.
  Status CheckExecutor(const ShardExecutor* executor) const;
  /// Opens a journaled epoch: appends a snapshot of the router's *current*
  /// state carrying `redo`. With CloseEpoch, the only journal appends.
  /// Both are no-ops without a journal.
  Status OpenEpoch(const std::vector<MetaJournal::RedoSet>& redo = {});
  /// Closes the newest epoch: appends its completion record.
  Status CloseEpoch();
  /// Writes every set's full-page images to its shard, inline or on the
  /// shards' workers: the copy step of bucket migration and the idempotent
  /// replay of a journal redo payload.
  Status ApplyRedo(std::span<const MetaJournal::RedoSet> redo,
                   ShardExecutor* executor);

  /// Logical pages striped onto shard `i` out of `total`.
  uint32_t ShardPageCount(uint32_t i, uint32_t total) const {
    const uint32_t s = num_shards();
    return total > i ? (total - i - 1) / s + 1 : 0;
  }

  std::vector<Shard> shards_;
  std::string name_;
  std::unique_ptr<ShardRouter> router_;
  std::unique_ptr<MetaJournal> journal_;
  uint32_t num_pages_ = 0;
  bool formatted_ = false;
};

}  // namespace flashdb::ftl

#endif  // FLASHDB_FTL_SHARDED_STORE_H_
