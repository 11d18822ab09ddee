#include "ftl/sharded_store.h"

#include <algorithm>

#include "ftl/shard_executor.h"
#include "obs/trace_recorder.h"

namespace flashdb::ftl {

namespace {
/// Remaps a shard-local initializer call back to the global pid space.
struct StripedInitCtx {
  PageStore::PageInitializer initial;
  void* initial_arg;
  uint32_t shard;
  uint32_t num_shards;
};

void StripedInit(PageId inner_pid, MutBytes page, void* arg) {
  auto* ctx = static_cast<StripedInitCtx*>(arg);
  ctx->initial(inner_pid * ctx->num_shards + ctx->shard, page,
               ctx->initial_arg);
}
}  // namespace

ShardedStore::ShardedStore(std::vector<Shard> shards)
    : shards_(std::move(shards)) {
  CheckOrAbort(!shards_.empty(), "ShardedStore: needs at least one shard");
  for (const Shard& s : shards_) {
    CheckOrAbort(s.device != nullptr && s.store != nullptr,
                 "ShardedStore: every shard needs a device and a store");
    CheckOrAbort(s.device->geometry().data_size ==
                     shards_[0].device->geometry().data_size,
                 "ShardedStore: all shards must share the page data size");
  }
  name_ = "Sharded[" + std::to_string(shards_.size()) + "x" +
          std::string(shards_[0].store->name()) + "]";
  router_ = std::make_unique<ShardRouter>(num_shards());
  if (shards_[0].device->geometry().meta_blocks >= 2) {
    journal_ = std::make_unique<MetaJournal>(shards_[0].device);
  }
}

Status ShardedStore::CheckMetaBlocks() const {
  if (shards_[0].device->geometry().meta_blocks != 1) return Status::OK();
  return Status::InvalidArgument(
      "shard 0 reserves 1 meta block: the meta journal needs >= 2 "
      "(FlashGeometry::meta_blocks), or none for a store without one");
}

Status ShardedStore::CheckExecutor(const ShardExecutor* executor) const {
  if (executor == nullptr || executor->num_workers() >= num_shards()) {
    return Status::OK();
  }
  return Status::InvalidArgument("executor must have one worker per shard");
}

Status ShardedStore::OpenEpoch(const std::vector<MetaJournal::RedoSet>& redo) {
  if (journal_ == nullptr) return Status::OK();
  MetaJournal::Record rec;
  rec.type = MetaJournal::Record::Type::kSnapshot;
  rec.epoch = journal_->next_epoch();
  rec.num_pages = num_pages_;
  rec.num_shards = num_shards();
  rec.buckets_per_shard = router_->buckets_per_shard();
  rec.swaps_committed = router_->swaps_committed();
  rec.shard_of_bucket.resize(router_->num_buckets());
  rec.slot_of_bucket.resize(router_->num_buckets());
  for (uint32_t b = 0; b < router_->num_buckets(); ++b) {
    rec.shard_of_bucket[b] = router_->bucket_shard(b);
    rec.slot_of_bucket[b] = router_->bucket_slot(b);
  }
  rec.erase_baseline = router_->erase_baseline();
  rec.bad_blocks.reserve(num_shards());
  for (const Shard& s : shards_) {
    rec.bad_blocks.push_back(s.store->bad_blocks());
  }
  rec.redo = redo;
  return journal_->Append(rec);
}

Status ShardedStore::CloseEpoch() {
  if (journal_ == nullptr) return Status::OK();
  MetaJournal::Record done;
  done.type = MetaJournal::Record::Type::kComplete;
  done.epoch = journal_->next_epoch() - 1;
  return journal_->Append(done);
}

Status ShardedStore::Format(uint32_t num_logical_pages,
                            PageInitializer initial, void* initial_arg) {
  FLASHDB_RETURN_IF_ERROR(CheckPageCount(num_logical_pages));
  FLASHDB_RETURN_IF_ERROR(CheckMetaBlocks());
  // Crash ordering: wipe the journal *before* rewriting the chips. A crash
  // before the wipe leaves the old journal over the old data (the previous
  // generation stays fully recoverable); a crash anywhere inside the
  // reformat leaves an empty journal, so Recover() refuses -- never a stale
  // migrated snapshot silently restored over freshly striped pages.
  if (journal_ != nullptr) {
    FLASHDB_RETURN_IF_ERROR(journal_->Format());
  }
  formatted_ = false;
  for (uint32_t i = 0; i < num_shards(); ++i) {
    const uint32_t count = ShardPageCount(i, num_logical_pages);
    if (initial == nullptr) {
      FLASHDB_RETURN_IF_ERROR(
          shards_[i].store->Format(count, nullptr, nullptr));
    } else {
      StripedInitCtx ctx{initial, initial_arg, i, num_shards()};
      FLASHDB_RETURN_IF_ERROR(
          shards_[i].store->Format(count, &StripedInit, &ctx));
    }
  }
  num_pages_ = num_logical_pages;
  // A freshly formatted database starts on the legacy striping (the
  // initializer above placed pages accordingly). The erase baseline is
  // seeded with the chips' current counters so wear accumulated before this
  // (re)format cannot trigger an immediate rebalance.
  router_->Reset(num_pages_);
  SeedRouterEraseBaseline();
  // Epoch 0 (with a journal): the format record -- an identity snapshot
  // with no redo payload, anchoring the epoch chain recovery validates
  // against. Only a store whose anchor is durable may report itself
  // formatted.
  FLASHDB_RETURN_IF_ERROR(OpenEpoch());
  formatted_ = true;
  return Status::OK();
}

Status ShardedStore::ReadPage(PageId pid, MutBytes out) {
  FLASHDB_RETURN_IF_ERROR(CheckPid(formatted_, pid, num_pages_));
  return shards_[shard_of(pid)].store->ReadPage(inner_pid(pid), out);
}

Status ShardedStore::OnUpdate(PageId pid, ConstBytes page_after,
                              const UpdateLog& log) {
  FLASHDB_RETURN_IF_ERROR(CheckPid(formatted_, pid, num_pages_));
  return shards_[shard_of(pid)].store->OnUpdate(inner_pid(pid), page_after,
                                                log);
}

Status ShardedStore::WriteBack(PageId pid, ConstBytes page) {
  FLASHDB_RETURN_IF_ERROR(CheckPid(formatted_, pid, num_pages_));
  return shards_[shard_of(pid)].store->WriteBack(inner_pid(pid), page);
}

Status ShardedStore::Flush() {
  FLASHDB_RETURN_IF_ERROR(CheckFormatted(formatted_));
  for (Shard& s : shards_) FLASHDB_RETURN_IF_ERROR(s.store->Flush());
  return Status::OK();
}

Status ShardedStore::Recover(ShardExecutor* executor) {
  FLASHDB_RETURN_IF_ERROR(CheckExecutor(executor));
  FLASHDB_RETURN_IF_ERROR(CheckMetaBlocks());
  if (journal_ == nullptr && router_ != nullptr && !router_->is_identity()) {
    // Without a journal the routing table is volatile: recovery can only
    // restore identity striping, which mis-associates pids on a migrated
    // image. (This guard necessarily covers only *same-instance* recovery;
    // a fresh process over a migrated, journal-less image is silently
    // wrong -- which is exactly why the journal exists.)
    return Status::InvalidArgument(
        "cannot Recover() after bucket migrations without a meta journal: "
        "the routing table is volatile and recovery would restore legacy "
        "striping over migrated data (reserve meta blocks on shard 0)");
  }

  // From here on the store is mid-recovery: a failure below must not leave
  // a usable instance with half-rebuilt routing.
  formatted_ = false;

  // Read the durable routing state first -- it is also the cross-check that
  // the chips belong to this database generation.
  MetaJournal::Recovered journal_state;
  if (journal_ != nullptr) {
    FLASHDB_ASSIGN_OR_RETURN(journal_state, journal_->Recover());
    const MetaJournal::Record& snap = journal_state.snapshot;
    if (snap.num_shards != num_shards()) {
      return Status::Corruption(
          "meta journal snapshot describes " +
          std::to_string(snap.num_shards) + " shards, store has " +
          std::to_string(num_shards()));
    }
    // Seed the journaled bad-block lists before the chip scans: a crash may
    // have cut power between the in-RAM exclusion and the OOB mark program,
    // and the scan alone would silently return such a block to service.
    for (uint32_t i = 0; i < num_shards(); ++i) {
      if (i < snap.bad_blocks.size() && !snap.bad_blocks[i].empty()) {
        shards_[i].store->NoteBadBlocksForRecovery(snap.bad_blocks[i]);
      }
    }
  }

  // Per-chip recovery: independent single-chip scans, dispatched to the
  // shard workers when an executor is supplied. Shard confinement makes the
  // parallel path safe, and each chip's operation sequence is identical to
  // the sequential path, so recovered state is bit-identical either way.
  std::vector<ShardTask> recoveries;
  for (uint32_t i = 0; i < num_shards(); ++i) {
    PageStore* store = shards_[i].store.get();
    recoveries.push_back({i, [store] { return store->Recover(); }});
  }
  FLASHDB_RETURN_IF_ERROR(RunShardTasks(executor, std::move(recoveries)));
  uint32_t total = 0;
  for (Shard& s : shards_) total += s.store->num_logical_pages();

  // The shard page counts must be consistent with round-robin striping of
  // `total` pages (equal-size swaps keep them invariant), or the chips
  // belong to different databases.
  for (uint32_t i = 0; i < num_shards(); ++i) {
    if (shards_[i].store->num_logical_pages() != ShardPageCount(i, total)) {
      return Status::Corruption(
          "shard " + std::to_string(i) + " recovered " +
          std::to_string(shards_[i].store->num_logical_pages()) +
          " pages, expected " + std::to_string(ShardPageCount(i, total)) +
          " of " + std::to_string(total));
    }
  }

  if (journal_ != nullptr) {
    const MetaJournal::Record& snap = journal_state.snapshot;
    if (snap.num_pages != total) {
      return Status::Corruption(
          "meta journal snapshot describes " + std::to_string(snap.num_pages) +
          " pages, chips recovered " + std::to_string(total));
    }
    // Restoring the persisted snapshot (rather than re-seeding the wear
    // baseline from the chips' cumulative counters) keeps repeated
    // Format/Recover cycles idempotent: two consecutive Recover() calls
    // yield bit-identical router state.
    FLASHDB_RETURN_IF_ERROR(router_->Restore(
        snap.num_pages, snap.buckets_per_shard, snap.shard_of_bucket,
        snap.slot_of_bucket, snap.swaps_committed, snap.erase_baseline));
    if (!journal_state.complete) {
      // The newest epoch's copies may not have finished before the crash:
      // replay them from the journal's redo payload (full-page images, so
      // the replay is idempotent) and only then mark the epoch complete.
      FLASHDB_RETURN_IF_ERROR(ApplyRedo(snap.redo, executor));
      FLASHDB_RETURN_IF_ERROR(CloseEpoch());
    }
    // Only a fully successful recovery may mark the store usable: a partial
    // one (failed Restore or redo) would otherwise serve pids through the
    // wrong routing.
    num_pages_ = total;
    formatted_ = true;
    return Status::OK();
  }

  num_pages_ = total;
  formatted_ = true;
  // Same baseline seeding as Format(): the recovered chips keep their
  // cumulative erase counters, and only post-recovery wear should count
  // toward the delta trigger.
  router_->Reset(num_pages_);
  SeedRouterEraseBaseline();
  return Status::OK();
}

Status ShardedStore::ApplyRedo(std::span<const MetaJournal::RedoSet> redo,
                               ShardExecutor* executor) {
  const uint32_t data_size = shards_[0].device->geometry().data_size;
  auto write_set = [&](const MetaJournal::RedoSet& set) -> Status {
    if (set.shard >= num_shards()) {
      return Status::Corruption("redo set names shard " +
                                std::to_string(set.shard));
    }
    PageStore* s = shards_[set.shard].store.get();
    StoreCategoryScope cat(s, flash::OpCategory::kMigrate);
    std::vector<PageWrite> writes;
    writes.reserve(set.inner_pids.size());
    for (size_t k = 0; k < set.inner_pids.size(); ++k) {
      if (set.images[k].size() != data_size) {
        return Status::Corruption("redo image is not one page");
      }
      writes.push_back(PageWrite{set.inner_pids[k], set.images[k]});
    }
    // Announce each image as a full-page update first: a log-based method
    // (IPL) persists only the update logs it is shown, never the image
    // WriteBack hands it. Methods that ignore OnUpdate see exactly the
    // WriteBatch.
    for (const PageWrite& w : writes) {
      const UpdateLog whole{0, ByteBuffer(w.page.begin(), w.page.end())};
      FLASHDB_RETURN_IF_ERROR(s->OnUpdate(w.pid, w.page, whole));
    }
    FLASHDB_RETURN_IF_ERROR(s->WriteBatch(writes));
    // The completion record appended after the writes asserts they are
    // durable: write through any RAM-buffered differentials (PDL) first.
    return journal_ != nullptr ? s->Flush() : Status::OK();
  };
  std::vector<ShardTask> writes;
  for (const MetaJournal::RedoSet& set : redo) {
    writes.push_back({set.shard, [&] { return write_set(set); }});
  }
  return RunShardTasks(executor, std::move(writes));
}

void ShardedStore::SeedRouterEraseBaseline() {
  router_->SeedEraseBaseline(shard_erases());
}

Status ShardedStore::ScrubShards(ScrubResult* out) {
  FLASHDB_RETURN_IF_ERROR(CheckFormatted(formatted_));
  ScrubResult res;
  for (uint32_t i = 0; i < num_shards(); ++i) {
    const std::vector<flash::PhysAddr> cands =
        shards_[i].device->TakeScrubCandidates();
    if (cands.empty()) continue;
    PageStore* s = shards_[i].store.get();
    flash::FlashDevice* dev = shards_[i].device;
    StoreCategoryScope cat(s, flash::OpCategory::kScrub);
    for (const flash::PhysAddr addr : cands) {
      ++res.candidates;
      bool relocated = false;
      const uint64_t start = dev->clock().now_us();
      FLASHDB_RETURN_IF_ERROR(s->ScrubPhysPage(addr, &relocated));
      if (dev->trace() != nullptr) {
        dev->trace()->Emit(obs::TraceCat::kScrubRelocate, start,
                           dev->clock().now_us() - start, addr,
                           relocated ? 1 : 0);
      }
      if (relocated) {
        ++res.relocated;
      } else {
        ++res.skipped;
      }
    }
  }
  // Journal the sweep as its own committed epoch. The relocations themselves
  // are crash-safe without it (write-new-then-obsolete, arbitrated by
  // timestamp during the chips' recovery scans), so an append failure here
  // loses only the epoch marker, not data -- no need to invalidate the store
  // the way a half-applied migration must.
  if (res.relocated > 0) {
    FLASHDB_RETURN_IF_ERROR(OpenEpoch());
    FLASHDB_RETURN_IF_ERROR(CloseEpoch());
  }
  if (out != nullptr) *out = res;
  return Status::OK();
}

std::vector<uint64_t> ShardedStore::shard_erases() {
  std::vector<uint64_t> erases(num_shards());
  for (uint32_t i = 0; i < num_shards(); ++i) {
    erases[i] = shards_[i].store->total_erases();
  }
  return erases;
}

std::vector<uint64_t> ShardedStore::shard_clocks() const {
  std::vector<uint64_t> clocks(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    clocks[i] = shards_[i].device->clock().now_us();
  }
  return clocks;
}

Status ShardedStore::MigrateBuckets(std::span<const ShardRouter::Swap> swaps,
                                    ShardExecutor* executor) {
  FLASHDB_RETURN_IF_ERROR(CheckFormatted(formatted_));
  FLASHDB_RETURN_IF_ERROR(CheckExecutor(executor));
  const uint32_t stride = router_->buckets_per_shard();
  const uint32_t data_size = shards_[0].device->geometry().data_size;
  for (const ShardRouter::Swap& swap : swaps) {
    if (swap.bucket_a >= router_->num_buckets() ||
        swap.bucket_b >= router_->num_buckets()) {
      return Status::InvalidArgument("bucket index out of range");
    }
    const uint32_t m = router_->bucket_size(swap.bucket_a);
    if (m != router_->bucket_size(swap.bucket_b)) {
      return Status::InvalidArgument(
          "bucket swap with mismatched page counts");
    }
    if (router_->bucket_shard(swap.bucket_a) ==
        router_->bucket_shard(swap.bucket_b)) {
      return Status::InvalidArgument("bucket swap within a single shard");
    }

    // redo[i] is bucket i's slot set on its current shard, and receives the
    // other bucket's images -- the same sets a journal redo replays. Two
    // empty buckets have no sets: a routing-only epoch, with no copies, no
    // flush and no kBucketMigrate event.
    std::vector<MetaJournal::RedoSet> redo;
    if (m > 0) {
      redo.resize(2);
      for (size_t i = 0; i < 2; ++i) {
        const uint32_t bucket = i == 0 ? swap.bucket_a : swap.bucket_b;
        const uint32_t slot = router_->bucket_slot(bucket);
        redo[i].shard = router_->bucket_shard(bucket);
        for (uint32_t k = 0; k < m; ++k) {
          redo[i].inner_pids.push_back(slot + k * stride);
        }
        redo[i].images.assign(m, ByteBuffer(data_size));
      }
    }
    // Copy protocol: capture both buckets' images, commit the assignment,
    // then write each image set to its exchanged slots. Per shard the device
    // sees [m reads, then m writes] in slot order in every execution mode,
    // which keeps migration inside the bit-determinism envelope.
    auto read_set = [&](size_t i) -> Status {
      PageStore* s = shards_[redo[i].shard].store.get();
      StoreCategoryScope cat(s, flash::OpCategory::kMigrate);
      for (uint32_t k = 0; k < m; ++k) {
        FLASHDB_RETURN_IF_ERROR(
            s->ReadPage(redo[i].inner_pids[k], redo[1 - i].images[k]));
      }
      return Status::OK();
    };
    std::vector<ShardTask> reads;
    for (size_t i = 0; i < redo.size(); ++i) {
      reads.push_back({redo[i].shard, [&, i] { return read_set(i); }});
    }
    // Nothing is written yet: a read failure leaves the store intact.
    FLASHDB_RETURN_IF_ERROR(RunShardTasks(executor, std::move(reads)));

    // A half-applied swap cannot be rolled back in RAM, so from the commit
    // until the completion record a failure leaves the store unusable rather
    // than silently serving the wrong bucket's pages. The snapshot record
    // (post-swap routing plus the images about to be written) precedes every
    // data write: a crash while appending it rolls the swap back, a crash
    // after it rolls the swap forward on Recover().
    router_->CommitSwap(swap);
    formatted_ = false;
    FLASHDB_RETURN_IF_ERROR(OpenEpoch(redo));
    FLASHDB_RETURN_IF_ERROR(ApplyRedo(redo, executor));
    // The swap is applied on both chips: mark it on both shards' timelines
    // (instant events, stamped with each chip's post-copy clock; emitted from
    // the submitting thread while the workers are quiescent).
    for (const MetaJournal::RedoSet& set : redo) {
      flash::FlashDevice* dev = shards_[set.shard].device;
      if (dev->trace() != nullptr) {
        dev->trace()->Emit(obs::TraceCat::kBucketMigrate,
                           dev->clock().now_us(), 0, swap.bucket_a,
                           swap.bucket_b, m);
      }
    }
    FLASHDB_RETURN_IF_ERROR(CloseEpoch());
    formatted_ = true;
  }
  return Status::OK();
}

void ShardedStore::set_category(flash::OpCategory c) {
  for (Shard& s : shards_) s.store->set_category(c);
}

flash::OpCategory ShardedStore::category() {
  return shards_[0].store->category();
}

flash::FlashStats ShardedStore::stats() {
  flash::FlashStats agg;
  for (Shard& s : shards_) {
    const flash::FlashStats shard_stats = s.store->stats();
    agg += shard_stats;
    agg.block_erase_counts.insert(agg.block_erase_counts.end(),
                                  shard_stats.block_erase_counts.begin(),
                                  shard_stats.block_erase_counts.end());
    // Plane counters concatenate in shard order, like the per-block wear:
    // plane identity across chips is not meaningful, per-chip overlap is.
    agg.plane.insert(agg.plane.end(), shard_stats.plane.begin(),
                     shard_stats.plane.end());
  }
  return agg;
}

uint64_t ShardedStore::total_erases() {
  uint64_t sum = 0;
  for (Shard& s : shards_) sum += s.store->total_erases();
  return sum;
}

uint64_t ShardedStore::shard_lag_us() const {
  uint64_t lo = UINT64_MAX;
  uint64_t hi = 0;
  for (const Shard& s : shards_) {
    const uint64_t c = s.device->clock().now_us();
    lo = std::min(lo, c);
    hi = std::max(hi, c);
  }
  return hi - lo;
}

}  // namespace flashdb::ftl
