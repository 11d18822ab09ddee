#include "ftl/sharded_store.h"

#include <algorithm>
#include <cassert>

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

/// Copies whole page images into one chip's store: the write path of both
/// bucket migration and journal redo. Each image is first announced as a
/// full-page update, because a log-based method (IPL) persists only the
/// update logs it is shown, never the image WriteBack hands it. Methods
/// that ignore OnUpdate see exactly the WriteBatch.
Status WritePageImages(PageStore* s, std::span<const PageWrite> writes) {
  for (const PageWrite& w : writes) {
    const UpdateLog whole{0, ByteBuffer(w.page.begin(), w.page.end())};
    FLASHDB_RETURN_IF_ERROR(s->OnUpdate(w.pid, w.page, whole));
  }
  return s->WriteBatch(writes);
}
}  // namespace

ShardedStore::ShardedStore(std::vector<Shard> shards)
    : shards_(std::move(shards)) {
  assert(!shards_.empty() && "ShardedStore needs at least one shard");
  for (const Shard& s : shards_) {
    assert(s.device != nullptr && s.store != nullptr);
    assert(s.device->geometry().data_size ==
               shards_[0].device->geometry().data_size &&
           "all shards must share the page geometry");
  }
  name_ = "Sharded[" + std::to_string(shards_.size()) + "x" +
          std::string(shards_[0].store->name()) + "]";
  router_ = std::make_unique<ShardRouter>(num_shards());
}

Status ShardedStore::EnableMetaJournal() {
  if (formatted_) {
    return Status::InvalidArgument(
        "EnableMetaJournal must be called before Format/Recover");
  }
  if (shards_[0].device->geometry().meta_blocks < 2) {
    return Status::InvalidArgument(
        "meta journal needs >= 2 reserved meta blocks on shard 0 "
        "(FlashGeometry::meta_blocks)");
  }
  if (journal_ == nullptr) {
    journal_ = std::make_unique<MetaJournal>(shards_[0].device);
  }
  return Status::OK();
}

MetaJournal::Record ShardedStore::SnapshotRecord() const {
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
  return rec;
}

Status ShardedStore::Format(uint32_t num_logical_pages,
                            PageInitializer initial, void* initial_arg) {
  FLASHDB_RETURN_IF_ERROR(CheckPageCount(num_logical_pages));
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
  if (journal_ != nullptr) {
    // Epoch 0: the format record -- an identity snapshot with no redo
    // payload, anchoring the epoch chain recovery validates against. Only a
    // store whose anchor is durable may report itself formatted.
    FLASHDB_RETURN_IF_ERROR(journal_->Append(SnapshotRecord()));
  }
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
  return shards_[shard_of(pid)].store->OnUpdate(inner_pid(pid), page_after, log);
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
  if (executor != nullptr && executor->num_workers() < num_shards()) {
    return Status::InvalidArgument("executor must have one worker per shard");
  }
  if (journal_ == nullptr && router_ != nullptr && !router_->is_identity()) {
    // Without a journal the routing table is volatile: recovery can only
    // restore identity striping, which mis-associates pids on a migrated
    // image. (This guard necessarily covers only *same-instance* recovery;
    // a fresh process over a migrated, journal-less image is silently
    // wrong -- which is exactly why the journal exists.)
    return Status::InvalidArgument(
        "cannot Recover() after bucket migrations without a meta journal: "
        "the routing table is volatile and recovery would restore legacy "
        "striping over migrated data (see EnableMetaJournal)");
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
      FLASHDB_RETURN_IF_ERROR(ApplyRedo(snap, executor));
      MetaJournal::Record done;
      done.type = MetaJournal::Record::Type::kComplete;
      done.epoch = snap.epoch;
      FLASHDB_RETURN_IF_ERROR(journal_->Append(done));
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

Status ShardedStore::ApplyRedo(const MetaJournal::Record& snapshot,
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
    FLASHDB_RETURN_IF_ERROR(WritePageImages(s, writes));
    // The completion record appended after the redo asserts durability.
    return s->Flush();
  };
  std::vector<ShardTask> writes;
  for (const MetaJournal::RedoSet& set : snapshot.redo) {
    writes.push_back(
        {set.shard, [&, set_ptr = &set] { return write_set(*set_ptr); }});
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
  if (journal_ != nullptr && res.relocated > 0) {
    FLASHDB_RETURN_IF_ERROR(journal_->Append(SnapshotRecord()));
    MetaJournal::Record done;
    done.type = MetaJournal::Record::Type::kComplete;
    done.epoch = journal_->next_epoch() - 1;
    FLASHDB_RETURN_IF_ERROR(journal_->Append(done));
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
  if (executor != nullptr && executor->num_workers() < num_shards()) {
    return Status::InvalidArgument("executor must have one worker per shard");
  }
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
    const uint32_t shard_a = router_->bucket_shard(swap.bucket_a);
    const uint32_t shard_b = router_->bucket_shard(swap.bucket_b);
    if (shard_a == shard_b) {
      return Status::InvalidArgument("bucket swap within a single shard");
    }
    const uint32_t slot_a = router_->bucket_slot(swap.bucket_a);
    const uint32_t slot_b = router_->bucket_slot(swap.bucket_b);
    std::vector<ByteBuffer> images_a(m);
    std::vector<ByteBuffer> images_b(m);

    // Durable intent: with a journal attached, the swap's snapshot record --
    // the post-swap routing table plus the exact images the writes below
    // will program -- is appended *before* any data page changes. A crash
    // while the record is being appended tears it (recovery discards the
    // tail and the store is still bit-identical to the previous epoch); once
    // the record is fully on flash the epoch is committed and recovery rolls
    // the swap forward by replaying the payload.
    auto journal_swap = [&]() -> Status {
      if (journal_ == nullptr) return Status::OK();
      MetaJournal::Record rec = SnapshotRecord();
      if (m > 0) {
        rec.redo.resize(2);
        rec.redo[0].shard = shard_a;
        rec.redo[1].shard = shard_b;
        for (uint32_t k = 0; k < m; ++k) {
          rec.redo[0].inner_pids.push_back(slot_a + k * stride);
          rec.redo[1].inner_pids.push_back(slot_b + k * stride);
        }
        rec.redo[0].images = images_b;  // bucket b's pages move to a's slots
        rec.redo[1].images = images_a;
      }
      return journal_->Append(rec);
    };
    auto journal_complete = [&]() -> Status {
      if (journal_ == nullptr) return Status::OK();
      MetaJournal::Record done;
      done.type = MetaJournal::Record::Type::kComplete;
      done.epoch = journal_->next_epoch() - 1;
      return journal_->Append(done);
    };

    if (m == 0) {  // both buckets empty: a routing-table-only epoch
      router_->CommitSwap(swap);
      const Status journaled = journal_swap();
      if (!journaled.ok()) {
        formatted_ = false;  // router committed in RAM but not on flash
        return journaled;
      }
      const Status completed = journal_complete();
      if (!completed.ok()) {
        formatted_ = false;
        return completed;
      }
      continue;
    }

    // Copy protocol: capture both buckets' images, commit the assignment,
    // then write each image set to its exchanged slots. Per shard the device
    // sees [m reads, then m writes] in slot order -- identical whether the
    // two shards run inline here or on their executor workers, which is what
    // keeps migration inside the bit-determinism envelope.
    auto read_bucket = [&](uint32_t shard, uint32_t slot,
                           std::vector<ByteBuffer>* images) -> Status {
      PageStore* s = shards_[shard].store.get();
      StoreCategoryScope cat(s, flash::OpCategory::kMigrate);
      for (uint32_t k = 0; k < m; ++k) {
        (*images)[k].resize(data_size);
        FLASHDB_RETURN_IF_ERROR(s->ReadPage(slot + k * stride, (*images)[k]));
      }
      return Status::OK();
    };
    auto write_bucket = [&](uint32_t shard, uint32_t slot,
                            const std::vector<ByteBuffer>& images) -> Status {
      PageStore* s = shards_[shard].store.get();
      StoreCategoryScope cat(s, flash::OpCategory::kMigrate);
      std::vector<PageWrite> writes;
      writes.reserve(m);
      for (uint32_t k = 0; k < m; ++k) {
        writes.push_back(PageWrite{slot + k * stride, images[k]});
      }
      FLASHDB_RETURN_IF_ERROR(WritePageImages(s, writes));
      // With a journal, the completion record appended after these writes
      // asserts the copies are *durable* -- write-through any RAM-buffered
      // differentials (PDL) before it can be written. Without a journal the
      // legacy behavior is preserved bit-for-bit.
      return journal_ != nullptr ? s->Flush() : Status::OK();
    };

    Status write_a;
    Status write_b;
    if (executor != nullptr) {
      auto ra = executor->Submit(
          shard_a, [&] { return read_bucket(shard_a, slot_a, &images_a); });
      auto rb = executor->Submit(
          shard_b, [&] { return read_bucket(shard_b, slot_b, &images_b); });
      const Status read_a = ra.get();
      const Status read_b = rb.get();
      FLASHDB_RETURN_IF_ERROR(read_a);  // nothing written yet: store intact
      FLASHDB_RETURN_IF_ERROR(read_b);
      router_->CommitSwap(swap);
      const Status journaled = journal_swap();
      if (!journaled.ok()) {
        formatted_ = false;  // router committed in RAM but not on flash
        return journaled;
      }
      auto wa = executor->Submit(
          shard_a, [&] { return write_bucket(shard_a, slot_a, images_b); });
      auto wb = executor->Submit(
          shard_b, [&] { return write_bucket(shard_b, slot_b, images_a); });
      write_a = wa.get();
      write_b = wb.get();
    } else {
      FLASHDB_RETURN_IF_ERROR(read_bucket(shard_a, slot_a, &images_a));
      FLASHDB_RETURN_IF_ERROR(read_bucket(shard_b, slot_b, &images_b));
      router_->CommitSwap(swap);
      const Status journaled = journal_swap();
      if (!journaled.ok()) {
        formatted_ = false;  // router committed in RAM but not on flash
        return journaled;
      }
      write_a = write_bucket(shard_a, slot_a, images_b);
      write_b = write_bucket(shard_b, slot_b, images_a);
    }
    // The swap is applied on both chips: mark it on both shards' timelines
    // (instant events, stamped with each chip's post-copy clock; emitted from
    // the submitting thread while the workers are quiescent).
    for (const uint32_t sh : {shard_a, shard_b}) {
      flash::FlashDevice* dev = shards_[sh].device;
      if (dev->trace() != nullptr && write_a.ok() && write_b.ok()) {
        dev->trace()->Emit(obs::TraceCat::kBucketMigrate,
                           dev->clock().now_us(), 0, swap.bucket_a,
                           swap.bucket_b, m);
      }
    }
    if (!write_a.ok() || !write_b.ok()) {
      // A half-written swap cannot be rolled back in RAM: one slot set may
      // hold the other bucket's images. Returning the error alone would
      // leave a store that *silently* serves wrong pages to any caller that
      // keeps using it, so make it unusable instead -- every subsequent
      // operation fails fast. With a journal the committed snapshot + redo
      // record means a fresh instance can still Recover() the exact
      // post-swap state.
      formatted_ = false;
      return !write_a.ok() ? write_a : write_b;
    }
    const Status completed = journal_complete();
    if (!completed.ok()) {
      formatted_ = false;
      return completed;
    }
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

uint64_t ShardedStore::parallel_time_us() const {
  uint64_t m = 0;
  for (const Shard& s : shards_) {
    m = std::max(m, s.device->clock().now_us());
  }
  return m;
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

uint64_t ShardedStore::total_work_us() const {
  uint64_t sum = 0;
  for (const Shard& s : shards_) sum += s.device->clock().now_us();
  return sum;
}

}  // namespace flashdb::ftl
