#include "workload/update_driver.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "flash/flash_device.h"
#include "ftl/shard_executor.h"
#include "ftl/sharded_store.h"
#include "obs/trace_recorder.h"
#include "workload/credit_stream.h"

namespace flashdb::workload {

namespace {
/// Deterministic initial content so reloads are reproducible.
void InitialImage(PageId pid, MutBytes page, void* arg) {
  const uint64_t seed = *static_cast<const uint64_t*>(arg);
  Random r(seed ^ (0x517CC1B727220A95ULL * (pid + 1)));
  r.Fill(page);
}
}  // namespace

UpdateDriver::UpdateDriver(PageStore* store, const WorkloadParams& params)
    : store_(store),
      sharded_(dynamic_cast<ftl::ShardedStore*>(store)),
      params_(params),
      rng_(params.seed),
      data_size_(store->device()->geometry().data_size) {
  scratch_.resize(data_size_);
  if (params_.hot_shard_pct > 0 && sharded_ != nullptr &&
      sharded_->num_shards() > 1) {
    hot_pid_stride_ = sharded_->num_shards();
  }
}

PageId UpdateDriver::DrawPid() {
  if (hot_pid_stride_ != 0 &&
      rng_.NextDouble() * 100.0 < params_.hot_shard_pct) {
    // Pids congruent to 0 mod the shard count all land on shard 0: the
    // number of such pids in [0, num_pages_) is ceil(num_pages_ / stride).
    const uint32_t count = (num_pages_ + hot_pid_stride_ - 1) / hot_pid_stride_;
    return hot_pid_stride_ * static_cast<PageId>(rng_.Uniform(count));
  }
  return static_cast<PageId>(rng_.Uniform(num_pages_));
}

Status UpdateDriver::LoadDatabase(uint32_t num_pages) {
  num_pages_ = num_pages;
  uint64_t seed = params_.seed;
  FLASHDB_RETURN_IF_ERROR(store_->Format(num_pages, &InitialImage, &seed));
  if (params_.verify) {
    shadow_.assign(num_pages, ByteBuffer(data_size_));
    for (PageId pid = 0; pid < num_pages; ++pid) {
      InitialImage(pid, shadow_[pid], &seed);
    }
  }
  return Status::OK();
}

void UpdateDriver::DrawUpdateCmd(uint32_t* offset, ByteBuffer* data) {
  // One update command changes a random contiguous region covering
  // %ChangedByOneU_Op percent of the page.
  uint32_t len = static_cast<uint32_t>(std::lround(
      params_.pct_changed_by_one_op / 100.0 * static_cast<double>(data_size_)));
  len = std::clamp<uint32_t>(len, 1, data_size_);
  *offset = static_cast<uint32_t>(rng_.Uniform(data_size_ - len + 1));
  data->resize(len);
  rng_.Fill(*data);
}

Status UpdateDriver::ReadOperation(PageId pid) {
  StoreCategoryScope cat(store_, flash::OpCategory::kReadStep);
  FLASHDB_RETURN_IF_ERROR(store_->ReadPage(pid, scratch_));
  if (params_.verify && !BytesEqual(scratch_, shadow_[pid])) {
    return Status::Corruption("shadow mismatch on read of pid " +
                              std::to_string(pid));
  }
  return Status::OK();
}

void UpdateDriver::DrawOp(bool draw_kind, PlannedOp* op) {
  op->pid = DrawPid();
  op->is_update =
      !draw_kind || rng_.NextDouble() * 100.0 < params_.pct_update_ops;
  if (!op->is_update) return;
  op->updates.resize(params_.updates_till_write);
  for (PlannedUpdate& u : op->updates) DrawUpdateCmd(&u.offset, &u.data);
}

Status UpdateDriver::Warmup(double erases_per_block, uint64_t max_ops) {
  // Per-chip steady state: for a sharded store the erase target scales with
  // the block count of every shard (stats() sums them).
  uint64_t num_blocks = store_->stats().block_erase_counts.size();
  if (num_blocks == 0) num_blocks = store_->device()->geometry().num_blocks;
  const uint64_t target = static_cast<uint64_t>(
      erases_per_block * static_cast<double>(num_blocks));
  const uint64_t start = store_->total_erases();
  uint64_t ops = 0;
  return RunEach(/*samples=*/nullptr, [&](PlannedOp* op) {
    if (store_->total_erases() - start >= target || ops == max_ops) {
      return false;
    }
    ++ops;
    DrawOp(/*draw_kind=*/false, op);
    return true;
  });
}

Status UpdateDriver::Run(uint64_t num_ops, RunStats* out) {
  const flash::FlashStats stats0 = store_->stats();
  const std::vector<uint64_t> clocks0 = ChipClocks();
  OpSamples samples;
  uint64_t ops = 0;
  uint64_t update_ops = 0;
  FLASHDB_RETURN_IF_ERROR(RunEach(
      params_.record_latency ? &samples : nullptr, [&](PlannedOp* op) {
        if (ops == num_ops) return false;
        ++ops;
        DrawOp(/*draw_kind=*/true, op);
        if (op->is_update) ++update_ops;
        return true;
      }));
  AccumulateRunStats(stats0, clocks0, ops, update_ops, samples, out);
  return Status::OK();
}

Schedule UpdateDriver::MakeSchedule(uint64_t num_ops) {
  Schedule schedule(num_ops);
  for (PlannedOp& op : schedule) DrawOp(/*draw_kind=*/true, &op);
  return schedule;
}

std::vector<UpdateDriver::ShardStream> UpdateDriver::MakeStreams(bool record) {
  std::vector<ShardStream> streams(sharded_ != nullptr ? sharded_->num_shards()
                                                       : 1);
  for (uint32_t i = 0; i < streams.size(); ++i) {
    ShardStream& s = streams[i];
    s.store = sharded_ != nullptr ? sharded_->shard(i) : store_;
    s.record = record;
    s.scratch.resize(data_size_);
  }
  return streams;
}

UpdateDriver::ShardStream* UpdateDriver::Route(
    const PlannedOp& op, std::vector<ShardStream>* streams) {
  if (sharded_ == nullptr) {
    (*streams)[0].ops.push_back(ShardStream::Op{&op, op.pid, op.pid});
    return &(*streams)[0];
  }
  ShardStream* s = &(*streams)[sharded_->shard_of(op.pid)];
  s->ops.push_back(ShardStream::Op{&op, sharded_->inner_pid(op.pid), op.pid});
  return s;
}

Status UpdateDriver::RunEach(OpSamples* samples,
                             FunctionRef<bool(PlannedOp*)> next) {
  std::vector<ShardStream> streams = MakeStreams(samples != nullptr);
  PlannedOp op;
  while (next(&op)) {
    ShardStream* s = Route(op, &streams);
    FLASHDB_RETURN_IF_ERROR(RunShardWindow(s, 0, 1));
    s->ops.clear();
  }
  if (samples != nullptr) {
    for (const ShardStream& s : streams) samples->Merge(s.samples);
  }
  return Status::OK();
}

Status UpdateDriver::FlushShardWindow(ShardStream* s) {
  if (s->queued_n == 0) return Status::OK();
  StoreCategoryScope cat(s->store, flash::OpCategory::kWriteStep);
  // Write by write, so each queued op gets its own clock delta when
  // recording. A window never holds an invalid entry, so this leaves the
  // device state and virtual clocks of one WriteBatch (the batched-write
  // equivalence tests/batched_write_test.cc pins down).
  flash::FlashDevice* dev = s->record ? s->store->device() : nullptr;
  for (size_t i = 0; i < s->queued_n; ++i) {
    ShardStream::QueuedWrite& q = s->queued[i];
    CostSnap snap;
    if (s->record) snap = SnapCost(dev);
    FLASHDB_RETURN_IF_ERROR(s->store->WriteBack(q.inner_pid, q.image));
    if (!s->record) continue;
    q.cost += CostSince(snap, dev, q.cost.pid);
    s->samples.Record(q.cost);
    if (dev->trace() != nullptr) {
      // The op's span opened at its inline start; its duration is the
      // accumulated latency (inline + this write-back) -- identical
      // inline and threaded for one schedule and batch size.
      dev->trace()->Emit(obs::TraceCat::kOpSpan, q.start_us, q.cost.total_us,
                         q.cost.pid, 1);
    }
  }
  s->queued_n = 0;  // images keep their capacity for the next window
  return Status::OK();
}

Status UpdateDriver::RunShardWindow(ShardStream* s, size_t begin, size_t end) {
  flash::FlashDevice* dev = s->record ? s->store->device() : nullptr;
  for (size_t k = begin; k < end; ++k) {
    const PlannedOp& op = *s->ops[k].op;
    const PageId ipid = s->ops[k].inner_pid;
    const PageId gpid = s->ops[k].pid;
    CostSnap snap;
    if (s->record) snap = SnapCost(dev);
    // Reading step. A page whose write-back is still queued in this window
    // is served from its newest queued image (its on-flash copy is stale).
    size_t slot = s->queued_n;
    while (slot > 0 && s->queued[slot - 1].inner_pid != ipid) --slot;
    if (slot > 0) {
      CopyBytes(s->scratch, s->queued[slot - 1].image);
    } else {
      StoreCategoryScope cat(s->store, flash::OpCategory::kReadStep);
      FLASHDB_RETURN_IF_ERROR(s->store->ReadPage(ipid, s->scratch));
    }
    if (params_.verify && !BytesEqual(s->scratch, shadow_[gpid])) {
      return Status::Corruption("shadow mismatch on read of pid " +
                                std::to_string(gpid));
    }
    if (!op.is_update) {
      // A read-only op completes here; one served from a queued image cost
      // no device time and records a 0 -- the same 0 inline and threaded,
      // since window composition is fixed by the schedule.
      if (s->record) {
        const WorstOpSample sample = CostSince(snap, dev, gpid);
        s->samples.Record(sample);
        if (dev->trace() != nullptr) {
          dev->trace()->Emit(obs::TraceCat::kOpSpan, snap.clock_us,
                             sample.total_us, gpid, 0);
        }
      }
      continue;
    }
    // Updating step: apply the planned commands, notifying the store.
    // Tightly-coupled methods capture the update log here; loosely-coupled
    // methods ignore the notification. Log-based methods may spill their log
    // buffers to flash, which belongs to the writing step in the paper's
    // accounting.
    {
      StoreCategoryScope cat(s->store, flash::OpCategory::kWriteStep);
      for (const PlannedUpdate& u : op.updates) {
        std::memcpy(s->scratch.data() + u.offset, u.data.data(),
                    u.data.size());
        s->log_scratch.offset = u.offset;
        s->log_scratch.data.assign(u.data.begin(), u.data.end());
        FLASHDB_RETURN_IF_ERROR(
            s->store->OnUpdate(ipid, s->scratch, s->log_scratch));
      }
    }
    if (params_.verify) shadow_[gpid] = s->scratch;
    // Queue the write-back for the window's flush.
    if (s->queued_n == s->queued.size()) s->queued.emplace_back();
    ShardStream::QueuedWrite& q = s->queued[s->queued_n];
    q.inner_pid = ipid;
    q.image.assign(s->scratch.begin(), s->scratch.end());
    // An update op's sample stays open until its write-back flushes: stash
    // the inline cost (reading step + log spills) with the queued write.
    q.cost = s->record ? CostSince(snap, dev, gpid) : WorstOpSample{};
    q.start_us = s->record ? snap.clock_us : 0;
    ++s->queued_n;
  }
  return FlushShardWindow(s);
}

std::vector<uint64_t> UpdateDriver::ChipClocks() {
  if (sharded_ != nullptr) return sharded_->shard_clocks();
  return {store_->device()->clock().now_us()};
}

void UpdateDriver::AccumulateRunStats(const flash::FlashStats& before,
                                      const std::vector<uint64_t>& clocks0,
                                      uint64_t operations, uint64_t update_ops,
                                      const OpSamples& samples,
                                      RunStats* out) {
  out->operations += operations;
  out->update_ops += update_ops;
  const flash::FlashStats after = store_->stats();
  out->device += after - before;
  out->plane_stall_us += after.plane_stall_us() - before.plane_stall_us();
  const ClockAdvance adv = ClockAdvanceOf(clocks0, ChipClocks());
  out->elapsed_vt_us += adv.elapsed_vt_us;
  out->total_work_us += adv.total_work_us;
  out->Merge(samples);
}

Status UpdateDriver::RunPipelined(const Schedule& schedule,
                                  uint32_t batch_size, uint32_t max_inflight,
                                  ftl::ShardExecutor* executor,
                                  RunStats* out) {
  if (batch_size == 0) {
    return Status::InvalidArgument("batch_size must be > 0");
  }
  FLASHDB_RETURN_IF_ERROR(CreditStream::Validate(
      executor, sharded_ != nullptr ? sharded_->num_shards() : 1,
      max_inflight));
  const flash::FlashStats stats0 = store_->stats();
  const std::vector<uint64_t> clocks0 = ChipClocks();
  OpSamples samples;
  const uint64_t epoch = params_.rebalance_epoch_ops;
  const bool leveling =
      sharded_ != nullptr && sharded_->router()->rebalancing_enabled();
  const bool scrubbing = params_.scrub && sharded_ != nullptr;
  const ChunkSpan all(schedule);
  // Epoch splitting applies whenever it is configured -- even with the
  // router disabled -- so a leveling-off reference run sees the exact same
  // window boundaries (and therefore virtual clocks) as a leveling-on run
  // that happens to plan zero migrations.
  const size_t chunk_ops = epoch == 0 ? all.size() : epoch;
  for (size_t begin = 0; begin < all.size(); begin += chunk_ops) {
    const ChunkSpan chunk =
        all.subspan(begin, std::min(chunk_ops, all.size() - begin));
    const uint64_t wait0 = credit_wait_ns_;
    const Status st =
        RunChunk(chunk, batch_size, max_inflight, executor, &samples);
    out->credit_wait_ns += credit_wait_ns_ - wait0;
    FLASHDB_RETURN_IF_ERROR(st);
    if (epoch == 0) break;
    // Rebalance / scrub between epochs only: a trailing migration or
    // relocation could not benefit any operation of this run.
    const bool more = begin + epoch < all.size();
    if (leveling && more) {
      FLASHDB_RETURN_IF_ERROR(RebalanceEpoch(chunk, executor, out));
    }
    if (scrubbing && more) FLASHDB_RETURN_IF_ERROR(ScrubEpoch(out));
  }
  uint64_t update_ops = 0;
  for (const PlannedOp& op : schedule) update_ops += op.is_update ? 1 : 0;
  AccumulateRunStats(stats0, clocks0, schedule.size(), update_ops, samples,
                     out);
  return Status::OK();
}

Status UpdateDriver::RebalanceEpoch(ChunkSpan chunk,
                                    ftl::ShardExecutor* executor,
                                    RunStats* out) {
  ftl::ShardRouter* router = sharded_->router();
  // The epoch's write heat comes from the executed schedule itself, not from
  // device counters: it is the same inline and threaded by construction.
  std::vector<uint64_t> heat(router->num_buckets(), 0);
  for (const PlannedOp& op : chunk) {
    if (op.is_update) heat[router->bucket_of(op.pid)]++;
  }
  router->AddEpochHeat(heat);
  const std::vector<ftl::ShardRouter::Swap> plan =
      router->PlanRebalance(sharded_->shard_erases());
  if (plan.empty()) return Status::OK();
  FLASHDB_RETURN_IF_ERROR(sharded_->MigrateBuckets(plan, executor));
  out->migrations += plan.size();
  return Status::OK();
}

Status UpdateDriver::ScrubEpoch(RunStats* out) {
  ftl::ShardedStore::ScrubResult res;
  FLASHDB_RETURN_IF_ERROR(sharded_->ScrubShards(&res));
  out->scrub_candidates += res.candidates;
  out->scrub_relocations += res.relocated;
  return Status::OK();
}

Status UpdateDriver::RunChunk(ChunkSpan chunk, uint32_t batch_size,
                              uint32_t max_inflight,
                              ftl::ShardExecutor* executor,
                              OpSamples* samples) {
  std::vector<ShardStream> streams = MakeStreams(params_.record_latency);
  for (const PlannedOp& op : chunk) Route(op, &streams);
  const uint32_t n = static_cast<uint32_t>(streams.size());
  std::vector<size_t> next(n, 0);  // submission cursor per shard
  const auto pending = [&](uint32_t i) {
    return next[i] < streams[i].ops.size();
  };
  // The windows reference `streams` on this stack frame; the stream drains
  // before either goes away, error or not.
  CreditStream credits(executor, n, max_inflight, &credit_wait_ns_,
                       wall_trace_);
  while (!credits.failed()) {
    // Round-robin pass: give every shard with spare credit its next window.
    // Interleaving submission across shards (instead of finishing one shard
    // first) is what keeps every chip fed when one of them is hot.
    bool work_left = false;
    bool submitted = false;
    for (uint32_t i = 0; i < n && !credits.failed(); ++i) {
      if (!pending(i)) continue;
      work_left = true;
      if (!credits.HasCredit(i)) continue;
      ShardStream* s = &streams[i];
      const size_t begin = next[i];
      const size_t end = std::min(s->ops.size(), begin + batch_size);
      next[i] = end;
      credits.Submit(
          i, [this, s, begin, end] { return RunShardWindow(s, begin, end); });
      submitted = true;
    }
    if (!work_left) break;
    // Every remaining shard is at its credit limit: park until a completion
    // returns a credit somewhere -- per-shard backpressure, no barrier.
    if (!submitted) credits.AwaitAnyCredit(pending);
  }
  const Status st = credits.Drain();
  for (const ShardStream& s : streams) samples->Merge(s.samples);
  return st;
}

}  // namespace flashdb::workload
