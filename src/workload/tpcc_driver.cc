#include "workload/tpcc_driver.h"

#include <string>

#include "flash/flash_device.h"
#include "obs/trace_recorder.h"
#include "workload/credit_stream.h"

namespace flashdb::workload {

namespace {
/// Per-shard workload seed stride (shard 0 keeps the base seed); clients
/// use a different odd constant so their streams never collide with a
/// shard's.
constexpr uint64_t kShardSeedStride = 0x9e3779b97f4a7c15ULL;
constexpr uint64_t kClientSeedStride = 0xd1b54a32d192ed03ULL;
}  // namespace

TpccDriver::TpccDriver(ftl::ShardedStore* store, const TpccDriverOptions& opts)
    : store_(store), opts_(opts) {
  client_rngs_.reserve(opts_.num_clients);
  for (uint32_t c = 0; c < opts_.num_clients; ++c) {
    client_rngs_.emplace_back(opts_.seed + kClientSeedStride * (c + 1));
  }
  if (!CheckShards().ok()) return;  // Load/Serve/Replay report it
  const uint32_t num_shards = store_->num_shards();
  shards_.resize(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    std::vector<uint32_t> hosted;
    for (uint32_t w = s + 1; w <= opts_.scale.warehouses; w += num_shards) {
      hosted.push_back(w);
    }
    ShardState& sh = shards_[s];
    sh.pool = std::make_unique<storage::BufferPool>(store_->shard(s),
                                                    opts_.frames_per_shard);
    sh.workload = std::make_unique<TpccWorkload>(
        sh.pool.get(), opts_.scale, std::move(hosted),
        opts_.seed + kShardSeedStride * s);
  }
}

Status TpccDriver::CheckShards() const {
  if (store_->num_shards() <= opts_.scale.warehouses) return Status::OK();
  return Status::InvalidArgument(
      "TPC-C needs a warehouse on every shard: " +
      std::to_string(opts_.scale.warehouses) + " warehouses over " +
      std::to_string(store_->num_shards()) + " shards");
}

uint32_t TpccDriver::PagesPerShard(const TpccScale& scale, uint32_t page_size,
                                   uint32_t num_shards) {
  const uint32_t fullest =
      (scale.warehouses + num_shards - 1) / num_shards;
  return TpccWorkload::RequiredPagesHosted(scale, page_size, fullest);
}

Status TpccDriver::Load(ftl::ShardExecutor* executor) {
  FLASHDB_RETURN_IF_ERROR(CheckShards());
  std::vector<ftl::ShardTask> loads;
  for (uint32_t s = 0; s < shards_.size(); ++s) {
    loads.push_back({s, [this, s] { return shards_[s].workload->Load(); }});
  }
  return ftl::RunShardTasks(executor, std::move(loads));
}

Status TpccDriver::ExecuteTxn(uint32_t s, TpccTxnType type, uint32_t w,
                              uint32_t client, TpccTypeSamples* acc) {
  ShardState& sh = shards_[s];
  flash::FlashDevice* dev = store_->shard_device(s);
  const CostSnap before = SnapCost(dev);
  Status st = sh.workload->RunTransactionOfType(type, w);
  if (st.ok() && opts_.flush_every_txn) st = sh.pool->FlushAll();
  if (!st.ok()) return st;
  const WorstOpSample cost = CostSince(before, dev, w);
  if (dev->trace() != nullptr) {
    dev->trace()->Emit(obs::TraceCat::kTxnSpan, before.clock_us, cost.total_us,
                       w, static_cast<uint64_t>(type), client);
  }
  (*acc)[static_cast<size_t>(type)].Record(cost);
  return Status::OK();
}

TpccDriver::Draw TpccDriver::DrawNext(uint64_t txn_index) {
  Draw d;
  d.client = static_cast<uint32_t>(txn_index % opts_.num_clients);
  Random& rng = client_rngs_[d.client];
  const uint32_t route = static_cast<uint32_t>(rng.Uniform(100));
  if (static_cast<double>(route) < opts_.hot_warehouse_pct) {
    d.warehouse = 1;  // the hotspot, hosted on shard 0
  } else if (static_cast<double>(route) <
             opts_.hot_warehouse_pct + opts_.remote_pct) {
    d.warehouse =
        1 + static_cast<uint32_t>(rng.Uniform(opts_.scale.warehouses));
  } else {
    d.warehouse = home_warehouse(d.client);
  }
  d.type = TpccWorkload::PickTxnType(&rng);
  return d;
}

void TpccDriver::FoldStats(const std::vector<uint64_t>& clocks_before,
                           const std::vector<TpccTypeSamples>& acc,
                           uint64_t wait_ns, TpccRunStats* out) {
  if (out == nullptr) return;
  const ClockAdvance adv =
      ClockAdvanceOf(clocks_before, store_->shard_clocks());
  out->elapsed_vt_us += adv.elapsed_vt_us;
  out->total_work_us += adv.total_work_us;
  out->credit_wait_ns += wait_ns;
  for (const TpccTypeSamples& shard : acc) {
    for (uint32_t t = 0; t < kNumTpccTxnTypes; ++t) {
      out->by_type[t].Merge(shard[t]);
      out->Merge(shard[t]);
    }
  }
}

Status TpccDriver::Serve(uint64_t num_txns, ftl::ShardExecutor* executor,
                         TpccRunStats* out) {
  FLASHDB_RETURN_IF_ERROR(CheckShards());
  if (opts_.num_clients == 0) {
    return Status::InvalidArgument("TPC-C serving needs num_clients > 0");
  }
  const uint32_t n = store_->num_shards();
  FLASHDB_RETURN_IF_ERROR(
      CreditStream::Validate(executor, n, opts_.max_inflight_per_shard));
  commit_log_.clear();
  commit_log_.reserve(num_txns);
  std::vector<TpccTypeSamples> acc(n);
  uint64_t wait_ns = 0;
  const std::vector<uint64_t> clocks_before = store_->shard_clocks();
  CreditStream credits(executor, n, opts_.max_inflight_per_shard, &wait_ns,
                       wall_trace_);
  for (uint64_t i = 0; i < num_txns && !credits.failed(); ++i) {
    // Transactions must submit in global draw order -- per-shard submission
    // order is what the determinism contract pins down -- so when the
    // target shard is out of credits the producer parks rather than
    // reordering around it. The commit-log append rides the completion,
    // serialized across shards (the log *is* the commit order).
    const Draw d = DrawNext(i);
    const uint32_t s = shard_of_warehouse(d.warehouse);
    const TpccCommit commit{d.client, d.warehouse, d.type};
    TpccTypeSamples* shard_acc = &acc[s];
    credits.Submit(
        s,
        [this, s, d, shard_acc] {
          return ExecuteTxn(s, d.type, d.warehouse, d.client, shard_acc);
        },
        [this, commit] { commit_log_.push_back(commit); });
  }
  // The drain also publishes the workers' device mutations to this thread
  // before FoldStats snapshots the clocks.
  const Status st = credits.Drain();
  FoldStats(clocks_before, acc, wait_ns, out);
  return st;
}

Status TpccDriver::Replay(const TpccCommitLog& log, TpccRunStats* out) {
  FLASHDB_RETURN_IF_ERROR(CheckShards());
  for (const TpccCommit& c : log) {
    if (c.warehouse < 1 || c.warehouse > opts_.scale.warehouses ||
        static_cast<uint32_t>(c.type) >= kNumTpccTxnTypes) {
      return Status::InvalidArgument(
          "commit log names warehouse " + std::to_string(c.warehouse) +
          " (of " + std::to_string(opts_.scale.warehouses) + ") and type " +
          std::to_string(static_cast<uint32_t>(c.type)));
    }
  }
  std::vector<TpccTypeSamples> acc(store_->num_shards());
  const std::vector<uint64_t> clocks_before = store_->shard_clocks();
  Status st;
  for (const TpccCommit& c : log) {
    const uint32_t s = shard_of_warehouse(c.warehouse);
    st = ExecuteTxn(s, c.type, c.warehouse, c.client, &acc[s]);
    if (!st.ok()) break;
  }
  FoldStats(clocks_before, acc, /*wait_ns=*/0, out);
  return st;
}

Status TpccDriver::FlushAll() {
  for (ShardState& sh : shards_) {
    FLASHDB_RETURN_IF_ERROR(sh.pool->FlushAll());
  }
  return Status::OK();
}

}  // namespace flashdb::workload
