// Concurrent TPC-C serving over a ShardedStore: the heavy-traffic OLTP layer.
//
// Warehouse partitioning. TPC-C is built out of single-warehouse
// transactions, so the database shards naturally by warehouse: shard `s`
// hosts warehouses {w : (w-1) % S == s}, each shard runs its own BufferPool
// over its own chip (ShardedStore::shard(s)) and its own TpccWorkload
// instance holding only the hosted warehouses' tables (ITEM replicated,
// read-only). A transaction therefore touches exactly one shard, and the
// driver streams *whole transactions* to the owning shard's ShardExecutor
// worker with bounded per-shard credits -- the same CreditStream that
// UpdateDriver::RunPipelined uses one layer down, lifted from page-op
// windows to transactions.
//
// Traffic model. N logical clients issue transactions round-robin (txn i
// belongs to client i % N). Each client has a home warehouse
// ((client % W) + 1) and its own RNG stream; per transaction the client
// draws a route -- hot_warehouse_pct% to warehouse 1 (the deliberate
// hotspot, the hot_shard_pct idea one layer up), remote_pct% to a uniform
// warehouse, the rest to home -- and then the transaction type from the
// standard mix. Everything *inside* the transaction draws from the owning
// shard's workload RNG, so per-shard execution is a pure function of the
// per-shard transaction sequence.
//
// Determinism contract (the correctness spine). Serve() records the
// *commit order*: the completion callback of each transaction, running on
// its shard's worker, appends to a mutex-guarded commit log. Per shard,
// tasks and their callbacks run in submission order, so every shard's
// subsequence of the log equals its submission sequence -- and the
// submission sequence is fixed by the client RNG streams alone. Replaying
// the log single-threaded (Replay()) therefore re-executes each shard's
// exact sequence and must reproduce bit-identical flash state, virtual
// clocks, latency histograms, and worst-op samples, no matter how the
// concurrent run interleaved in wall time. tests/tpcc_driver_test.cc holds
// this differentially; bench/exp16_oltp gates it on every row.

#ifndef FLASHDB_WORKLOAD_TPCC_DRIVER_H_
#define FLASHDB_WORKLOAD_TPCC_DRIVER_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/random.h"
#include "ftl/shard_executor.h"
#include "ftl/sharded_store.h"
#include "storage/buffer_pool.h"
#include "workload/run_accounting.h"
#include "workload/tpcc.h"

namespace flashdb::obs {
class TraceShard;
}  // namespace flashdb::obs

namespace flashdb::workload {

/// Serving configuration.
struct TpccDriverOptions {
  TpccScale scale;
  /// Logical clients; transaction i is issued by client i % num_clients.
  uint32_t num_clients = 4;
  uint64_t seed = 42;
  /// BufferPool frames per shard.
  uint32_t frames_per_shard = 128;
  /// Percentage of transactions routed to warehouse 1 (the hotspot).
  double hot_warehouse_pct = 5.0;
  /// Percentage routed to a uniformly random warehouse (cross-warehouse
  /// traffic); the remainder goes to the client's home warehouse.
  double remote_pct = 10.0;
  /// Transactions in flight per shard before the producer parks.
  uint32_t max_inflight_per_shard = 4;
  /// FlushAll the shard's pool after every transaction (write-through
  /// serving: each commit is one WriteBatch on the chip). When off, dirty
  /// pages reach flash only when the pool evicts them.
  bool flush_every_txn = true;
};

/// One committed transaction, in commit order.
struct TpccCommit {
  uint32_t client = 0;
  uint32_t warehouse = 0;
  TpccTxnType type = TpccTxnType::kNewOrder;
};
using TpccCommitLog = std::vector<TpccCommit>;

/// Transaction samples per type, indexed by TpccTxnType.
using TpccTypeSamples = std::array<OpSamples, kNumTpccTxnTypes>;

/// Virtual-time serving metrics of one Serve()/Replay() call. The OpSamples
/// base holds every committed transaction (all types merged), so
/// latency.count() is the transaction count. A transaction's latency is the
/// advance of its shard's virtual clock across the whole transaction
/// (including its flush); the worst-op sample carries the same GC/meta
/// attribution as the page-op layer, with `pid` holding the warehouse id.
struct TpccRunStats : OpSamples {
  /// The same samples split by type; by_type[t].latency.count() is the
  /// number of type-t transactions.
  TpccTypeSamples by_type;
  /// Largest per-shard clock advance of the run (ClockAdvanceOf): the
  /// serving-throughput denominator when the chips run in parallel.
  uint64_t elapsed_vt_us = 0;
  /// Sum of the per-shard clock advances (total device busy time).
  uint64_t total_work_us = 0;
  /// Wall-clock time the producer spent parked on per-shard credits
  /// (threaded Serve only; wall time, excluded from determinism checks).
  uint64_t credit_wait_ns = 0;

  /// Equality of every virtual field -- all but the wall-clock
  /// credit_wait_ns. A Serve and the Replay of its commit log must agree.
  bool SameVirtualAs(TpccRunStats other) const {
    other.credit_wait_ns = credit_wait_ns;
    return *this == other;
  }
  friend bool operator==(const TpccRunStats& a,
                         const TpccRunStats& b) = default;
};

/// See file comment.
class TpccDriver {
 public:
  /// `store` must be formatted with num_shards() * PagesPerShard(...) pages
  /// and outlive the driver. Every shard must host a warehouse: with
  /// num_shards() > scale.warehouses, Load, Serve and Replay return
  /// InvalidArgument naming both counts.
  TpccDriver(ftl::ShardedStore* store, const TpccDriverOptions& opts);

  /// Logical pages each shard's chip needs: the hosted-warehouse page
  /// budget of the fullest shard (ceil(W/S) warehouses).
  static uint32_t PagesPerShard(const TpccScale& scale, uint32_t page_size,
                                uint32_t num_shards);

  uint32_t shard_of_warehouse(uint32_t w) const {
    return (w - 1) % store_->num_shards();
  }
  uint32_t home_warehouse(uint32_t client) const {
    return client % opts_.scale.warehouses + 1;
  }

  /// Loads every shard's tables -- on the shards' workers when `executor`
  /// is non-null (parallel load), inline otherwise; per-shard state is
  /// bit-identical either way (shard confinement).
  Status Load(ftl::ShardExecutor* executor);

  /// Serves `num_txns` transactions and appends their commit order to the
  /// commit log (cleared first). Transactions stream in draw order through
  /// a CreditStream with max_inflight_per_shard credits per shard (which
  /// must be positive, as must num_clients; InvalidArgument otherwise): to
  /// the shard workers when `executor` is non-null, inline on the calling
  /// thread when null. Client RNG streams persist across calls (warmup then
  /// measure continues the same traffic).
  /// Accumulates into `*out` (caller zero-initializes); `out` may be null.
  Status Serve(uint64_t num_txns, ftl::ShardExecutor* executor,
               TpccRunStats* out);

  /// Re-executes `log` single-threaded in log order against this driver's
  /// (freshly loaded) shards -- the differential half of the determinism
  /// contract. Does not consume client RNG streams. A log naming a
  /// warehouse outside 1..W or an unknown type is InvalidArgument before
  /// any transaction runs.
  Status Replay(const TpccCommitLog& log, TpccRunStats* out);

  /// Wall-clock-domain trace lane for the producer's credit-wait
  /// events (TraceRecorder::wall_lane()); null disables. Per-shard
  /// virtual-time events (flash spans, buffer traffic, transaction spans)
  /// attach via each shard device's set_trace.
  void set_wall_trace(obs::TraceShard* lane) { wall_trace_ = lane; }

  const TpccCommitLog& commit_log() const { return commit_log_; }
  storage::BufferPool* shard_pool(uint32_t s) { return shards_[s].pool.get(); }
  TpccWorkload* shard_workload(uint32_t s) { return shards_[s].workload.get(); }

 private:
  /// One shard's sub-DBMS.
  struct ShardState {
    std::unique_ptr<storage::BufferPool> pool;
    std::unique_ptr<TpccWorkload> workload;
  };

  /// One client draw: routing + type, from the client's RNG stream.
  struct Draw {
    uint32_t client = 0;
    uint32_t warehouse = 0;
    TpccTxnType type = TpccTxnType::kNewOrder;
  };
  Draw DrawNext(uint64_t txn_index);

  /// InvalidArgument when some shard would host no warehouse.
  Status CheckShards() const;
  /// Runs one transaction on shard `s` (thread-confined to its worker or to
  /// the calling thread when inline) and records its sample into `*acc`,
  /// the shard's accumulator for this call.
  Status ExecuteTxn(uint32_t s, TpccTxnType type, uint32_t w, uint32_t client,
                    TpccTypeSamples* acc);
  /// Folds the per-shard accumulators `acc` in shard-index order (Merge is
  /// commutative and Offer order-stable, so the fold equals the sequential
  /// replay's), the clock advance since `clocks_before` and `wait_ns` into
  /// `*out` (no-op when null).
  void FoldStats(const std::vector<uint64_t>& clocks_before,
                 const std::vector<TpccTypeSamples>& acc, uint64_t wait_ns,
                 TpccRunStats* out);

  ftl::ShardedStore* store_;
  TpccDriverOptions opts_;
  std::vector<ShardState> shards_;
  std::vector<Random> client_rngs_;
  TpccCommitLog commit_log_;
  obs::TraceShard* wall_trace_ = nullptr;
};

}  // namespace flashdb::workload

#endif  // FLASHDB_WORKLOAD_TPCC_DRIVER_H_
