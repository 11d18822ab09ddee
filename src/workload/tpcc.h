// TPC-C-style workload for Experiment 7 (Fig. 18) and the concurrent OLTP
// serving layer (tpcc_driver.h).
//
// A self-contained, scaled implementation of the TPC-C schema (9 tables) and
// the five transaction types with the standard 45/43/4/4/4 mix, running on
// the flashdb storage engine (buffer pool + heap files + B+-tree indexes)
// over any page-update method. The paper ran TPC-C on the Odysseus ORDBMS;
// what Experiment 7 measures is the flash I/O time per transaction as the
// DBMS buffer is varied from 0.1% to 10% of the database size, which depends
// on the page access pattern, not on SQL processing -- hence this native
// implementation preserves the relevant behaviour (see DESIGN.md).
//
// Every transaction targets exactly one warehouse, and each instance may host
// a *subset* of the global warehouses: the multi-client driver places each
// warehouse's tables on the shard that owns it and routes whole transactions
// to the owning shard's worker. Construction with the full {1..W} list is
// draw-for-draw RNG-identical to the historical single-instance behaviour.
//
// Scale is configurable; defaults are shrunk so benches finish quickly while
// keeping the spec's relative table sizes and access skew.

#ifndef FLASHDB_WORKLOAD_TPCC_H_
#define FLASHDB_WORKLOAD_TPCC_H_

#include <array>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common/function_ref.h"
#include "common/random.h"
#include "storage/btree.h"
#include "storage/buffer_pool.h"
#include "storage/heap_file.h"

namespace flashdb::workload {

/// Scaled-down cardinalities (spec values in comments).
struct TpccScale {
  uint32_t warehouses = 2;
  uint32_t districts_per_warehouse = 10;  // spec: 10
  uint32_t customers_per_district = 120;  // spec: 3000
  uint32_t items = 2000;                  // spec: 100000
  uint32_t init_orders_per_district = 30; // spec: 3000
  /// Growth headroom: tables are sized so this many transactions can run
  /// after Load() without exhausting heap/index page budgets.
  uint32_t transaction_headroom = 10000;
};

/// The five transaction types of the standard mix.
enum class TpccTxnType : uint8_t {
  kNewOrder = 0,
  kPayment = 1,
  kOrderStatus = 2,
  kDelivery = 3,
  kStockLevel = 4,
};
inline constexpr uint32_t kNumTpccTxnTypes = 5;
const char* TpccTxnTypeName(TpccTxnType t);

/// Committed transactions per type, indexed by TpccTxnType.
struct TpccStats {
  std::array<uint64_t, kNumTpccTxnTypes> committed{};

  uint64_t of(TpccTxnType t) const { return committed[static_cast<size_t>(t)]; }
  uint64_t total() const {
    return std::accumulate(committed.begin(), committed.end(), uint64_t{0});
  }
};

/// See file comment.
class TpccWorkload {
 public:
  /// Hosts every warehouse 1..scale.warehouses. `pool` must sit on a
  /// formatted store large enough for the scale
  /// (TpccDriver::PagesPerShard(scale, page_size, 1)).
  TpccWorkload(storage::BufferPool* pool, const TpccScale& scale,
               uint64_t seed);

  /// Hosts only `warehouse_ids` (global ids in 1..scale.warehouses, given in
  /// hosting order; an empty list or an id outside that range aborts with a
  /// message, in every build). The ITEM table is replicated into every
  /// instance (it is read-only after load); WAREHOUSE/DISTRICT/CUSTOMER/
  /// STOCK/ORDER* rows exist only for the hosted warehouses. Page budgets
  /// shrink with the hosted count, so a shard's instance fits a shard-sized
  /// store.
  TpccWorkload(storage::BufferPool* pool, const TpccScale& scale,
               std::vector<uint32_t> warehouse_ids, uint64_t seed);

  /// Page budget for an instance hosting `hosted_warehouses` of the scale's
  /// warehouses (full ITEM table, per-warehouse tables scaled down).
  static uint32_t RequiredPagesHosted(const TpccScale& scale,
                                      uint32_t page_size,
                                      uint32_t hosted_warehouses);

  /// Draws one transaction type from the 45/43/4/4/4 mix (one Uniform(100)
  /// draw -- the same draw RunTransaction() has always used).
  static TpccTxnType PickTxnType(Random* rng);

  /// Creates tables/indexes and loads initial rows for the hosted
  /// warehouses.
  Status Load();

  /// Executes one transaction drawn from the standard mix against a
  /// uniformly drawn hosted warehouse.
  Status RunTransaction();

  /// Executes one transaction of `type` against hosted warehouse `w` (the
  /// externally-routed form the multi-client driver uses; type and
  /// warehouse come from the client's RNG, everything inside the
  /// transaction from this instance's RNG). Every transaction runs through
  /// here, which counts it in stats() once it commits.
  Status RunTransactionOfType(TpccTxnType type, uint32_t w);

  /// Executes `n` transactions.
  Status Run(uint64_t n);

  const TpccStats& stats() const { return stats_; }
  const TpccScale& scale() const { return scale_; }
  const std::vector<uint32_t>& warehouse_ids() const { return warehouse_ids_; }
  storage::BufferPool* pool() { return pool_; }

 private:
  // The five transaction types (`w` must be hosted).
  Status NewOrderAt(uint32_t w);
  Status PaymentAt(uint32_t w);
  Status OrderStatusAt(uint32_t w);
  Status DeliveryAt(uint32_t w);
  Status StockLevelAt(uint32_t w);

  struct Table {
    std::unique_ptr<storage::HeapFile> heap;
    std::unique_ptr<storage::BTree> index;
  };

  /// Carves `heap_pages` + `index_pages` out of the page range and registers
  /// the table.
  Table MakeTable(uint32_t heap_pages, uint32_t index_pages);

  // Key builders (packed composite keys over *global* warehouse ids).
  static uint64_t WKey(uint32_t w) { return w; }
  static uint64_t DKey(uint32_t w, uint32_t d) {
    return (static_cast<uint64_t>(w) << 8) | d;
  }
  static uint64_t CKey(uint32_t w, uint32_t d, uint32_t c) {
    return (static_cast<uint64_t>(w) << 40) |
           (static_cast<uint64_t>(d) << 32) | c;
  }
  static uint64_t OKey(uint32_t w, uint32_t d, uint32_t o) {
    return (static_cast<uint64_t>(w) << 40) |
           (static_cast<uint64_t>(d) << 32) | o;
  }
  static uint64_t OlKey(uint32_t w, uint32_t d, uint32_t o, uint32_t l) {
    return (static_cast<uint64_t>(w) << 48) |
           (static_cast<uint64_t>(d) << 40) |
           (static_cast<uint64_t>(o) << 8) | l;
  }
  static uint64_t SKey(uint32_t w, uint32_t i) {
    return (static_cast<uint64_t>(w) << 32) | i;
  }

  /// Uniform draw over the hosted warehouses. For the full {1..W} list this
  /// consumes the RNG exactly like the historical `1 + Uniform(W)`.
  uint32_t PickWarehouse();

  /// Slot of hosted warehouse `w` in per-(w,d) bookkeeping arrays; the
  /// hosting-order position, so the full list reproduces the legacy
  /// `(w - 1) * districts + (d - 1)` indexing bit-for-bit.
  uint32_t WdIndex(uint32_t w, uint32_t d) const {
    return w_slot_[w] * scale_.districts_per_warehouse + (d - 1);
  }

  // NURand-style skewed pick (spec 2.1.6 simplified).
  uint32_t PickCustomer();
  uint32_t PickItem();

  Status UpdateRow(Table& t, uint64_t key, ByteBuffer* row,
                   FunctionRef<void(ByteBuffer*)> mutate);
  Status GetRow(const Table& t, uint64_t key, ByteBuffer* row);
  Status InsertRow(Table& t, uint64_t key, ConstBytes row);

  storage::BufferPool* pool_;
  TpccScale scale_;
  /// Hosted warehouses, in hosting order (the full 1..W range by default).
  std::vector<uint32_t> warehouse_ids_;
  /// Global warehouse id -> hosting-order slot (index into per-(w,d)
  /// arrays); sized warehouses + 1.
  std::vector<uint32_t> w_slot_;
  Random rng_;
  PageId next_page_ = 0;

  Table warehouse_;
  Table district_;
  Table customer_;
  Table history_;   // no index (append-only)
  Table new_order_;
  Table order_;
  Table order_line_;
  Table item_;
  Table stock_;

  /// Next order id per hosted (w,d); mirrors the district row's d_next_o_id.
  std::vector<uint32_t> next_o_id_;
  /// Oldest undelivered order per hosted (w,d).
  std::vector<uint32_t> next_delivery_o_id_;

  TpccStats stats_;
  /// Scratch reused across transactions: one order line as read by
  /// OrderStatus and StockLevel, and StockLevel's item ids.
  ByteBuffer line_;
  std::vector<uint32_t> items_;
};

}  // namespace flashdb::workload

#endif  // FLASHDB_WORKLOAD_TPCC_H_
