#include "workload/tpcc.h"

#include <algorithm>
#include <numeric>

#include "common/coding.h"

namespace flashdb::workload {

using storage::BTree;
using storage::HeapFile;
using storage::Rid;

namespace {
// Approximate row widths (bytes). The numeric hot fields live at fixed
// offsets in a prefix; the remainder is immutable filler standing in for the
// spec's character columns, so updates touch small regions (as in a real
// row-store) while rows occupy realistic space.
constexpr uint32_t kWarehouseRow = 96;   // spec ~89 B
constexpr uint32_t kDistrictRow = 104;   // spec ~95 B
constexpr uint32_t kCustomerRow = 360;   // spec ~655 B (scaled)
constexpr uint32_t kHistoryRow = 48;     // spec ~46 B
constexpr uint32_t kNewOrderRow = 12;    // spec 8 B
constexpr uint32_t kOrderRow = 32;       // spec ~24 B
constexpr uint32_t kOrderLineRow = 56;   // spec ~54 B
constexpr uint32_t kItemRow = 88;        // spec ~82 B
constexpr uint32_t kStockRow = 160;      // spec ~306 B (scaled)

constexpr uint32_t kSlotOverhead = 4;
constexpr uint32_t kPageHeader = 12;
constexpr uint32_t kLeafEntryBytes = 16;

uint32_t HeapPagesFor(uint64_t rows, uint32_t row_bytes, uint32_t page_size) {
  const uint32_t per_page =
      std::max<uint32_t>(1, (page_size - kPageHeader) /
                                (row_bytes + kSlotOverhead));
  const uint64_t pages = (rows + per_page - 1) / per_page;
  return static_cast<uint32_t>(pages + pages / 4 + 2);  // 25% slack
}

uint32_t IndexPagesFor(uint64_t keys, uint32_t page_size) {
  const uint32_t leaf_cap =
      std::max<uint32_t>(1, (page_size - kPageHeader) / kLeafEntryBytes);
  const uint64_t leaves = keys / leaf_cap + 1;
  // Split-produced leaves run ~50-70% full under appending inserts, so
  // budget twice the densely-packed estimate, plus internals and the meta
  // page.
  return static_cast<uint32_t>(2 * leaves + leaves / 4 + 8);
}

struct Layout {
  uint32_t warehouse_h, warehouse_i;
  uint32_t district_h, district_i;
  uint32_t customer_h, customer_i;
  uint32_t history_h;
  uint32_t new_order_h, new_order_i;
  uint32_t order_h, order_i;
  uint32_t order_line_h, order_line_i;
  uint32_t item_h, item_i;
  uint32_t stock_h, stock_i;

  uint32_t total() const {
    return warehouse_h + warehouse_i + district_h + district_i + customer_h +
           customer_i + history_h + new_order_h + new_order_i + order_h +
           order_i + order_line_h + order_line_i + item_h + item_i + stock_h +
           stock_i;
  }
};

/// Table layout for an instance hosting `hosted` warehouses. The ITEM table
/// stays full size (replicated read-only); the transaction_headroom is NOT
/// scaled down -- under skewed routing one shard can receive nearly every
/// transaction, so each instance keeps the full growth budget.
Layout ComputeLayout(const TpccScale& s, uint32_t page_size, uint32_t hosted) {
  const uint64_t wd = static_cast<uint64_t>(hosted) *
                      s.districts_per_warehouse;
  const uint64_t customers = wd * s.customers_per_district;
  const uint64_t init_orders = wd * s.init_orders_per_district;
  const uint64_t orders = init_orders + s.transaction_headroom;
  const uint64_t order_lines = orders * 15;
  const uint64_t stock = static_cast<uint64_t>(hosted) * s.items;
  Layout l{};
  l.warehouse_h = HeapPagesFor(hosted, kWarehouseRow, page_size);
  l.warehouse_i = IndexPagesFor(hosted, page_size);
  l.district_h = HeapPagesFor(wd, kDistrictRow, page_size);
  l.district_i = IndexPagesFor(wd, page_size);
  l.customer_h = HeapPagesFor(customers, kCustomerRow, page_size);
  l.customer_i = IndexPagesFor(customers, page_size);
  l.history_h = HeapPagesFor(orders, kHistoryRow, page_size);
  l.new_order_h = HeapPagesFor(orders, kNewOrderRow, page_size);
  l.new_order_i = IndexPagesFor(orders, page_size);
  l.order_h = HeapPagesFor(orders, kOrderRow, page_size);
  l.order_i = IndexPagesFor(orders, page_size);
  l.order_line_h = HeapPagesFor(order_lines, kOrderLineRow, page_size);
  l.order_line_i = IndexPagesFor(order_lines, page_size);
  l.item_h = HeapPagesFor(s.items, kItemRow, page_size);
  l.item_i = IndexPagesFor(s.items, page_size);
  l.stock_h = HeapPagesFor(stock, kStockRow, page_size);
  l.stock_i = IndexPagesFor(stock, page_size);
  return l;
}

/// Builds a row: numeric prefix fields followed by pseudo-random filler.
ByteBuffer MakeRow(uint32_t size, Random* rng,
                   std::initializer_list<uint64_t> prefix_u64,
                   std::initializer_list<uint32_t> prefix_u32 = {}) {
  ByteBuffer row(size, 0);
  size_t off = 0;
  for (uint64_t v : prefix_u64) {
    EncodeFixed64(row.data() + off, v);
    off += 8;
  }
  for (uint32_t v : prefix_u32) {
    EncodeFixed32(row.data() + off, v);
    off += 4;
  }
  rng->Fill(MutBytes(row.data() + off, size - off));
  return row;
}

std::vector<uint32_t> FullWarehouseRange(uint32_t warehouses) {
  std::vector<uint32_t> ids(warehouses);
  std::iota(ids.begin(), ids.end(), 1u);
  return ids;
}
}  // namespace

const char* TpccTxnTypeName(TpccTxnType t) {
  switch (t) {
    case TpccTxnType::kNewOrder: return "new_order";
    case TpccTxnType::kPayment: return "payment";
    case TpccTxnType::kOrderStatus: return "order_status";
    case TpccTxnType::kDelivery: return "delivery";
    case TpccTxnType::kStockLevel: return "stock_level";
  }
  return "?";
}

TpccWorkload::TpccWorkload(storage::BufferPool* pool, const TpccScale& scale,
                           uint64_t seed)
    : TpccWorkload(pool, scale, FullWarehouseRange(scale.warehouses), seed) {}

TpccWorkload::TpccWorkload(storage::BufferPool* pool, const TpccScale& scale,
                           std::vector<uint32_t> warehouse_ids, uint64_t seed)
    : pool_(pool),
      scale_(scale),
      warehouse_ids_(std::move(warehouse_ids)),
      rng_(seed) {
  CheckOrAbort(!warehouse_ids_.empty(),
               "TpccWorkload: the hosted warehouse list is empty");
  w_slot_.assign(scale_.warehouses + 1, 0);
  for (uint32_t i = 0; i < warehouse_ids_.size(); ++i) {
    const uint32_t w = warehouse_ids_[i];
    CheckOrAbort(w >= 1 && w <= scale_.warehouses,
                 "TpccWorkload: hosted warehouse %u is outside 1..%u", w,
                 scale_.warehouses);
    w_slot_[w] = i;
  }
  const uint64_t wd = static_cast<uint64_t>(warehouse_ids_.size()) *
                      scale_.districts_per_warehouse;
  next_o_id_.assign(wd, scale_.init_orders_per_district + 1);
  next_delivery_o_id_.assign(wd, scale_.init_orders_per_district * 2 / 3 + 1);
}

uint32_t TpccWorkload::RequiredPagesHosted(const TpccScale& scale,
                                           uint32_t page_size,
                                           uint32_t hosted_warehouses) {
  return ComputeLayout(scale, page_size, hosted_warehouses).total();
}

TpccTxnType TpccWorkload::PickTxnType(Random* rng) {
  const uint32_t pick = static_cast<uint32_t>(rng->Uniform(100));
  if (pick < 45) return TpccTxnType::kNewOrder;
  if (pick < 88) return TpccTxnType::kPayment;
  if (pick < 92) return TpccTxnType::kOrderStatus;
  if (pick < 96) return TpccTxnType::kDelivery;
  return TpccTxnType::kStockLevel;
}

TpccWorkload::Table TpccWorkload::MakeTable(uint32_t heap_pages,
                                            uint32_t index_pages) {
  Table t;
  t.heap = std::make_unique<HeapFile>(pool_, next_page_, heap_pages);
  next_page_ += heap_pages;
  if (index_pages > 0) {
    t.index = std::make_unique<BTree>(pool_, next_page_, index_pages);
    next_page_ += index_pages;
  }
  return t;
}

Status TpccWorkload::GetRow(const Table& t, uint64_t key, ByteBuffer* row) {
  FLASHDB_ASSIGN_OR_RETURN(uint64_t enc, t.index->Get(key));
  return t.heap->Get(Rid::Decode(enc), row);
}

Status TpccWorkload::InsertRow(Table& t, uint64_t key, ConstBytes row) {
  FLASHDB_ASSIGN_OR_RETURN(Rid rid, t.heap->Insert(row));
  return t.index->Insert(key, rid.Encode());
}

Status TpccWorkload::UpdateRow(Table& t, uint64_t key, ByteBuffer* row,
                               FunctionRef<void(ByteBuffer*)> mutate) {
  FLASHDB_ASSIGN_OR_RETURN(uint64_t enc, t.index->Get(key));
  const Rid rid = Rid::Decode(enc);
  FLASHDB_RETURN_IF_ERROR(t.heap->Get(rid, row));
  mutate(row);
  return t.heap->Update(rid, *row);
}

Status TpccWorkload::Load() {
  const uint32_t page_size = pool_->store()->device()->geometry().data_size;
  const Layout l = ComputeLayout(
      scale_, page_size, static_cast<uint32_t>(warehouse_ids_.size()));
  next_page_ = 0;
  warehouse_ = MakeTable(l.warehouse_h, l.warehouse_i);
  district_ = MakeTable(l.district_h, l.district_i);
  customer_ = MakeTable(l.customer_h, l.customer_i);
  history_ = MakeTable(l.history_h, 0);
  new_order_ = MakeTable(l.new_order_h, l.new_order_i);
  order_ = MakeTable(l.order_h, l.order_i);
  order_line_ = MakeTable(l.order_line_h, l.order_line_i);
  item_ = MakeTable(l.item_h, l.item_i);
  stock_ = MakeTable(l.stock_h, l.stock_i);

  for (Table* t : {&warehouse_, &district_, &customer_, &history_, &new_order_,
                   &order_, &order_line_, &item_, &stock_}) {
    FLASHDB_RETURN_IF_ERROR(t->heap->Create());
    if (t->index) FLASHDB_RETURN_IF_ERROR(t->index->Create());
  }

  // WAREHOUSE / DISTRICT / CUSTOMER.
  for (uint32_t w : warehouse_ids_) {
    // w_ytd at offset 0.
    FLASHDB_RETURN_IF_ERROR(InsertRow(
        warehouse_, WKey(w), MakeRow(kWarehouseRow, &rng_, {300000ULL})));
    for (uint32_t d = 1; d <= scale_.districts_per_warehouse; ++d) {
      // d_ytd @0 (u64), d_next_o_id @8 (u32).
      FLASHDB_RETURN_IF_ERROR(InsertRow(
          district_, DKey(w, d),
          MakeRow(kDistrictRow, &rng_, {30000ULL},
                  {scale_.init_orders_per_district + 1})));
      for (uint32_t c = 1; c <= scale_.customers_per_district; ++c) {
        // c_balance @0 (u64, biased so it never underflows), c_payments @8.
        FLASHDB_RETURN_IF_ERROR(
            InsertRow(customer_, CKey(w, d, c),
                      MakeRow(kCustomerRow, &rng_, {1u << 20, 0ULL})));
      }
    }
  }
  // ITEM (full, read-only after load: replicated into every instance) /
  // STOCK (hosted warehouses only).
  for (uint32_t i = 1; i <= scale_.items; ++i) {
    // i_price @0.
    FLASHDB_RETURN_IF_ERROR(InsertRow(
        item_, i, MakeRow(kItemRow, &rng_, {rng_.Range(100, 10000)})));
  }
  for (uint32_t w : warehouse_ids_) {
    for (uint32_t i = 1; i <= scale_.items; ++i) {
      // s_quantity @0 (u32), s_ytd @4 (u32), s_order_cnt @8 (u32).
      FLASHDB_RETURN_IF_ERROR(
          InsertRow(stock_, SKey(w, i),
                    MakeRow(kStockRow, &rng_, {},
                            {static_cast<uint32_t>(rng_.Range(10, 100)), 0u,
                             0u})));
    }
  }
  // Initial ORDER / ORDER-LINE / NEW-ORDER rows.
  for (uint32_t w : warehouse_ids_) {
    for (uint32_t d = 1; d <= scale_.districts_per_warehouse; ++d) {
      for (uint32_t o = 1; o <= scale_.init_orders_per_district; ++o) {
        const uint32_t c =
            static_cast<uint32_t>(rng_.Range(1, scale_.customers_per_district));
        const uint32_t ol_cnt = static_cast<uint32_t>(rng_.Range(5, 15));
        const bool delivered = o <= scale_.init_orders_per_district * 2 / 3;
        // o_c_id @0, o_carrier_id @4, o_ol_cnt @8 (u32 each).
        FLASHDB_RETURN_IF_ERROR(InsertRow(
            order_, OKey(w, d, o),
            MakeRow(kOrderRow, &rng_, {},
                    {c, delivered ? 1u + static_cast<uint32_t>(rng_.Uniform(10))
                                  : 0u,
                     ol_cnt})));
        for (uint32_t ln = 1; ln <= ol_cnt; ++ln) {
          const uint32_t i = PickItem();
          // ol_i_id @0, ol_amount @4, ol_delivery_d @8.
          FLASHDB_RETURN_IF_ERROR(InsertRow(
              order_line_, OlKey(w, d, o, ln),
              MakeRow(kOrderLineRow, &rng_, {},
                      {i, static_cast<uint32_t>(rng_.Range(1, 9999)),
                       delivered ? 1u : 0u})));
        }
        if (!delivered) {
          FLASHDB_RETURN_IF_ERROR(InsertRow(new_order_, OKey(w, d, o),
                                            MakeRow(kNewOrderRow, &rng_, {},
                                                    {o})));
        }
      }
    }
  }
  return pool_->FlushAll();
}

uint32_t TpccWorkload::PickWarehouse() {
  return warehouse_ids_[static_cast<size_t>(
      rng_.Uniform(warehouse_ids_.size()))];
}

uint32_t TpccWorkload::PickCustomer() {
  // NURand(1023, 1, C) per spec 2.1.6 with C-run constant 123.
  const uint32_t c = scale_.customers_per_district;
  const uint32_t a = static_cast<uint32_t>(rng_.Uniform(1024));
  const uint32_t b = 1 + static_cast<uint32_t>(rng_.Uniform(c));
  return ((a | b) + 123) % c + 1;
}

uint32_t TpccWorkload::PickItem() {
  const uint32_t n = scale_.items;
  const uint32_t a = static_cast<uint32_t>(rng_.Uniform(8192));
  const uint32_t b = 1 + static_cast<uint32_t>(rng_.Uniform(n));
  return ((a | b) + 987) % n + 1;
}

Status TpccWorkload::NewOrderAt(uint32_t w) {
  const uint32_t d =
      1 + static_cast<uint32_t>(rng_.Uniform(scale_.districts_per_warehouse));
  const uint32_t c = PickCustomer();
  const uint32_t wd_idx = WdIndex(w, d);
  ByteBuffer row;
  // Warehouse tax (read).
  FLASHDB_RETURN_IF_ERROR(GetRow(warehouse_, WKey(w), &row));
  // District: read + advance d_next_o_id.
  FLASHDB_RETURN_IF_ERROR(
      UpdateRow(district_, DKey(w, d), &row, [&](ByteBuffer* r) {
        EncodeFixed32(r->data() + 8, DecodeFixed32(r->data() + 8) + 1);
      }));
  // Customer discount/credit (read).
  FLASHDB_RETURN_IF_ERROR(GetRow(customer_, CKey(w, d, c), &row));

  const uint32_t o = next_o_id_[wd_idx]++;
  const uint32_t ol_cnt = static_cast<uint32_t>(rng_.Range(5, 15));
  FLASHDB_RETURN_IF_ERROR(InsertRow(
      order_, OKey(w, d, o), MakeRow(kOrderRow, &rng_, {}, {c, 0u, ol_cnt})));
  FLASHDB_RETURN_IF_ERROR(InsertRow(new_order_, OKey(w, d, o),
                                    MakeRow(kNewOrderRow, &rng_, {}, {o})));
  for (uint32_t ln = 1; ln <= ol_cnt; ++ln) {
    const uint32_t i = PickItem();
    const uint32_t qty = 1 + static_cast<uint32_t>(rng_.Uniform(10));
    FLASHDB_RETURN_IF_ERROR(GetRow(item_, i, &row));
    const uint32_t price = DecodeFixed32(row.data());
    // Stock: decrement quantity, bump ytd / order count.
    FLASHDB_RETURN_IF_ERROR(
        UpdateRow(stock_, SKey(w, i), &row, [&](ByteBuffer* r) {
          uint32_t q = DecodeFixed32(r->data());
          q = q >= qty + 10 ? q - qty : q + 91 - qty;
          EncodeFixed32(r->data(), q);
          EncodeFixed32(r->data() + 4, DecodeFixed32(r->data() + 4) + qty);
          EncodeFixed32(r->data() + 8, DecodeFixed32(r->data() + 8) + 1);
        }));
    FLASHDB_RETURN_IF_ERROR(
        InsertRow(order_line_, OlKey(w, d, o, ln),
                  MakeRow(kOrderLineRow, &rng_, {}, {i, price * qty, 0u})));
  }
  return Status::OK();
}

Status TpccWorkload::PaymentAt(uint32_t w) {
  const uint32_t d =
      1 + static_cast<uint32_t>(rng_.Uniform(scale_.districts_per_warehouse));
  const uint32_t c = PickCustomer();
  const uint64_t amount = rng_.Range(100, 500000);
  ByteBuffer row;
  FLASHDB_RETURN_IF_ERROR(
      UpdateRow(warehouse_, WKey(w), &row, [&](ByteBuffer* r) {
        EncodeFixed64(r->data(), DecodeFixed64(r->data()) + amount);
      }));
  FLASHDB_RETURN_IF_ERROR(
      UpdateRow(district_, DKey(w, d), &row, [&](ByteBuffer* r) {
        EncodeFixed64(r->data(), DecodeFixed64(r->data()) + amount);
      }));
  FLASHDB_RETURN_IF_ERROR(
      UpdateRow(customer_, CKey(w, d, c), &row, [&](ByteBuffer* r) {
        EncodeFixed64(r->data(), DecodeFixed64(r->data()) + amount);
        EncodeFixed64(r->data() + 8, DecodeFixed64(r->data() + 8) + 1);
      }));
  FLASHDB_ASSIGN_OR_RETURN(
      Rid rid, history_.heap->Insert(
                   MakeRow(kHistoryRow, &rng_, {amount},
                           {w, d, c})));
  (void)rid;
  return Status::OK();
}

Status TpccWorkload::OrderStatusAt(uint32_t w) {
  const uint32_t d =
      1 + static_cast<uint32_t>(rng_.Uniform(scale_.districts_per_warehouse));
  const uint32_t c = PickCustomer();
  const uint32_t wd_idx = WdIndex(w, d);
  ByteBuffer row;
  FLASHDB_RETURN_IF_ERROR(GetRow(customer_, CKey(w, d, c), &row));
  const uint32_t next = next_o_id_[wd_idx];
  if (next <= 1) return Status::OK();
  const uint32_t lo = next > 20 ? next - 20 : 1;
  const uint32_t o = static_cast<uint32_t>(rng_.Range(lo, next - 1));
  FLASHDB_RETURN_IF_ERROR(GetRow(order_, OKey(w, d, o), &row));
  // Read the order's lines via an index range scan.
  FLASHDB_RETURN_IF_ERROR(order_line_.index->Scan(
      OlKey(w, d, o, 0), OlKey(w, d, o, 255),
      [&](uint64_t, uint64_t enc) {
        return order_line_.heap->Get(Rid::Decode(enc), &line_);
      }));
  return Status::OK();
}

Status TpccWorkload::DeliveryAt(uint32_t w) {
  ByteBuffer row;
  for (uint32_t d = 1; d <= scale_.districts_per_warehouse; ++d) {
    const uint32_t wd_idx = WdIndex(w, d);
    const uint32_t o = next_delivery_o_id_[wd_idx];
    if (o >= next_o_id_[wd_idx]) continue;  // nothing undelivered
    // Pop the NEW-ORDER row.
    Result<uint64_t> enc = new_order_.index->Get(OKey(w, d, o));
    if (enc.ok()) {
      FLASHDB_RETURN_IF_ERROR(new_order_.heap->Delete(Rid::Decode(*enc)));
      FLASHDB_RETURN_IF_ERROR(new_order_.index->Delete(OKey(w, d, o)));
    }
    next_delivery_o_id_[wd_idx] = o + 1;
    // Stamp the carrier on the order; learn its customer and line count.
    uint32_t c = 0;
    uint32_t ol_cnt = 0;
    FLASHDB_RETURN_IF_ERROR(
        UpdateRow(order_, OKey(w, d, o), &row, [&](ByteBuffer* r) {
          c = DecodeFixed32(r->data());
          ol_cnt = DecodeFixed32(r->data() + 8);
          EncodeFixed32(r->data() + 4,
                        1 + static_cast<uint32_t>(rng_.Uniform(10)));
        }));
    // Stamp delivery dates on the lines and sum the amounts.
    uint64_t total = 0;
    for (uint32_t ln = 1; ln <= ol_cnt; ++ln) {
      FLASHDB_RETURN_IF_ERROR(
          UpdateRow(order_line_, OlKey(w, d, o, ln), &row, [&](ByteBuffer* r) {
            total += DecodeFixed32(r->data() + 4);
            EncodeFixed32(r->data() + 8, 1);
          }));
    }
    // Credit the customer.
    FLASHDB_RETURN_IF_ERROR(
        UpdateRow(customer_, CKey(w, d, c), &row, [&](ByteBuffer* r) {
          EncodeFixed64(r->data(), DecodeFixed64(r->data()) + total);
        }));
  }
  return Status::OK();
}

Status TpccWorkload::StockLevelAt(uint32_t w) {
  const uint32_t d =
      1 + static_cast<uint32_t>(rng_.Uniform(scale_.districts_per_warehouse));
  const uint32_t wd_idx = WdIndex(w, d);
  const uint32_t threshold = static_cast<uint32_t>(rng_.Range(10, 20));
  ByteBuffer row;
  FLASHDB_RETURN_IF_ERROR(GetRow(district_, DKey(w, d), &row));
  const uint32_t next = next_o_id_[wd_idx];
  const uint32_t lo = next > 20 ? next - 20 : 1;
  items_.clear();
  for (uint32_t o = lo; o < next; ++o) {
    FLASHDB_RETURN_IF_ERROR(order_line_.index->Scan(
        OlKey(w, d, o, 0), OlKey(w, d, o, 255),
        [&](uint64_t, uint64_t enc) {
          FLASHDB_RETURN_IF_ERROR(order_line_.heap->Get(Rid::Decode(enc),
                                                        &line_));
          items_.push_back(DecodeFixed32(line_.data()));
          return Status::OK();
        }));
  }
  // Each distinct item once, in ascending order: the order of the stock
  // reads is part of the transaction's page traffic.
  std::sort(items_.begin(), items_.end());
  items_.erase(std::unique(items_.begin(), items_.end()), items_.end());
  uint32_t low_count = 0;
  for (uint32_t i : items_) {
    FLASHDB_RETURN_IF_ERROR(GetRow(stock_, SKey(w, i), &row));
    if (DecodeFixed32(row.data()) < threshold) ++low_count;
  }
  (void)low_count;
  return Status::OK();
}

Status TpccWorkload::RunTransactionOfType(TpccTxnType type, uint32_t w) {
  const Status st = [&] {
    switch (type) {
      case TpccTxnType::kNewOrder: return NewOrderAt(w);
      case TpccTxnType::kPayment: return PaymentAt(w);
      case TpccTxnType::kOrderStatus: return OrderStatusAt(w);
      case TpccTxnType::kDelivery: return DeliveryAt(w);
      case TpccTxnType::kStockLevel: return StockLevelAt(w);
    }
    return Status::InvalidArgument("unknown transaction type");
  }();
  if (st.ok()) stats_.committed[static_cast<size_t>(type)]++;
  return st;
}

Status TpccWorkload::RunTransaction() {
  // The mix pick first, then the target warehouse as the transaction's
  // first own draw.
  const TpccTxnType type = PickTxnType(&rng_);
  const uint32_t w = PickWarehouse();
  return RunTransactionOfType(type, w);
}

Status TpccWorkload::Run(uint64_t n) {
  for (uint64_t i = 0; i < n; ++i) FLASHDB_RETURN_IF_ERROR(RunTransaction());
  return Status::OK();
}

}  // namespace flashdb::workload
