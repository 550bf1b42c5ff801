#include "workload/tpcc.h"

#include <atomic>
#include <cstring>
#include <span>

namespace shoremt::workload {

namespace {

template <typename T>
std::span<const uint8_t> AsBytes(const T& row) {
  return {reinterpret_cast<const uint8_t*>(&row), sizeof(T)};
}

std::atomic<uint64_t> g_history_seq{1};

/// Transaction epilogue: blocking commit or async submission (early lock
/// release; the terminal acknowledges durability later via WaitAll).
bool Finish(sm::Session* session, CommitMode mode) {
  if (mode == CommitMode::kAsync) return session->CommitAsync().ok();
  return session->Commit().ok();
}

}  // namespace

Result<TpccDatabase> LoadTpcc(sm::Session* session, const TpccConfig& cfg) {
  TpccDatabase db;
  db.config = cfg;

  SHOREMT_RETURN_NOT_OK(session->Begin());
  SHOREMT_ASSIGN_OR_RETURN(db.warehouse, session->CreateTable("WAREHOUSE"));
  SHOREMT_ASSIGN_OR_RETURN(db.district, session->CreateTable("DISTRICT"));
  SHOREMT_ASSIGN_OR_RETURN(db.customer, session->CreateTable("CUSTOMER"));
  SHOREMT_ASSIGN_OR_RETURN(db.item, session->CreateTable("ITEM"));
  SHOREMT_ASSIGN_OR_RETURN(db.stock, session->CreateTable("STOCK"));
  SHOREMT_ASSIGN_OR_RETURN(db.orders, session->CreateTable("ORDERS"));
  SHOREMT_ASSIGN_OR_RETURN(db.order_line, session->CreateTable("ORDER_LINE"));
  SHOREMT_ASSIGN_OR_RETURN(db.new_order, session->CreateTable("NEW_ORDER"));
  SHOREMT_ASSIGN_OR_RETURN(db.history, session->CreateTable("HISTORY"));
  SHOREMT_RETURN_NOT_OK(session->Commit());

  // Items are warehouse-independent.
  SHOREMT_RETURN_NOT_OK(session->Begin());
  for (uint32_t i = 1; i <= cfg.items; ++i) {
    ItemRow row{1.0 + (i % 100) / 10.0, {}};
    std::snprintf(row.name, sizeof(row.name), "item-%u", i);
    SHOREMT_RETURN_NOT_OK(
        session->Insert(db.item, ItemKey(i), AsBytes(row)).status());
    if (i % 500 == 0) {
      SHOREMT_RETURN_NOT_OK(session->Commit());
      SHOREMT_RETURN_NOT_OK(session->Begin());
    }
  }
  SHOREMT_RETURN_NOT_OK(session->Commit());

  for (uint32_t w = 1; w <= cfg.warehouses; ++w) {
    SHOREMT_RETURN_NOT_OK(session->Begin());
    WarehouseRow wr{0.0, 0.07, {}};
    std::snprintf(wr.name, sizeof(wr.name), "wh-%u", w);
    SHOREMT_RETURN_NOT_OK(
        session->Insert(db.warehouse, WarehouseKey(w), AsBytes(wr)).status());
    for (uint32_t d = 1; d <= cfg.districts_per_warehouse; ++d) {
      DistrictRow dr{0.0, 0.05, 1, {}};
      std::snprintf(dr.name, sizeof(dr.name), "d-%u-%u", w, d);
      SHOREMT_RETURN_NOT_OK(
          session->Insert(db.district, DistrictKey(w, d), AsBytes(dr))
              .status());
      for (uint32_t c = 1; c <= cfg.customers_per_district; ++c) {
        CustomerRow cr{-10.0, 10.0, 1, {}, {}};
        std::snprintf(cr.last, sizeof(cr.last), "cust%u", c);
        SHOREMT_RETURN_NOT_OK(
            session->Insert(db.customer, CustomerKey(w, d, c), AsBytes(cr))
                .status());
      }
    }
    SHOREMT_RETURN_NOT_OK(session->Commit());
    SHOREMT_RETURN_NOT_OK(session->Begin());
    for (uint32_t i = 1; i <= cfg.items; ++i) {
      StockRow sr{50 + i % 50, 0, 0, 0};
      SHOREMT_RETURN_NOT_OK(
          session->Insert(db.stock, StockKey(w, i), AsBytes(sr)).status());
      if (i % 500 == 0) {
        SHOREMT_RETURN_NOT_OK(session->Commit());
        SHOREMT_RETURN_NOT_OK(session->Begin());
      }
    }
    SHOREMT_RETURN_NOT_OK(session->Commit());
  }
  return db;
}

bool RunPayment(sm::Session* session, TpccDatabase* db, uint32_t home_w,
                CommitMode mode) {
  const TpccConfig& cfg = db->config;
  Rng& rng = session->rng();
  uint32_t d = 1 + static_cast<uint32_t>(rng.Uniform(
                      cfg.districts_per_warehouse));
  uint32_t c = DrawCustomerId(rng, cfg);
  double amount = 1.0 + rng.NextDouble() * 4999.0;

  if (!session->Begin().ok()) return false;
  auto fail = [&] {
    (void)session->Abort();
    return false;
  };

  // Warehouse: read + bump YTD (the contended row, §3.2).
  auto wr = ReadTpccRow<WarehouseRow>(session, db->warehouse, WarehouseKey(home_w));
  if (!wr.ok()) return fail();
  wr->ytd += amount;
  if (!session->Update(db->warehouse, WarehouseKey(home_w), AsBytes(*wr))
           .ok()) {
    return fail();
  }
  // District.
  auto dr = ReadTpccRow<DistrictRow>(session, db->district,
                                 DistrictKey(home_w, d));
  if (!dr.ok()) return fail();
  dr->ytd += amount;
  if (!session->Update(db->district, DistrictKey(home_w, d), AsBytes(*dr))
           .ok()) {
    return fail();
  }
  // Customer balance.
  uint64_t ckey = CustomerKey(home_w, d, c);
  auto cr = ReadTpccRow<CustomerRow>(session, db->customer, ckey);
  if (!cr.ok()) return fail();
  cr->balance -= amount;
  cr->ytd_payment += amount;
  cr->payment_cnt += 1;
  if (!session->Update(db->customer, ckey, AsBytes(*cr)).ok()) return fail();
  // History insert.
  HistoryRow hr{ckey, amount};
  uint64_t seq = g_history_seq.fetch_add(1, std::memory_order_relaxed);
  if (!session->Insert(db->history, HistoryKey(home_w, seq), AsBytes(hr))
           .ok()) {
    return fail();
  }
  return Finish(session, mode);
}

bool RunNewOrder(sm::Session* session, TpccDatabase* db, uint32_t home_w,
                 CommitMode mode) {
  const TpccConfig& cfg = db->config;
  Rng& rng = session->rng();
  uint32_t d = 1 + static_cast<uint32_t>(rng.Uniform(
                      cfg.districts_per_warehouse));
  uint32_t c = DrawCustomerId(rng, cfg);
  uint32_t ol_cnt = 5 + static_cast<uint32_t>(rng.Uniform(11));  // 5..15.

  if (!session->Begin().ok()) return false;
  auto fail = [&] {
    (void)session->Abort();
    return false;
  };

  auto wr = ReadTpccRow<WarehouseRow>(session, db->warehouse, WarehouseKey(home_w));
  if (!wr.ok()) return fail();

  // District: assign the order id (per-district serialization point).
  auto dr = ReadTpccRow<DistrictRow>(session, db->district,
                                 DistrictKey(home_w, d));
  if (!dr.ok()) return fail();
  uint32_t o_id = dr->next_o_id;
  dr->next_o_id += 1;
  if (!session->Update(db->district, DistrictKey(home_w, d), AsBytes(*dr))
           .ok()) {
    return fail();
  }

  auto cr = ReadTpccRow<CustomerRow>(session, db->customer,
                                 CustomerKey(home_w, d, c));
  if (!cr.ok()) return fail();

  // ORDER + NEW_ORDER rows.
  OrderRow orow{c, ol_cnt, 20260610};
  if (!session->Insert(db->orders, OrderKey(home_w, d, o_id), AsBytes(orow))
           .ok()) {
    return fail();
  }
  uint8_t no_marker = 1;
  if (!session->Insert(db->new_order, OrderKey(home_w, d, o_id),
                       {&no_marker, 1})
           .ok()) {
    return fail();
  }

  // Order lines: ITEM reads + STOCK updates (the shared hotspot that
  // causes the paper's dip around 16 clients, Figure 5 left).
  for (uint32_t l = 1; l <= ol_cnt; ++l) {
    uint32_t i_id = DrawItemId(rng, cfg);
    auto ir = ReadTpccRow<ItemRow>(session, db->item, ItemKey(i_id));
    if (!ir.ok()) return fail();
    uint64_t skey = StockKey(home_w, i_id);
    auto sr = ReadTpccRow<StockRow>(session, db->stock, skey);
    if (!sr.ok()) return fail();
    uint32_t qty = 1 + static_cast<uint32_t>(rng.Uniform(10));
    sr->quantity = sr->quantity > qty + 10 ? sr->quantity - qty
                                           : sr->quantity + 91 - qty;
    sr->ytd += qty;
    sr->order_cnt += 1;
    if (!session->Update(db->stock, skey, AsBytes(*sr)).ok()) return fail();
    OrderLineRow ol{i_id, home_w, qty, ir->price * qty};
    if (!session->Insert(db->order_line,
                         OrderLineKey(home_w, d, o_id, l), AsBytes(ol))
             .ok()) {
      return fail();
    }
  }
  return Finish(session, mode);
}

}  // namespace shoremt::workload
