#ifndef SHOREMT_WORKLOAD_TPCC_H_
#define SHOREMT_WORKLOAD_TPCC_H_

#include <cstdint>
#include <cstring>
#include <string>

#include "common/random.h"
#include "common/status.h"
#include "sm/session.h"
#include "sm/storage_manager.h"
#include "workload/driver.h"

namespace shoremt::workload {

/// Scaled-down TPC-C (§3.2): the Payment and New Order transactions that
/// together make up 88% of the TPC-C mix. Row formats are fixed-size
/// structs; composite primary keys are packed into 64-bit index keys.
/// Scale factors are reduced from spec size so tests and benches run in
/// seconds; the contention *structure* (hot WAREHOUSE rows, shared STOCK/
/// ITEM) is what matters for the paper's figures.
struct TpccConfig {
  uint32_t warehouses = 4;
  uint32_t districts_per_warehouse = 10;
  uint32_t customers_per_district = 120;
  uint32_t items = 1000;
  /// Fraction of item accesses drawn from a hot zipfian subset.
  double stock_zipf_theta = 0.6;
};

/// Key packing: one 64-bit key per composite TPC-C primary key.
inline uint64_t WarehouseKey(uint32_t w) { return w; }
inline uint64_t DistrictKey(uint32_t w, uint32_t d) {
  return static_cast<uint64_t>(w) * 100 + d;
}
inline uint64_t CustomerKey(uint32_t w, uint32_t d, uint32_t c) {
  return (static_cast<uint64_t>(w) * 100 + d) * 100000 + c;
}
inline uint64_t ItemKey(uint32_t i) { return i; }
inline uint64_t StockKey(uint32_t w, uint32_t i) {
  return static_cast<uint64_t>(w) * 1000000 + i;
}
inline uint64_t OrderKey(uint32_t w, uint32_t d, uint32_t o) {
  return (static_cast<uint64_t>(w) * 100 + d) * 10000000 + o;
}
inline uint64_t OrderLineKey(uint32_t w, uint32_t d, uint32_t o, uint32_t l) {
  return OrderKey(w, d, o) * 16 + l;
}
inline uint64_t HistoryKey(uint32_t w, uint64_t seq) {
  return static_cast<uint64_t>(w) * (1ULL << 40) + seq;
}

/// Row payloads (fixed-size PODs, memcpy-serialized).
struct WarehouseRow {
  double ytd;
  double tax;
  char name[16];
};
struct DistrictRow {
  double ytd;
  double tax;
  uint32_t next_o_id;
  char name[16];
};
struct CustomerRow {
  double balance;
  double ytd_payment;
  uint32_t payment_cnt;
  char last[16];
  char data[64];
};
struct ItemRow {
  double price;
  char name[24];
};
struct StockRow {
  uint32_t quantity;
  uint32_t ytd;
  uint32_t order_cnt;
  uint32_t remote_cnt;
};
struct OrderRow {
  uint32_t c_id;
  uint32_t ol_cnt;
  uint64_t entry_ts;
};
struct OrderLineRow {
  uint32_t i_id;
  uint32_t supply_w;
  uint32_t quantity;
  double amount;
};
struct HistoryRow {
  uint64_t c_key;
  double amount;
};

/// Reads the fixed-size row struct `T` for `key` through `session`,
/// validating the stored size — the one row-decode helper shared by the
/// transactions, tests and examples.
template <typename T>
Result<T> ReadTpccRow(sm::Session* session, const sm::TableInfo& table,
                      uint64_t key) {
  SHOREMT_ASSIGN_OR_RETURN(std::span<const uint8_t> bytes,
                           session->Read(table, key));
  if (bytes.size() != sizeof(T)) {
    return Status::Corruption("row size mismatch");
  }
  T row;
  std::memcpy(&row, bytes.data(), sizeof(T));
  return row;
}

/// TPC-C NURand id draws (spec §2.1.6), over exactly the ids LoadTpcc
/// populates: customers [1, customers_per_district], items [1, items].
inline uint32_t DrawCustomerId(Rng& rng, const TpccConfig& cfg) {
  return static_cast<uint32_t>(
      rng.NonUniform(1023, 1, cfg.customers_per_district));
}
inline uint32_t DrawItemId(Rng& rng, const TpccConfig& cfg) {
  return static_cast<uint32_t>(rng.NonUniform(8191, 1, cfg.items));
}

/// The loaded database: table handles + config.
struct TpccDatabase {
  TpccConfig config;
  sm::TableInfo warehouse;
  sm::TableInfo district;
  sm::TableInfo customer;
  sm::TableInfo item;
  sm::TableInfo stock;
  sm::TableInfo orders;
  sm::TableInfo order_line;
  sm::TableInfo new_order;
  sm::TableInfo history;
};

/// Creates and populates all nine tables through `session` (which must
/// have no open transaction; the loader batches its own commits).
Result<TpccDatabase> LoadTpcc(sm::Session* session, const TpccConfig& cfg);

/// How a TPC-C transaction ends: kSync commits and blocks until durable
/// (through the group-commit pipeline); kAsync commits via CommitAsync —
/// locks drop immediately and durability is acknowledged later by
/// Session::WaitAll (the driver's drain hook).
enum class CommitMode : uint8_t { kSync, kAsync };

/// One Payment transaction (§3.2): updates warehouse + district YTD and
/// the customer's balance, inserts a history row. `home_w` selects the
/// terminal's warehouse; randomness comes from the session's private RNG.
/// Returns false on abort (deadlock victim).
bool RunPayment(sm::Session* session, TpccDatabase* db, uint32_t home_w,
                CommitMode mode = CommitMode::kSync);

/// One New Order transaction (§3.2): reads warehouse/district/customer,
/// assigns the next order id, inserts ORDER + NEW-ORDER rows, and for
/// 5–15 items reads ITEM and updates STOCK, inserting an ORDER-LINE each.
bool RunNewOrder(sm::Session* session, TpccDatabase* db, uint32_t home_w,
                 CommitMode mode = CommitMode::kSync);

}  // namespace shoremt::workload

#endif  // SHOREMT_WORKLOAD_TPCC_H_
