/// Order-entry example: the TPC-C-style workload the paper benchmarks.
///
/// Loads a small TPC-C database and runs a mixed Payment / New Order
/// workload from several terminals — one sm::Session per terminal thread —
/// then prints per-district order statistics via cursors — the "realistic
/// workload" counterpart to quickstart.cpp.

#include <atomic>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "io/volume.h"
#include "log/log_storage.h"
#include "obs/metrics_registry.h"
#include "sm/options.h"
#include "sm/session.h"
#include "sm/storage_manager.h"
#include "workload/tpcc.h"

using namespace shoremt;
using namespace shoremt::workload;

int main() {
  io::MemVolume volume;
  log::LogStorage wal;
  auto opened = sm::StorageManager::Open(
      sm::StorageOptions::ForStage(sm::Stage::kFinal), &volume, &wal);
  if (!opened.ok()) return 1;
  auto& db = *opened;

  TpccConfig cfg;
  cfg.warehouses = 2;
  cfg.districts_per_warehouse = 4;
  cfg.customers_per_district = 60;
  cfg.items = 200;
  auto loader = db->OpenSession();
  auto loaded = LoadTpcc(loader.get(), cfg);
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  TpccDatabase tpcc = *loaded;
  std::printf("loaded %u warehouses, %u districts, %u items\n",
              cfg.warehouses, cfg.warehouses * cfg.districts_per_warehouse,
              cfg.items);

  // 4 terminals, 88%-of-TPC-C mix: roughly half Payment, half New Order
  // (the paper benchmarks them separately; an app mixes them).
  constexpr int kTerminals = 4;
  constexpr int kTxnsPerTerminal = 100;
  obs::MetricsSnapshot before = db->metrics()->Snapshot();
  std::atomic<int> payments{0}, new_orders{0}, aborts{0};
  std::vector<std::thread> terminals;
  for (int t = 0; t < kTerminals; ++t) {
    terminals.emplace_back([&, t] {
      auto session = db->OpenSession();
      uint32_t home_w = 1 + t % cfg.warehouses;
      for (int i = 0; i < kTxnsPerTerminal; ++i) {
        if (session->rng().Bernoulli(0.5)) {
          if (RunPayment(session.get(), &tpcc, home_w)) {
            payments.fetch_add(1);
          } else {
            aborts.fetch_add(1);
          }
        } else {
          if (RunNewOrder(session.get(), &tpcc, home_w)) {
            new_orders.fetch_add(1);
          } else {
            aborts.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& t : terminals) t.join();
  std::printf("committed: %d payments, %d new orders (%d deadlock aborts)\n",
              payments.load(), new_orders.load(), aborts.load());
  obs::MetricsSnapshot after = db->metrics()->Snapshot();
  auto delta = [&](obs::Metric m) {
    return static_cast<unsigned long long>(after[m] - before[m]);
  };
  std::printf("terminals: %llu row ops, %llu lock waits, %llu log bytes\n",
              delta(obs::Metric::kInserts) + delta(obs::Metric::kReads) +
                  delta(obs::Metric::kUpdates) + delta(obs::Metric::kDeletes) +
                  delta(obs::Metric::kScanRows),
              delta(obs::Metric::kLockWaits), delta(obs::Metric::kLogBytes));

  // Report: orders per district and total warehouse revenue.
  auto report = db->OpenSession();
  if (!report->Begin().ok()) return 1;
  for (uint32_t w = 1; w <= cfg.warehouses; ++w) {
    auto wr = ReadTpccRow<WarehouseRow>(report.get(), tpcc.warehouse,
                                        WarehouseKey(w));
    if (!wr.ok()) return 1;
    std::printf("warehouse %u: payment ytd = %.2f\n", w, wr->ytd);
    for (uint32_t d = 1; d <= cfg.districts_per_warehouse; ++d) {
      auto dr = ReadTpccRow<DistrictRow>(report.get(), tpcc.district,
                                         DistrictKey(w, d));
      if (!dr.ok()) return 1;
      uint64_t lines = 0;
      auto cur = report->OpenCursor(tpcc.order_line);
      for (auto st = cur.Seek(OrderLineKey(w, d, 0, 0));
           cur.Valid() && cur.key() <= OrderLineKey(w, d, 9999999, 15);
           st = cur.Next()) {
        ++lines;
      }
      std::printf("  district %u: %u orders, %llu order lines\n", d,
                  dr->next_o_id - 1, static_cast<unsigned long long>(lines));
    }
  }
  (void)report->Commit();
  return 0;
}
