#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "io/volume.h"
#include "log/log_storage.h"
#include "simcore/simulation.h"
#include "sm/session.h"
#include "sm/storage_manager.h"
#include "workload/driver.h"
#include "workload/engine_profiles.h"
#include "workload/insert_workload.h"
#include "workload/tpcc.h"

namespace shoremt::workload {
namespace {

struct Harness {
  io::MemVolume volume;
  log::LogStorage log;
  std::unique_ptr<sm::StorageManager> sm;
  std::unique_ptr<sm::Session> session;

  explicit Harness(sm::Stage stage = sm::Stage::kFinal) {
    auto opened = sm::StorageManager::Open(
        sm::StorageOptions::ForStage(stage), &volume, &log);
    EXPECT_TRUE(opened.ok());
    sm = std::move(*opened);
    session = sm->OpenSession();
  }

  /// Counts rows in [0, UINT64_MAX] via a cursor on `session`.
  uint64_t CountRows(const sm::TableInfo& table) {
    uint64_t rows = 0;
    auto cur = session->OpenCursor(table);
    for (auto st = cur.Seek(0); cur.Valid(); st = cur.Next()) {
      EXPECT_TRUE(st.ok());
      ++rows;
    }
    return rows;
  }
};

TEST(DriverTest, CountsTransactionsAndLatency) {
  auto r = RunDriver(2, 10, 60, [](int, Rng& rng) {
    volatile uint64_t x = 0;
    for (int i = 0; i < 100; ++i) x += rng.Next();
    return true;
  });
  EXPECT_GT(r.txns, 0u);
  EXPECT_GT(r.tps, 0.0);
  EXPECT_EQ(r.latency.count(), r.txns);
  EXPECT_NEAR(r.tps_per_thread * 2, r.tps, r.tps * 0.01);
}

TEST(DriverTest, AbortsCountedSeparately) {
  auto r = RunDriver(1, 5, 40, [](int, Rng& rng) {
    return rng.Bernoulli(0.5);
  });
  EXPECT_GT(r.aborts, 0u);
  EXPECT_GT(r.txns, 0u);
}

TEST(InsertBenchTest, InsertsLandInPrivateTables) {
  Harness h;
  InsertBenchConfig cfg;
  cfg.clients = 2;
  cfg.records_per_commit = 50;
  cfg.warmup_ms = 20;
  cfg.duration_ms = 120;
  auto state = SetupInsertBench(h.sm.get(), cfg);
  ASSERT_TRUE(state.ok());
  auto r = RunInsertBench(cfg, &*state);
  EXPECT_GT(r.txns, 0u) << "at least one 50-record commit per run";
  // All inserted keys are readable through a cursor.
  ASSERT_TRUE(h.session->Begin().ok());
  for (int c = 0; c < cfg.clients; ++c) {
    EXPECT_GE(h.CountRows(state->tables[c]),
              static_cast<uint64_t>(r.txns) /
                  static_cast<uint64_t>(cfg.clients) *
                  cfg.records_per_commit / 2);
  }
  ASSERT_TRUE(h.session->Commit().ok());
}

TEST(InsertBenchTest, SessionStatsAccountForBatchedInserts) {
  Harness h;
  InsertBenchConfig cfg;
  cfg.clients = 2;
  cfg.records_per_commit = 25;
  cfg.warmup_ms = 10;
  cfg.duration_ms = 80;
  auto state = SetupInsertBench(h.sm.get(), cfg);
  ASSERT_TRUE(state.ok());
  auto r = RunInsertBench(cfg, &*state);
  ASSERT_GT(r.txns, 0u);
  // Harvest all bench sessions; the aggregate must cover every committed
  // batch (warmup batches also count — hence GE) and carry log bytes.
  for (auto& s : state->sessions) s->Harvest();
  sm::SessionStats agg = h.sm->harvested_session_stats();
  EXPECT_GE(agg.batches, r.txns);
  EXPECT_GE(agg.inserts, r.txns * cfg.records_per_commit);
  EXPECT_GT(agg.log_bytes, 0u);
}

class TpccTest : public ::testing::Test {
 protected:
  TpccTest() : h_() {
    TpccConfig cfg;
    cfg.warehouses = 2;
    cfg.districts_per_warehouse = 2;
    cfg.customers_per_district = 30;
    cfg.items = 100;
    auto db = LoadTpcc(h_.session.get(), cfg);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    db_ = *db;
  }

  template <typename T>
  T ReadAs(const sm::TableInfo& table, uint64_t key) {
    auto row = ReadTpccRow<T>(h_.session.get(), table, key);
    EXPECT_TRUE(row.ok()) << row.status().ToString();
    return row.ValueOr(T{});
  }

  Harness h_;
  TpccDatabase db_;
};

TEST_F(TpccTest, LoadPopulatesAllTables) {
  auto* session = h_.session.get();
  ASSERT_TRUE(session->Begin().ok());
  WarehouseRow wr = ReadAs<WarehouseRow>(db_.warehouse, WarehouseKey(1));
  EXPECT_DOUBLE_EQ(wr.ytd, 0.0);
  EXPECT_TRUE(session->Read(db_.district, DistrictKey(2, 2)).ok());
  EXPECT_TRUE(session->Read(db_.customer, CustomerKey(2, 2, 30)).ok());
  EXPECT_TRUE(session->Read(db_.item, ItemKey(100)).ok());
  EXPECT_TRUE(session->Read(db_.stock, StockKey(2, 100)).ok());
  EXPECT_TRUE(session->Read(db_.customer, CustomerKey(3, 1, 1))
                  .status()
                  .IsNotFound());
  ASSERT_TRUE(session->Commit().ok());
}

TEST_F(TpccTest, PaymentMovesMoney) {
  int committed = 0;
  for (int i = 0; i < 20; ++i) {
    committed += RunPayment(h_.session.get(), &db_, 1) ? 1 : 0;
  }
  EXPECT_GT(committed, 0);
  ASSERT_TRUE(h_.session->Begin().ok());
  WarehouseRow wr = ReadAs<WarehouseRow>(db_.warehouse, WarehouseKey(1));
  EXPECT_GT(wr.ytd, 0.0) << "warehouse YTD must reflect payments";
  // History rows were inserted (count via cursor).
  EXPECT_EQ(h_.CountRows(db_.history), static_cast<uint64_t>(committed));
  ASSERT_TRUE(h_.session->Commit().ok());
}

TEST_F(TpccTest, IntentLocksServedFromPrivateCache) {
  // TPC-C transactions touch several rows per table: every row after the
  // first re-requests the same volume/store intention locks, which the
  // transaction-private lock cache must absorb without touching the
  // shared table (the ISSUE-3 acceptance check).
  int committed = 0;
  for (int i = 0; i < 10; ++i) {
    committed += RunPayment(h_.session.get(), &db_, 1) ? 1 : 0;
    committed += RunNewOrder(h_.session.get(), &db_, 1) ? 1 : 0;
  }
  ASSERT_GT(committed, 0);
  h_.session->Harvest();
  sm::SessionStats agg = h_.sm->harvested_session_stats();
  EXPECT_GT(agg.lock_cache_hits, 0u)
      << "intention re-grants must be served from the private cache";
}

TEST_F(TpccTest, NewOrderCreatesOrderAndLines) {
  int committed = 0;
  for (int i = 0; i < 10; ++i) {
    committed += RunNewOrder(h_.session.get(), &db_, 1) ? 1 : 0;
  }
  ASSERT_GT(committed, 0);
  ASSERT_TRUE(h_.session->Begin().ok());
  uint64_t orders = h_.CountRows(db_.orders);
  uint64_t lines = h_.CountRows(db_.order_line);
  EXPECT_EQ(orders, static_cast<uint64_t>(committed));
  EXPECT_GE(lines, orders * 5);
  EXPECT_LE(lines, orders * 15);
  ASSERT_TRUE(h_.session->Commit().ok());
}

TEST_F(TpccTest, ConcurrentPaymentsStayConsistent) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 15;
  std::vector<std::thread> workers;
  std::atomic<int> committed{0};
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      // One session per worker thread — the API's intended shape.
      auto session = h_.sm->OpenSession();
      for (int i = 0; i < kPerThread; ++i) {
        if (RunPayment(session.get(), &db_, 1 + t % 2)) {
          committed.fetch_add(1);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_GT(committed.load(), 0);
  // Money conservation: sum of warehouse YTD equals committed payments'
  // total, which equals the history table's amounts.
  auto* session = h_.session.get();
  ASSERT_TRUE(session->Begin().ok());
  double wh_ytd = 0;
  for (uint32_t w = 1; w <= db_.config.warehouses; ++w) {
    wh_ytd += ReadAs<WarehouseRow>(db_.warehouse, WarehouseKey(w)).ytd;
  }
  double hist_total = 0;
  uint64_t hist_rows = 0;
  auto cur = session->OpenCursor(db_.history);
  for (auto st = cur.Seek(0); cur.Valid(); st = cur.Next()) {
    ASSERT_TRUE(st.ok());
    HistoryRow hr;
    ASSERT_EQ(cur.value().size(), sizeof(hr));
    std::memcpy(&hr, cur.value().data(), sizeof(hr));
    hist_total += hr.amount;
    ++hist_rows;
  }
  EXPECT_EQ(hist_rows, static_cast<uint64_t>(committed.load()));
  EXPECT_NEAR(wh_ytd, hist_total, 1e-6)
      << "aborted payments must not leak partial updates";
  ASSERT_TRUE(session->Commit().ok());
}

TEST_F(TpccTest, NewOrderIdsAreDense) {
  for (int i = 0; i < 8; ++i) (void)RunNewOrder(h_.session.get(), &db_, 1);
  // For each district, next_o_id - 1 == number of orders with that
  // district prefix.
  auto* session = h_.session.get();
  ASSERT_TRUE(session->Begin().ok());
  for (uint32_t d = 1; d <= db_.config.districts_per_warehouse; ++d) {
    DistrictRow dr = ReadAs<DistrictRow>(db_.district, DistrictKey(1, d));
    uint64_t orders = 0;
    auto cur = session->OpenCursor(db_.orders);
    for (auto st = cur.Seek(OrderKey(1, d, 0));
         cur.Valid() && cur.key() <= OrderKey(1, d, 9999999);
         st = cur.Next()) {
      ASSERT_TRUE(st.ok());
      ++orders;
    }
    EXPECT_EQ(orders, dr.next_o_id - 1) << "district " << d;
  }
  ASSERT_TRUE(session->Commit().ok());
}

TEST_F(TpccTest, DrawnIdsStayInTheLoadedRange) {
  const TpccConfig& cfg = db_.config;
  Rng rng(4);
  uint32_t max_c = 0, max_i = 0;
  for (int n = 0; n < 100000; ++n) {
    uint32_t c = DrawCustomerId(rng, cfg);
    uint32_t i = DrawItemId(rng, cfg);
    ASSERT_GE(c, 1u);
    ASSERT_LE(c, cfg.customers_per_district);
    ASSERT_GE(i, 1u);
    ASSERT_LE(i, cfg.items);
    max_c = std::max(max_c, c);
    max_i = std::max(max_i, i);
  }
  // The whole loaded range is reachable, up to the last id.
  EXPECT_EQ(max_c, cfg.customers_per_district);
  EXPECT_EQ(max_i, cfg.items);
}

TEST_F(TpccTest, SeededDriverRunNeverAbortsOnMissingRows) {
  // One terminal takes no conflicting locks, so any abort here is a
  // NotFound for a customer or item id outside the loaded range.
  auto r = RunDriver(1, 0, 300, [&](int, Rng& rng) {
    return rng.Bernoulli(0.5) ? RunPayment(h_.session.get(), &db_, 1)
                              : RunNewOrder(h_.session.get(), &db_, 2);
  });
  EXPECT_GT(r.txns, 50u);
  EXPECT_EQ(r.aborts, 0u);
}

// ------------------------------------------------------ engine profiles ---

simcore::SimResult RunProfile(const WorkloadModel& model, int threads,
                              uint64_t window_ns = 80'000'000) {
  simcore::Simulation sim(simcore::MachineConfig{});
  BuildModel(&sim, threads, model);
  return sim.Run(window_ns, window_ns / 5);
}

TEST(EngineProfileTest, AllEnginesProduceThroughput) {
  Calibration c;
  c.records_per_txn = 20;  // Keep test sims small.
  for (auto e : {EngineKind::kShore, EngineKind::kBdb, EngineKind::kMysql,
                 EngineKind::kPostgres, EngineKind::kDbmsX,
                 EngineKind::kShoreMt}) {
    auto model = InsertMicroModel(e, sm::Stage::kFinal, c);
    auto r = RunProfile(model, 4);
    EXPECT_GT(r.tps, 0.0) << EngineName(e);
  }
}

TEST(EngineProfileTest, ShoreIsFlatShoreMtScales) {
  Calibration c;
  c.records_per_txn = 20;
  auto run = [&](EngineKind e, int threads) {
    return RunProfile(InsertMicroModel(e, sm::Stage::kFinal, c), threads).tps;
  };
  double shore_1 = run(EngineKind::kShore, 1);
  double shore_16 = run(EngineKind::kShore, 16);
  EXPECT_LT(shore_16, shore_1 * 1.6) << "original Shore must not scale";
  double smt_1 = run(EngineKind::kShoreMt, 1);
  double smt_16 = run(EngineKind::kShoreMt, 16);
  EXPECT_GT(smt_16, smt_1 * 5.0) << "Shore-MT must scale with threads";
}

TEST(EngineProfileTest, BdbCollapsesUnderContention) {
  Calibration c;
  c.records_per_txn = 20;
  auto run = [&](int threads) {
    return RunProfile(InsertMicroModel(EngineKind::kBdb, sm::Stage::kFinal, c),
                      threads)
        .tps;
  };
  double t4 = run(4);
  double t32 = run(32);
  EXPECT_LT(t32, t4) << "BDB's TATAS storm must reduce throughput at scale";
}

TEST(EngineProfileTest, StagesImproveMonotonically) {
  Calibration c;
  c.records_per_txn = 20;
  double prev = 0.0;
  for (sm::Stage stage : sm::kAllStages) {
    auto model = InsertMicroModel(EngineKind::kShoreMt, stage, c);
    double tps = RunProfile(model, 32).tps;
    EXPECT_GT(tps, prev * 0.95) << "stage " << sm::StageName(stage)
                                << " must not regress at 32 threads";
    if (tps > prev) prev = tps;
  }
  // Final beats baseline by a large factor.
  double base =
      RunProfile(InsertMicroModel(EngineKind::kShoreMt, sm::Stage::kBaseline,
                                  c),
                 32)
          .tps;
  double final_tps =
      RunProfile(InsertMicroModel(EngineKind::kShoreMt, sm::Stage::kFinal, c),
                 32)
          .tps;
  EXPECT_GT(final_tps, base * 8.0);
}

TEST(EngineProfileTest, TpccNewOrderDipsPaymentScales) {
  Calibration c;
  auto run = [&](bool new_order, int threads) {
    auto model = TpccModel(EngineKind::kShoreMt, new_order,
                           /*warehouses=*/threads, c);
    return RunProfile(model, threads, 200'000'000).tps;
  };
  // Payment: per-client throughput declines only via SMT sharing (the
  // paper's log-scale Figure 5 right shows the same gentle slope).
  double pay_8 = run(false, 8) / 8;
  double pay_32 = run(false, 32) / 32;
  EXPECT_GT(pay_32, pay_8 * 0.33);
  // New Order: shared STOCK contention bites between 16 and 32.
  double no_8 = run(true, 8) / 8;
  double no_32 = run(true, 32) / 32;
  EXPECT_LT(no_32 / no_8, pay_32 / pay_8 * 1.1)
      << "New Order must lose more per-client throughput than Payment";
}

}  // namespace
}  // namespace shoremt::workload
