/// Figure 5: "Per-client throughput of Shore-MT, DBMS X and PostgreSQL for
/// the New Order (left) and Payment (right) microbenchmarks".
///
/// Paper shape: all three engines dip around 16 clients on New Order
/// (STOCK/ITEM contention); Payment has no application-level contention,
/// letting Shore-MT scale to 32 clients while PostgreSQL trails ~2-4x
/// lower throughout.

#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "io/volume.h"
#include "log/log_storage.h"
#include "obs/metrics_registry.h"
#include "obs/profiling_thread.h"
#include "sm/session.h"
#include "sm/storage_manager.h"
#include "workload/driver.h"
#include "workload/engine_profiles.h"
#include "workload/tpcc.h"

using namespace shoremt;
using namespace shoremt::workload;

namespace {

/// Companion panel: real-engine TPC-C on this machine through the session
/// API — one session per terminal, Payment and New Order straight from
/// workload/tpcc.h, counters read from the live metrics registry. Run
/// twice per terminal count: blocking commits vs CommitAsync (early lock
/// release, durability acknowledged through WaitAll at drain). The
/// flushes/txn and txns/batch columns make the group-commit batching
/// visible: async commit must issue measurably fewer device flushes than
/// transactions committed.
void RunRealEnginePanel() {
  std::printf("--- real engine (this machine), sync vs async commit ---\n");
  std::vector<int> terminals = bench::FullMode()
                                   ? std::vector<int>{1, 2, 4, 8}
                                   : std::vector<int>{1, 2, 4};
  std::printf("%-6s %-9s  %11s  %11s  %8s  %10s  %11s  %11s  %10s\n", "mode",
              "terminals", "payment/s", "neworder/s", "aborts",
              "lock waits", "cache hits", "flushes/txn", "txns/batch");
  for (int t : terminals) {
    for (CommitMode mode : {CommitMode::kSync, CommitMode::kAsync}) {
      io::MemVolume volume;
      // A 100us-per-flush log device: the regime where amortizing flushes
      // across committers pays (an instant device hides the batching).
      log::LogStorage wal(/*append_latency_ns=*/100'000);
      // Full log-lifecycle loop: small segments, background page cleaner
      // and checkpoint daemon — the run holds its live log bounded while
      // old segments recycle underneath the terminals.
      sm::StorageOptions sm_opts =
          sm::StorageOptions::ForStage(sm::Stage::kFinal);
      sm_opts.log.segment_bytes = 64 << 10;
      sm_opts.buffer.enable_cleaner = true;
      sm_opts.buffer.cleaner_interval_us = 2000;
      sm_opts.checkpoint_daemon = true;
      sm_opts.checkpoint_interval_ms = 50;
      auto opened = sm::StorageManager::Open(sm_opts, &volume, &wal);
      if (!opened.ok()) return;
      auto& db = *opened;
      TpccConfig cfg;
      cfg.warehouses = static_cast<uint32_t>(t);  // TPC-C scaling rule.
      cfg.districts_per_warehouse = 4;
      cfg.customers_per_district = 60;
      cfg.items = 200;
      auto loader = db->OpenSession();
      auto loaded = LoadTpcc(loader.get(), cfg);
      if (!loaded.ok()) return;
      TpccDatabase tpcc = *loaded;
      loader.reset();  // Loading is done; only the terminals run below.

      std::vector<std::unique_ptr<sm::Session>> sessions;
      for (int i = 0; i < t; ++i) sessions.push_back(db->OpenSession());
      uint64_t window_ms = bench::FullMode() ? 800 : 250;
      // Async runs stream the live metrics feed (per-interval counter
      // deltas incl. log/cleaner/checkpoint lifecycle + tick latency
      // quantiles) instead of the old one-shot post-run stats dump.
      std::unique_ptr<obs::ProfilingThread> profiler;
      if (mode == CommitMode::kAsync) {
        obs::ProfilingOptions prof_opts;
        prof_opts.interval = std::chrono::microseconds(
            bench::FullMode() ? 1'000'000 : 200'000);
        prof_opts.prefix = "       live ";
        profiler = std::make_unique<obs::ProfilingThread>(db->metrics(),
                                                          prof_opts);
        profiler->Start();
      }
      // Counter baselines taken after load, before the drivers: numerator
      // and denominator below both cover the terminals' full activity
      // (warmup included), so flushes/txn windows match.
      obs::MetricsSnapshot base = db->metrics()->Snapshot();
      const log::LogStats& ls = db->log()->stats();
      uint64_t flushes_before = wal.flush_calls();
      uint64_t batches_before = ls.group_batches.load();
      uint64_t batch_txns_before = ls.group_batch_txns.load();
      auto drain = [&](int worker) {
        (void)sessions[worker]->WaitAll();
      };
      auto pay = RunDriver(t, 50, window_ms, [&](int worker, Rng&) {
        return RunPayment(sessions[worker].get(), &tpcc,
                          1 + worker % cfg.warehouses, mode);
      }, drain);
      auto norder = RunDriver(t, 50, window_ms, [&](int worker, Rng&) {
        return RunNewOrder(sessions[worker].get(), &tpcc,
                           1 + worker % cfg.warehouses, mode);
      }, drain);
      if (profiler) profiler->Stop();
      obs::MetricsSnapshot stats = db->metrics()->Snapshot();
      auto delta = [&](obs::Metric m) { return stats[m] - base[m]; };
      uint64_t commits = delta(obs::Metric::kTxnCommits);
      double flushes_per_txn =
          commits == 0
              ? 0.0
              : static_cast<double>(wal.flush_calls() - flushes_before) /
                    static_cast<double>(commits);
      uint64_t batches = ls.group_batches.load() - batches_before;
      double txns_per_batch =
          batches == 0
              ? 0.0
              : static_cast<double>(ls.group_batch_txns.load() -
                                    batch_txns_before) /
                    static_cast<double>(batches);
      std::printf(
          "%-6s %-9d  %11.0f  %11.0f  %8llu  %10llu  %11llu  %11.3f  %10.2f\n",
          mode == CommitMode::kSync ? "sync" : "async", t, pay.tps,
          norder.tps, (unsigned long long)(pay.aborts + norder.aborts),
          (unsigned long long)delta(obs::Metric::kLockWaits),
          (unsigned long long)delta(obs::Metric::kLockCacheHits),
          flushes_per_txn, txns_per_batch);
      bench::PrintIoSpineStats(volume.stats(), db->pool()->stats(),
                               "       ");
    }
  }
  std::printf("expected: async commit amortizes device flushes across the "
              "group (flushes/txn < 1\nand falling with terminals); early "
              "lock release shortens lock hold times; cache\nhits > 0 "
              "confirm intention locks are served from the transaction-"
              "private cache.\n\n");
}

void RunPanel(bool new_order, const Calibration& calib) {
  std::printf("--- %s ---\n", new_order ? "New Order" : "Payment");
  std::vector<int> threads = bench::ThreadSweep();
  std::vector<EngineKind> engines = {EngineKind::kPostgres, EngineKind::kDbmsX,
                                     EngineKind::kShoreMt};
  std::vector<std::string> names;
  std::vector<std::vector<double>> series;
  for (EngineKind e : engines) {
    names.emplace_back(EngineName(e));
    std::vector<double> curve;
    for (int t : threads) {
      // Warehouses scale with terminals, per the TPC-C scaling rule.
      WorkloadModel model = TpccModel(e, new_order, /*warehouses=*/t, calib);
      curve.push_back(bench::ModelTxnTpsPerThread(model, t));
    }
    series.push_back(std::move(curve));
  }
  bench::PrintSeriesTable("transactions/second/client", threads, names,
                          series);
  std::printf("\n");
}

}  // namespace

int main() {
  std::printf("=== Figure 5: TPC-C per-client throughput "
              "(simulated T2000) ===\n\n");
  RunRealEnginePanel();
  Calibration calib;
  RunPanel(/*new_order=*/true, calib);
  RunPanel(/*new_order=*/false, calib);
  std::printf("expected shape: New Order dips for every engine around 16 "
              "clients (shared STOCK/ITEM);\nPayment scales to 32 for "
              "shore-mt & dbms-x; postgres sits 2-4x lower throughout.\n");
  return 0;
}
