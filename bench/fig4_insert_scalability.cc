/// Figure 4: "Scalability and performance comparison of Shore-MT vs
/// several open-source engines and one commercial engine".
///
/// Insert microbenchmark, throughput-per-thread (the paper plots log-y:
/// equal scalability = equal slope). Paper shape: Shore-MT highest and
/// near-flat; DBMS "X" close behind; BDB fastest at 1–4 threads then
/// collapsing; MySQL declining past ~8; PostgreSQL plateauing; Shore flat
/// and lowest.

#include <cstdio>

#include "bench/bench_util.h"
#include "io/volume.h"
#include "log/log_storage.h"
#include "obs/metrics_registry.h"
#include "sm/session.h"
#include "sm/storage_manager.h"
#include "workload/engine_profiles.h"
#include "workload/insert_workload.h"

using namespace shoremt;
using namespace shoremt::workload;

namespace {

/// Companion panel: the same microbenchmark against the real engine on
/// this machine, driven entirely through sm::Session (one per client,
/// batched Apply per commit). Per-worker registry counters replace global
/// counters — the per-op path touches no shared line. Each client count runs
/// twice: blocking Apply (sync commit) vs ApplyAsync (group-commit
/// pipeline, WaitAll at drain); flushes/commit shows the batching.
void RunRealEnginePanel() {
  std::printf("--- real engine (this machine), sync vs async commit ---\n");
  std::vector<int> clients = bench::FullMode() ? std::vector<int>{1, 2, 4, 8}
                                               : std::vector<int>{1, 2, 4};
  std::printf("%-6s %-8s  %14s  %12s  %10s  %13s\n", "mode", "clients",
              "inserts/s", "tps/client", "wal MB", "flushes/commit");
  for (int c : clients) {
    for (bool async_commit : {false, true}) {
      io::MemVolume volume;
      // Modest per-flush device latency so flush amortization is visible.
      log::LogStorage wal(/*append_latency_ns=*/100'000);
      auto opened = sm::StorageManager::Open(
          sm::StorageOptions::ForStage(sm::Stage::kFinal), &volume, &wal);
      if (!opened.ok()) return;
      auto& db = *opened;
      InsertBenchConfig cfg;
      cfg.clients = c;
      cfg.records_per_commit = 100;
      cfg.warmup_ms = bench::FullMode() ? 200 : 50;
      cfg.duration_ms = bench::FullMode() ? 1000 : 300;
      cfg.async_commit = async_commit;
      auto state = SetupInsertBench(db.get(), cfg);
      if (!state.ok()) return;
      // Baseline after setup: the flush count and the commit count below
      // then cover the same window (the whole run, warmup included) — the
      // setup commits themselves are excluded via the `base` snapshot.
      uint64_t flushes_before = wal.flush_calls();
      obs::MetricsSnapshot base = db->metrics()->Snapshot();
      auto r = RunInsertBench(cfg, &*state);
      obs::MetricsSnapshot stats = db->metrics()->Snapshot();
      uint64_t commits = stats[obs::Metric::kTxnCommits] -
                         base[obs::Metric::kTxnCommits];
      double flushes_per_commit =
          commits == 0
              ? 0.0
              : static_cast<double>(wal.flush_calls() - flushes_before) /
                    static_cast<double>(commits);
      std::printf("%-6s %-8d  %14.0f  %12.2f  %10.2f  %13.3f\n",
                  async_commit ? "async" : "sync", c,
                  r.tps * cfg.records_per_commit, r.tps_per_thread,
                  stats[obs::Metric::kLogBytes] / 1e6, flushes_per_commit);
      if (async_commit) {
        // Consolidation-array counters (final stage = kCArray buffer):
        // how the contended inserts consolidated and how often the
        // flusher stalled on the completion watermark.
        bench::PrintCArrayLogStats(db->log()->stats(), "       log: ");
      }
    }
  }
  std::printf("\n");
}

}  // namespace

int main() {
  std::printf("=== Figure 4: insert microbenchmark, tps/thread "
              "(simulated T2000) ===\n\n");
  RunRealEnginePanel();
  Calibration calib;
  std::vector<int> threads = bench::ThreadSweep();
  struct Entry {
    EngineKind engine;
    sm::Stage stage;
  };
  std::vector<Entry> entries = {
      {EngineKind::kShore, sm::Stage::kFinal},
      {EngineKind::kBdb, sm::Stage::kFinal},
      {EngineKind::kMysql, sm::Stage::kFinal},
      {EngineKind::kPostgres, sm::Stage::kFinal},
      {EngineKind::kDbmsX, sm::Stage::kFinal},
      {EngineKind::kShoreMt, sm::Stage::kFinal},
  };
  std::vector<std::string> names;
  std::vector<std::vector<double>> series;
  for (const Entry& e : entries) {
    names.emplace_back(EngineName(e.engine));
    WorkloadModel model = InsertMicroModel(e.engine, e.stage, calib);
    std::vector<double> curve;
    for (int t : threads) {
      curve.push_back(bench::ModelTxnTpsPerThread(model, t));
    }
    series.push_back(std::move(curve));
  }
  bench::PrintSeriesTable("transactions/second/thread (100-insert txns)",
                          threads, names, series);
  std::printf("\nexpected shape (log-y): shore-mt flattest & highest at 32; "
              "dbms-x near it;\nbdb wins at 1-4 threads then collapses; "
              "mysql declines; postgres plateaus; shore ~1/x.\n");
  return 0;
}
