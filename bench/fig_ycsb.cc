/// YCSB contention-sweep panel: core workloads A-F over the Session API,
/// request skew swept from uniform to zipf 0.99 across thread counts.
/// Emits one JSON line per (workload, theta, threads) cell with
/// throughput and merged p50/p99/p999 transaction latency, while an
/// obs::ProfilingThread concurrently streams the live per-second metrics
/// feed (CSV, "live " prefix) — every run doubles as a dashboard.
///
/// Modes:
///   bench_fig_ycsb            quick sweep (SHOREMT_FULL=1 widens it)
///   bench_fig_ycsb --smoke    2-second YCSB-B check (uniform + zipf 0.9)
///                             used by CI so the workload cannot rot.

#include <cstdio>
#include <cstring>
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
#include "workload/ycsb.h"

using namespace shoremt;
using namespace shoremt::workload;

namespace {

struct SweepPoint {
  double theta;  ///< 0 = uniform.
};

/// One measured cell: fresh database (D/E mutate it), per-thread session
/// + YcsbWorker, async commits drained through WaitAll, latency merged
/// across the driver's per-thread histograms.
///
/// `optimistic_override`: -1 keeps the stage default (kFinal = optimistic
/// descents); 0/1 forces shared-latch crabbing / optimistic lock coupling
/// for the read-mostly ablation panel.
bool RunCell(YcsbWorkload w, double theta, int threads, uint64_t window_ms,
             const YcsbConfig& base_cfg, uint64_t profile_interval_us,
             int optimistic_override = -1) {
  io::MemVolume volume;
  log::LogStorage wal(/*append_latency_ns=*/20'000);
  sm::StorageOptions sm_opts = sm::StorageOptions::ForStage(sm::Stage::kFinal);
  sm_opts.buffer.frame_count = 8192;
  if (optimistic_override >= 0) {
    sm_opts.btree.optimistic_reads = optimistic_override != 0;
  }
  // F's read-modify-write upgrades S -> X on the row it just read; two
  // workers colliding on a hot key upgrade-deadlock. Resolve cycles
  // immediately (victim aborts, driver retries) instead of waiting out
  // the 500ms timeout, which would eat a whole measurement window.
  sm_opts.lock.deadlock_policy = lock::DeadlockPolicy::kWaitsForGraph;
  auto opened = sm::StorageManager::Open(sm_opts, &volume, &wal);
  if (!opened.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 opened.status().ToString().c_str());
    return false;
  }
  auto& db = *opened;

  YcsbConfig cfg = base_cfg;
  cfg.zipf_theta = theta;
  YcsbDatabase ycsb;
  {
    auto loader = db->OpenSession();
    Status st = LoadYcsb(loader.get(), cfg, &ycsb);
    if (!st.ok()) {
      std::fprintf(stderr, "load failed: %s\n", st.ToString().c_str());
      return false;
    }
  }

  std::vector<std::unique_ptr<sm::Session>> sessions;
  std::vector<std::unique_ptr<YcsbWorker>> workers;
  for (int i = 0; i < threads; ++i) {
    sessions.push_back(db->OpenSession());
    workers.push_back(std::make_unique<YcsbWorker>(
        &ycsb, 0x9c5bULL ^ (static_cast<uint64_t>(i + 1) *
                            0x9e3779b97f4a7c15ULL)));
  }

  obs::MetricsSnapshot m0 = db->metrics()->Snapshot();

  // The live feed: per-interval counter deltas + tick latency quantiles,
  // streamed while the workload runs.
  obs::ProfilingOptions prof_opts;
  prof_opts.interval = std::chrono::microseconds(profile_interval_us);
  prof_opts.prefix = "live ";
  obs::ProfilingThread profiler(db->metrics(), prof_opts);
  profiler.Start();

  auto drain = [&](int worker) { (void)sessions[worker]->WaitAll(); };
  DriverResult res = RunDriver(
      threads, /*warmup_ms=*/window_ms / 5, window_ms,
      [&](int worker, Rng&) {
        return RunYcsbTxn(sessions[worker].get(), workers[worker].get(), w,
                          CommitMode::kAsync);
      },
      drain);

  profiler.Stop();
  obs::MetricsSnapshot m1 = db->metrics()->Snapshot();
  auto delta = [&](obs::Metric m) {
    return (unsigned long long)(m1[m] - m0[m]);
  };

  std::printf(
      "{\"workload\":\"%s\",\"dist\":\"%s\",\"theta\":%.2f,"
      "\"threads\":%d,\"optimistic\":%d,\"tps\":%.0f,\"p50_ns\":%llu,"
      "\"p99_ns\":%llu,\"p999_ns\":%llu,\"aborts\":%llu,"
      "\"lock_waits\":%llu,\"ops\":%llu,\"btree_finds\":%llu,"
      "\"btree_descents\":%llu,\"btree_restarts\":%llu,"
      "\"btree_fallbacks\":%llu}\n",
      std::string(YcsbName(w)).c_str(), theta > 0 ? "zipf" : "uniform",
      theta, threads, sm_opts.btree.optimistic_reads ? 1 : 0, res.tps,
      (unsigned long long)res.latency.P50(),
      (unsigned long long)res.latency.P99(),
      (unsigned long long)res.latency.P999(),
      (unsigned long long)res.aborts,
      delta(obs::Metric::kLockWaits),
      delta(obs::Metric::kInserts) + delta(obs::Metric::kReads) +
          delta(obs::Metric::kUpdates) + delta(obs::Metric::kDeletes) +
          delta(obs::Metric::kScanRows),
      delta(obs::Metric::kBtreeFinds),
      delta(obs::Metric::kBtreeOptimisticDescents),
      delta(obs::Metric::kBtreeRestarts),
      delta(obs::Metric::kBtreeLatchFallbacks));
  bench::PrintIoSpineStats(volume.stats(), db->pool()->stats(), "  ");
  std::fflush(stdout);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  bool full = bench::FullMode();

  if (smoke) {
    // CI smoke: YCSB-B (95/5) for ~1s each under uniform and zipf 0.9 —
    // proves load, mix execution, async drain and the live feed end to
    // end in about two seconds of measurement.
    std::printf("=== YCSB-B smoke (uniform + zipf 0.9) ===\n");
    YcsbConfig cfg;
    cfg.record_count = 2'000;
    cfg.field_size = 64;
    for (double theta : {0.0, 0.9}) {
      if (!RunCell(YcsbWorkload::kB, theta, /*threads=*/2,
                   /*window_ms=*/800, cfg, /*profile_interval_us=*/250'000)) {
        return 1;
      }
    }
    return 0;
  }

  std::printf("=== YCSB A-F: Zipfian contention sweep "
              "(uniform -> zipf 0.99 x threads) ===\n");
  YcsbConfig cfg;
  cfg.record_count = full ? 50'000 : 4'000;
  cfg.field_size = 100;
  std::vector<SweepPoint> sweep = {{0.0}, {0.5}, {0.9}, {0.99}};
  std::vector<int> threads = full ? std::vector<int>{1, 2, 4, 8}
                                  : std::vector<int>{2, 4};
  uint64_t window_ms = full ? 800 : 250;
  uint64_t interval_us = full ? 1'000'000 : 200'000;
  for (YcsbWorkload w : {YcsbWorkload::kA, YcsbWorkload::kB, YcsbWorkload::kC,
                         YcsbWorkload::kD, YcsbWorkload::kE,
                         YcsbWorkload::kF}) {
    for (const SweepPoint& pt : sweep) {
      for (int t : threads) {
        if (!RunCell(w, pt.theta, t, window_ms, cfg, interval_us)) return 1;
      }
    }
  }
  // Read-mostly panel: YCSB-C (100% reads) at zipf 0.9 — the hot root
  // and upper levels make shared-latch crabbing bounce the latch cache
  // line between readers, while optimistic descents never write it. The
  // live feed streams the btree_finds / btree_optimistic_descents /
  // btree_restarts / btree_latch_fallbacks columns per tick; the JSON
  // line carries the cell totals.
  std::printf("=== YCSB-C read-mostly panel: shared-crab vs optimistic "
              "descent ===\n");
  for (int opt : {0, 1}) {
    for (int t : threads) {
      if (!RunCell(YcsbWorkload::kC, 0.9, t, window_ms, cfg, interval_us,
                   opt)) {
        return 1;
      }
    }
  }
  std::printf("expected: skew costs little on read-only C; A/F collapse "
              "p99 as theta grows (hot-row\nX-lock convoys); E pays "
              "scan-vs-insert lock waits; the live feed's per-tick lock_"
              "waits and\ntxn_commits columns show the same story while "
              "it happens.\n");
  return 0;
}
