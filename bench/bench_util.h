#ifndef SHOREMT_BENCH_BENCH_UTIL_H_
#define SHOREMT_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "buffer/buffer_pool.h"
#include "io/volume.h"
#include "log/log_manager.h"
#include "simcore/simulation.h"
#include "workload/engine_profiles.h"

namespace shoremt::bench {

/// One-line dump of the kCArray consolidation counters — shared by every
/// bench that surfaces them (fig4/fig5 async panels, abl_log_buffer) so
/// the format and the avg-group math cannot drift between panels.
/// `indent` is the leading label/whitespace.
inline void PrintCArrayLogStats(const log::LogStats& s, const char* indent) {
  uint64_t groups = s.carray_groups.load();
  std::printf("%ssolo=%llu joins=%llu groups=%llu avg-group=%.2f "
              "group-MB=%.2f wm-stalls=%llu "
              "hist[1,2,3-4,5-8,9-16,>16]=",
              indent, (unsigned long long)s.carray_solo_claims.load(),
              (unsigned long long)s.carray_slot_joins.load(),
              (unsigned long long)groups,
              groups ? static_cast<double>(s.carray_group_records.load()) /
                           static_cast<double>(groups)
                     : 0.0,
              s.carray_group_bytes.load() / 1e6,
              (unsigned long long)s.carray_watermark_stalls.load());
  for (int i = 0; i < 6; ++i) {
    std::printf("%s%llu", i ? "/" : "",
                (unsigned long long)s.carray_group_size_hist[i].load());
  }
  std::printf("\n");
}

/// One-line dump of the log-lifecycle counters (segmented log + cleaner +
/// checkpoint loop): segment churn, live count, checkpoints, cleaner
/// write-backs (the buffer pool's `cleaner_writes`) and the redo window
/// recovery actually scanned. Used by the abl_cleaner endurance sweep.
inline void PrintLogLifecycleStats(log::LogManager* mgr,
                                   const buffer::BufferPoolStats& pool,
                                   const char* indent) {
  const log::LogStats& s = mgr->stats();
  std::printf("%ssegments: alloc=%llu recycled=%llu live=%zu  ckpts=%llu  "
              "cleaner-wb=%llu  redo-scan-B=%llu\n",
              indent, (unsigned long long)s.segments_allocated.load(),
              (unsigned long long)s.segments_recycled.load(),
              mgr->live_segments(),
              (unsigned long long)s.checkpoint_count.load(),
              (unsigned long long)pool.cleaner_writes.load(),
              (unsigned long long)s.redo_scan_bytes.load());
}

/// One-line dump of the async-I/O-spine counters: device calls vs pages
/// moved (the gap is what coalescing saved), vectored-call share, and the
/// prefetch + batched-cleaner activity behind them. Shared by the fig5
/// async panel and the YCSB sweep so the format cannot drift.
inline void PrintIoSpineStats(const io::IoStats& v,
                              const buffer::BufferPoolStats& b,
                              const char* indent) {
  uint64_t calls = v.reads.load() + v.writes.load();
  uint64_t pages = v.pages_read.load() + v.pages_written.load();
  std::printf("%sio: device-calls=%llu pages=%llu (%.2f pages/call) "
              "vectored=%llu prefetch[issued=%llu installed=%llu "
              "dropped=%llu] cleaner-batches=%llu\n",
              indent, (unsigned long long)calls, (unsigned long long)pages,
              calls ? static_cast<double>(pages) / static_cast<double>(calls)
                    : 0.0,
              (unsigned long long)(v.batched_reads.load() +
                                   v.batched_writes.load()),
              (unsigned long long)b.prefetch_issued.load(),
              (unsigned long long)b.prefetch_installed.load(),
              (unsigned long long)b.prefetch_dropped.load(),
              (unsigned long long)b.cleaner_batches.load());
}

/// SHOREMT_FULL=1 switches to full-resolution sweeps / longer windows.
inline bool FullMode() {
  const char* v = std::getenv("SHOREMT_FULL");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

/// Client counts along the x-axis (the paper sweeps 1..32).
inline std::vector<int> ThreadSweep() {
  if (FullMode()) return {1, 2, 4, 8, 12, 16, 20, 24, 28, 32};
  return {1, 2, 4, 8, 16, 24, 32};
}

/// Simulated measurement window (virtual nanoseconds).
inline uint64_t SimWindowNs() { return FullMode() ? 240'000'000 : 80'000'000; }
inline uint64_t SimWarmupNs() { return SimWindowNs() / 5; }

/// Runs one workload model on the simulated Niagara with `threads` workers.
/// SimResult counts per-record progress; divide by records_per_txn for
/// transaction rates.
inline simcore::SimResult RunModel(const workload::WorkloadModel& model,
                                   int threads, uint64_t seed = 1) {
  simcore::Simulation sim(simcore::MachineConfig{}, seed);
  workload::BuildModel(&sim, threads, model);
  return sim.Run(SimWindowNs(), SimWarmupNs());
}

/// Transaction throughput (total and per-thread) for `model`.
inline double ModelTxnTps(const workload::WorkloadModel& model, int threads) {
  return RunModel(model, threads).tps /
         static_cast<double>(model.records_per_txn);
}
inline double ModelTxnTpsPerThread(const workload::WorkloadModel& model,
                                   int threads) {
  return ModelTxnTps(model, threads) / threads;
}

/// Prints an aligned series table: one row per thread count, one column
/// per named series.
inline void PrintSeriesTable(const std::string& y_label,
                             const std::vector<int>& threads,
                             const std::vector<std::string>& names,
                             const std::vector<std::vector<double>>& series) {
  std::printf("%-8s", "clients");
  for (const auto& n : names) std::printf("  %14s", n.c_str());
  std::printf("\n");
  for (size_t row = 0; row < threads.size(); ++row) {
    std::printf("%-8d", threads[row]);
    for (size_t s = 0; s < series.size(); ++s) {
      std::printf("  %14.2f", series[s][row]);
    }
    std::printf("\n");
  }
  std::printf("(y = %s)\n", y_label.c_str());
}

}  // namespace shoremt::bench

#endif  // SHOREMT_BENCH_BENCH_UTIL_H_
