/// Ablation B: log buffer implementations (real engine).
///
/// Direct append throughput through the three log buffer designs
/// (mutex / decoupled / carray) over a 1/2/4/8 producer sweep, plus the
/// group-commit effect: device flush calls per committed transaction —
/// measured through three commit disciplines against the same buffer:
///   sync      each committer calls FlushTo itself (buffer-level batching
///             only),
///   pipeline  Submit + WaitDurable through the FlushPipeline daemon
///             (group commit with per-commit acknowledgment),
///   async     Submit per commit, one WaitDurable at the end (maximum
///             amortization — the CommitAsync regime).
///
/// Every data point is also emitted as a machine-readable JSON line
/// (kind, mode, producers, MB/s, ns/insert, flushes/commit) so sweeps can
/// be diffed.
///
/// `--smoke` runs every kind x mode at 1 and 4 producers with a short
/// append count, and exits nonzero if any append or flush fails or the
/// durable log does not hold exactly the bytes appended — so none of the
/// stage buffers can rot unnoticed.

#include <atomic>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/clock.h"
#include "log/log_manager.h"
#include "log/log_storage.h"

using namespace shoremt;
using namespace shoremt::log;

namespace {

enum class FlushMode { kSync, kPipeline, kAsync };

const char* KindName(LogBufferKind k) {
  switch (k) {
    case LogBufferKind::kMutex: return "mutex";
    case LogBufferKind::kDecoupled: return "decoupled";
    case LogBufferKind::kCArray: return "carray";
  }
  return "?";
}

const char* ModeName(FlushMode m) {
  switch (m) {
    case FlushMode::kSync: return "sync";
    case FlushMode::kPipeline: return "pipeline";
    case FlushMode::kAsync: return "async";
  }
  return "?";
}

/// Runs one cell; false if an append or flush failed or the durable log
/// is not exactly the appended bytes.
bool RunVariant(LogBufferKind kind, int threads, FlushMode mode,
                int appends_per_thread) {
  // 100us device latency per flush call: the regime where group commit
  // pays (the paper's log lived on an in-memory filesystem, but commits
  // still serialized on flush completion).
  LogStorage storage(/*append_latency_ns=*/100'000);
  LogOptions opts;
  opts.buffer_kind = kind;
  LogManager mgr(&storage, opts);

  LogRecord rec;
  rec.type = LogRecordType::kPageInsert;
  rec.txn = 1;
  rec.page = 1;
  rec.after.assign(80, 0xcd);
  const uint64_t record_bytes = rec.SerializedSize();

  std::atomic<bool> failed{false};
  uint64_t t0 = NowNanos();
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      Lsn last_commit;
      for (int i = 0; i < appends_per_thread; ++i) {
        auto a = mgr.Append(rec);
        if (!a.ok()) {
          failed.store(true);
          return;
        }
        // Commit every 100 records: the durability barrier.
        if (i % 100 == 99) {
          Status st = Status::Ok();
          switch (mode) {
            case FlushMode::kSync:
              st = mgr.FlushTo(a->end);
              break;
            case FlushMode::kPipeline:
              mgr.SubmitFlush(a->end);
              st = mgr.WaitDurable(a->end);
              break;
            case FlushMode::kAsync:
              mgr.SubmitFlush(a->end);
              last_commit = a->end;
              break;
          }
          if (!st.ok()) failed.store(true);
        }
      }
      if (mode == FlushMode::kAsync && !mgr.WaitDurable(last_commit).ok()) {
        failed.store(true);
      }
    });
  }
  for (auto& w : workers) w.join();
  uint64_t ns = NowNanos() - t0;
  uint64_t appends = static_cast<uint64_t>(threads) * appends_per_thread;
  double appends_per_sec = static_cast<double>(appends) * 1e9 / ns;
  double mb_per_s = appends_per_sec * record_bytes / 1e6;
  double ns_per_insert = static_cast<double>(ns) / appends;
  uint64_t commits = appends / 100;
  double flushes_per_commit =
      static_cast<double>(storage.flush_calls()) / commits;
  std::printf("%-14s %-9s producers=%d  appends/s=%11.0f  ns/insert=%7.1f  "
              "device-flushes/commit=%.3f\n",
              KindName(kind), ModeName(mode), threads, appends_per_sec,
              ns_per_insert, flushes_per_commit);
  std::printf("JSON {\"bench\":\"abl_log_buffer\",\"kind\":\"%s\","
              "\"mode\":\"%s\",\"producers\":%d,\"mb_per_s\":%.2f,"
              "\"ns_per_insert\":%.1f,\"flushes_per_commit\":%.3f}\n",
              KindName(kind), ModeName(mode), threads, mb_per_s,
              ns_per_insert, flushes_per_commit);
  if (kind == LogBufferKind::kCArray) {
    bench::PrintCArrayLogStats(mgr.stats(), "    carray: ");
  }
  // Each thread's last append is a commit (the append counts are
  // multiples of 100), so the whole stream must be durable.
  if (failed.load() || storage.size() != appends * record_bytes) {
    std::printf("FAIL %s %s producers=%d: durable=%llu expected=%llu%s\n",
                KindName(kind), ModeName(mode), threads,
                (unsigned long long)storage.size(),
                (unsigned long long)(appends * record_bytes),
                failed.load() ? " (append/flush error)" : "");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const int appends_per_thread =
      smoke ? 2'000 : (bench::FullMode() ? 200'000 : 40'000);
  const std::vector<int> producer_counts =
      smoke ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4, 8};
  std::printf("=== Ablation B: log buffer designs x commit discipline "
              "x producers (real engine, this machine) ===\n\n");
  bool ok = true;
  for (auto kind : {LogBufferKind::kMutex, LogBufferKind::kDecoupled,
                    LogBufferKind::kCArray}) {
    for (auto mode :
         {FlushMode::kSync, FlushMode::kPipeline, FlushMode::kAsync}) {
      for (int producers : producer_counts) {
        ok &= RunVariant(kind, producers, mode, appends_per_thread);
      }
      std::printf("\n");
    }
  }
  std::printf("expected: the pipeline amortizes device flushes across "
              "concurrent committers\n(group commit), and async submission "
              "amortizes them even within one producer.\n");
  return ok ? 0 : 1;
}
