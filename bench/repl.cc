/// Log-shipping replication panel: a forked primary/replica pair over a
/// UNIX socketpair — a real two-process topology, not threads sharing an
/// address space. The parent runs the engine plus a SegmentShipper and
/// concurrent writer sessions; the child runs a Replica, which applies
/// each received frame on its receive thread. Both sides emit one JSON
/// line per ~100ms sampling tick ("side" distinguishes them): the primary
/// reports durable/shipped/acked offsets and the lag gauge, the replica
/// its received bytes and replayed-LSN horizon — the converging curves
/// ARE the result.
///
/// Each side ends with a summary line. The primary's: `write_ms` (writers
/// started to writers joined), `write_mbps` (log bytes the writers made
/// durable per second of it) and `peak_lag_bytes` (the largest sampled
/// lag gauge). The replica's: `caught_up_ms` (stream end to the replayed
/// horizon reaching everything received). Both: `cpu_ms` (user + system
/// CPU of that process) and its voluntary/involuntary context switches.
///
/// Modes:
///   bench_repl            longer write phase (SHOREMT_FULL=1 widens it)
///   bench_repl --smoke    CI check: ships everything, replica catches up,
///                         full committed prefix readable post-EOF.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "io/volume.h"
#include "log/log_storage.h"
#include "repl/framing.h"
#include "repl/replica.h"
#include "repl/shipper.h"
#include "sm/session.h"
#include "sm/storage_manager.h"

using namespace shoremt;

namespace {

constexpr size_t kSegmentBytes = 64 * 1024;
constexpr uint64_t kBatch = 20;

sm::StorageOptions EngineOptions() {
  sm::StorageOptions o = sm::StorageOptions::ForStage(sm::Stage::kFinal);
  o.log.segment_bytes = kSegmentBytes;
  // No recycling during the run: the shipper must be able to re-read any
  // live segment, and the bench wants deterministic shipped-bytes counts.
  o.buffer.enable_cleaner = false;
  o.checkpoint_daemon = false;
  return o;
}

std::vector<uint8_t> Row(uint64_t key) {
  std::vector<uint8_t> payload(64);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(key * 7 + i);
  }
  return payload;
}

uint64_t NowMs(std::chrono::steady_clock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

/// `"cpu_ms":..,"vcsw":..,"ivcsw":..` for this process (a forked child
/// starts from zero).
void PrintCpuFields() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  auto ms = [](const timeval& tv) {
    return static_cast<unsigned long long>(tv.tv_sec) * 1000 +
           static_cast<unsigned long long>(tv.tv_usec) / 1000;
  };
  std::printf("\"cpu_ms\":%llu,\"vcsw\":%ld,\"ivcsw\":%ld",
              ms(ru.ru_utime) + ms(ru.ru_stime), ru.ru_nvcsw, ru.ru_nivcsw);
}

// ------------------------------------------------------------- primary ----

int RunPrimary(int fd, uint64_t rows, int writer_threads) {
  auto t0 = std::chrono::steady_clock::now();
  io::MemVolume volume;
  log::LogStorage wal(0, kSegmentBytes);
  auto opened = sm::StorageManager::Open(EngineOptions(), &volume, &wal);
  if (!opened.ok()) {
    std::fprintf(stderr, "primary open failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  auto& db = *opened;

  repl::SegmentShipper shipper(db->log(), fd);
  shipper.Start();

  {
    auto session = db->OpenSession();
    if (!session->Begin().ok() || !session->CreateTable("t").ok() ||
        !session->Commit().ok()) {
      std::fprintf(stderr, "primary: table creation failed\n");
      return 1;
    }
  }

  // Writers insert disjoint key ranges in small committed batches — a
  // steady committed-log stream for the shipper to chase.
  const uint64_t write_base = wal.size();
  const auto write_t0 = std::chrono::steady_clock::now();
  std::atomic<bool> done{false};
  std::vector<std::thread> writers;
  std::atomic<int> writer_rc{0};
  uint64_t per_writer = rows / writer_threads;
  for (int w = 0; w < writer_threads; ++w) {
    writers.emplace_back([&, w] {
      auto session = db->OpenSession();
      auto table = session->OpenTable("t");
      if (!table.ok()) {
        writer_rc.store(1);
        return;
      }
      uint64_t lo = static_cast<uint64_t>(w) * per_writer;
      for (uint64_t k = lo; k < lo + per_writer; k += kBatch) {
        if (!session->Begin().ok()) {
          writer_rc.store(1);
          return;
        }
        for (uint64_t i = k; i < k + kBatch && i < lo + per_writer; ++i) {
          if (!session->Insert(*table, i, Row(i)).ok()) {
            writer_rc.store(1);
            return;
          }
        }
        if (!session->Commit().ok()) {
          writer_rc.store(1);
          return;
        }
      }
    });
  }

  // The sampling loop: primary-side view of the pipe while writers run.
  uint64_t peak_lag = 0;  // monitor thread, then this one after the join
  auto sample = [&] {
    peak_lag = std::max(peak_lag, shipper.lag_bytes());
    std::printf("{\"side\":\"primary\",\"t_ms\":%llu,\"durable\":%llu,"
                "\"shipped\":%llu,\"segments\":%llu,\"acked_replayed\":%llu,"
                "\"lag_bytes\":%llu}\n",
                (unsigned long long)NowMs(t0),
                (unsigned long long)wal.size(),
                (unsigned long long)shipper.shipped_offset(),
                (unsigned long long)shipper.segments_shipped(),
                (unsigned long long)shipper.acked_replayed_lsn(),
                (unsigned long long)shipper.lag_bytes());
    std::fflush(stdout);
  };
  std::thread monitor([&] {
    while (!done.load(std::memory_order_acquire)) {
      sample();
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  });
  for (auto& w : writers) w.join();
  uint64_t write_ms = std::max<uint64_t>(1, NowMs(write_t0));
  if (!db->log()->FlushAll().ok()) writer_rc.store(1);
  uint64_t written = wal.size() - write_base;
  done.store(true, std::memory_order_release);
  monitor.join();

  // Catch-up: everything durable must go out before we hang up.
  uint64_t durable = wal.size();
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (shipper.shipped_offset() < durable &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  sample();
  bool shipped_all = shipper.shipped_offset() >= durable;
  shipper.Stop();  // EOF: the replica catches up and verifies

  std::printf("{\"side\":\"primary\",\"summary\":true,\"rows\":%llu,"
              "\"durable\":%llu,\"bytes_streamed\":%llu,\"shipped_all\":%s,"
              "\"write_ms\":%llu,\"write_mbps\":%.2f,"
              "\"peak_lag_bytes\":%llu,",
              (unsigned long long)rows, (unsigned long long)durable,
              (unsigned long long)shipper.bytes_streamed(),
              shipped_all ? "true" : "false", (unsigned long long)write_ms,
              static_cast<double>(written) / 1e3 /
                  static_cast<double>(write_ms),
              (unsigned long long)peak_lag);
  PrintCpuFields();
  std::printf("}\n");
  std::fflush(stdout);

  if (writer_rc.load() != 0) {
    std::fprintf(stderr, "primary: writer failed\n");
    return 1;
  }
  if (!shipper.status().ok()) {
    std::fprintf(stderr, "primary: shipper failed: %s\n",
                 shipper.status().ToString().c_str());
    return 1;
  }
  if (!shipped_all) {
    std::fprintf(stderr, "primary: replica never caught up (%llu < %llu)\n",
                 (unsigned long long)shipper.shipped_offset(),
                 (unsigned long long)durable);
    return 1;
  }
  return 0;
}

// ------------------------------------------------------------- replica ----

int RunReplica(int fd, uint64_t rows) {
  auto t0 = std::chrono::steady_clock::now();
  io::MemVolume volume;
  log::LogStorage wal(0, kSegmentBytes);
  repl::Replica::Options ro;
  ro.storage = EngineOptions();
  repl::Replica replica(&volume, &wal, ro);
  Status st = replica.Start(fd);
  if (!st.ok()) {
    std::fprintf(stderr, "replica start failed: %s\n", st.ToString().c_str());
    return 1;
  }

  while (!replica.stream_ended()) {
    std::printf("{\"side\":\"replica\",\"t_ms\":%llu,\"received\":%llu,"
                "\"replayed_lsn\":%llu,\"frames\":%llu}\n",
                (unsigned long long)NowMs(t0),
                (unsigned long long)replica.received_bytes(),
                (unsigned long long)replica.replayed_lsn(),
                (unsigned long long)replica.frames_applied());
    std::fflush(stdout);
    replica.WaitStreamEnd(100);
  }

  // Primary hung up after shipping everything: the horizon must reach
  // everything received, then the full committed prefix must be readable
  // at it.
  const auto eof_t0 = std::chrono::steady_clock::now();
  uint64_t horizon = replica.received_bytes() + 1;
  bool caught_up = replica.WaitReplayed(horizon, 20000);
  double caught_up_ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - eof_t0)
                            .count();
  if (!caught_up) {
    std::fprintf(stderr, "replica: replay never reached %llu (at %llu): %s\n",
                 (unsigned long long)horizon,
                 (unsigned long long)replica.replayed_lsn(),
                 replica.error().ToString().c_str());
    return 1;
  }
  if (!replica.error().ok()) {
    std::fprintf(stderr, "replica error: %s\n",
                 replica.error().ToString().c_str());
    return 1;
  }
  auto session = replica.sm()->OpenSession();
  if (!session->Begin().ok()) return 1;
  auto table = session->OpenTable("t");
  if (!table.ok()) {
    std::fprintf(stderr, "replica: table missing after replay\n");
    return 1;
  }
  for (uint64_t k : {uint64_t{0}, rows / 2, rows - 1}) {
    auto got = session->Read(*table, k);
    if (!got.ok() || got->size() != Row(k).size()) {
      std::fprintf(stderr, "replica: key %llu unreadable after catch-up\n",
                   (unsigned long long)k);
      return 1;
    }
  }
  if (!session->Commit().ok()) return 1;
  session.reset();

  std::printf("{\"side\":\"replica\",\"summary\":true,\"received\":%llu,"
              "\"replayed_lsn\":%llu,\"verified\":true,"
              "\"caught_up_ms\":%.3f,",
              (unsigned long long)replica.received_bytes(),
              (unsigned long long)replica.replayed_lsn(), caught_up_ms);
  PrintCpuFields();
  std::printf("}\n");
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  uint64_t rows = smoke ? 4'000 : (bench::FullMode() ? 200'000 : 40'000);
  int writer_threads = 2;

  std::printf("=== log-shipping replication: primary + forked replica "
              "(%llu rows, %d writers) ===\n",
              (unsigned long long)rows, writer_threads);
  std::fflush(stdout);  // the fork below duplicates any buffered bytes

  int fds[2];
  Status st = repl::MakeSocketPair(fds);
  if (!st.ok()) {
    std::fprintf(stderr, "socketpair failed: %s\n", st.ToString().c_str());
    return 1;
  }
  // Fork FIRST: the child must not inherit engine threads mid-flight.
  pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("fork");
    return 1;
  }
  if (pid == 0) {
    ::close(fds[0]);
    int rc = RunReplica(fds[1], rows);
    ::close(fds[1]);
    std::fflush(nullptr);  // _Exit skips stdio teardown
    std::_Exit(rc);
  }
  ::close(fds[1]);
  int rc = RunPrimary(fds[0], rows, writer_threads);
  ::close(fds[0]);

  int wstatus = 0;
  if (::waitpid(pid, &wstatus, 0) < 0) {
    std::perror("waitpid");
    return 1;
  }
  int child_rc =
      WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : 128 + WTERMSIG(wstatus);
  if (child_rc != 0) {
    std::fprintf(stderr, "replica process exited with %d\n", child_rc);
  }
  if (rc == 0 && child_rc == 0) {
    std::printf("expected: the replica's received curve hugs the primary's "
                "durable curve (tail deltas\nbound lag by flush cadence, "
                "not segment size) and replayed_lsn converges to it; the\n"
                "post-EOF verification proves the committed prefix is "
                "readable on the other side.\n");
  }
  return rc != 0 ? rc : child_rc;
}
