#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "io/volume.h"
#include "log/log_storage.h"
#include "obs/metrics.h"
#include "obs/metrics_registry.h"
#include "obs/profiling_thread.h"
#include "sm/session.h"
#include "sm/storage_manager.h"
#include "workload/tpcc.h"

namespace shoremt::obs {
namespace {

using sm::StorageManager;
using sm::StorageOptions;

TEST(WorkerCountersTest, IncAndValue) {
  WorkerCounters wc;
  wc.Inc(Metric::kTxnCommits);
  wc.Inc(Metric::kTxnCommits, 4);
  wc.Inc(Metric::kLogBytes, 100);
  EXPECT_EQ(wc.Value(Metric::kTxnCommits), 5u);
  EXPECT_EQ(wc.Value(Metric::kLogBytes), 100u);
  EXPECT_EQ(wc.Value(Metric::kTxnAborts), 0u);
}

TEST(MetricsRegistryTest, RegisterBumpSnapshot) {
  MetricsRegistry reg;
  WorkerCounters* a = reg.RegisterWorker();
  WorkerCounters* b = reg.RegisterWorker();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
  EXPECT_EQ(reg.active_workers(), 2u);
  a->Inc(Metric::kReads, 10);
  b->Inc(Metric::kReads, 5);
  b->Inc(Metric::kUpdates, 7);
  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap[Metric::kReads], 15u);
  EXPECT_EQ(snap[Metric::kUpdates], 7u);
  reg.UnregisterWorker(a);
  reg.UnregisterWorker(b);
  EXPECT_EQ(reg.active_workers(), 0u);
}

TEST(MetricsRegistryTest, UnregisterFoldsIntoRetired) {
  MetricsRegistry reg;
  WorkerCounters* a = reg.RegisterWorker();
  a->Inc(Metric::kTxnCommits, 42);
  a->RecordLatency(1000);
  a->RecordLatency(2000);
  reg.UnregisterWorker(a);
  // Totals survive the worker; the freed slot hands out zeroed counters.
  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap[Metric::kTxnCommits], 42u);
  EXPECT_EQ(snap.latency.count, 2u);
  WorkerCounters* b = reg.RegisterWorker();
  EXPECT_EQ(b, a);  // Slot reuse (first free slot).
  EXPECT_EQ(b->Value(Metric::kTxnCommits), 0u);
  b->Inc(Metric::kTxnCommits, 8);
  EXPECT_EQ(reg.Snapshot()[Metric::kTxnCommits], 50u);
  reg.UnregisterWorker(b);
}

TEST(MetricsRegistryTest, SourcesAddAtSnapshotTime) {
  MetricsRegistry reg;
  std::atomic<uint64_t> external{123};
  reg.AddSource([&](std::array<uint64_t, kMetricCount>* t) {
    (*t)[static_cast<size_t>(Metric::kBufferHits)] +=
        external.load(std::memory_order_relaxed);
  });
  EXPECT_EQ(reg.Snapshot()[Metric::kBufferHits], 123u);
  external = 456;
  EXPECT_EQ(reg.Snapshot()[Metric::kBufferHits], 456u);
}

TEST(MetricsRegistryTest, ExhaustionReturnsNull) {
  MetricsRegistry reg;
  std::vector<WorkerCounters*> all;
  for (size_t i = 0; i < MetricsRegistry::kMaxWorkers; ++i) {
    WorkerCounters* wc = reg.RegisterWorker();
    ASSERT_NE(wc, nullptr);
    all.push_back(wc);
  }
  EXPECT_EQ(reg.RegisterWorker(), nullptr);
  reg.UnregisterWorker(all.back());
  EXPECT_NE(reg.RegisterWorker(), nullptr);
}

/// Register/unregister churn racing live bumps and a concurrent snapshot
/// reader: every counted increment must survive into the final snapshot
/// (the retired fold), no matter how slots recycle. Run under TSan in CI.
TEST(MetricsRegistryTest, ChurnConservesTotals) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kRounds = 200;
  constexpr int kBumpsPerRound = 50;
  std::atomic<bool> stop{false};
  // A reader thread exercising Snapshot against the churn.
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      MetricsSnapshot snap = reg.Snapshot();
      (void)snap;
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int r = 0; r < kRounds; ++r) {
        WorkerCounters* wc = reg.RegisterWorker();
        ASSERT_NE(wc, nullptr);  // 8 << kMaxWorkers: never exhausted.
        for (int b = 0; b < kBumpsPerRound; ++b) {
          wc->Inc(Metric::kTxnCommits);
          wc->RecordLatency(100 + b);
        }
        reg.UnregisterWorker(wc);
      }
    });
  }
  for (auto& w : workers) w.join();
  stop = true;
  reader.join();
  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap[Metric::kTxnCommits],
            uint64_t(kThreads) * kRounds * kBumpsPerRound);
  EXPECT_EQ(snap.latency.count, uint64_t(kThreads) * kRounds * kBumpsPerRound);
  EXPECT_EQ(reg.active_workers(), 0u);
}

TEST(LatencySnapshotTest, QuantilesFromMergedBuckets) {
  MetricsRegistry reg;
  WorkerCounters* a = reg.RegisterWorker();
  WorkerCounters* b = reg.RegisterWorker();
  // 90 fast ops on one worker, 10 slow on the other: p50 must sit in the
  // fast band and p99 in the slow band after the cross-worker merge.
  for (int i = 0; i < 90; ++i) a->RecordLatency(1'000);
  for (int i = 0; i < 10; ++i) b->RecordLatency(1'000'000);
  Histogram h = reg.Snapshot().latency.ToHistogram();
  EXPECT_EQ(h.count(), 100u);
  EXPECT_LT(h.P50(), 10'000u);
  EXPECT_GT(h.P99(), 100'000u);
  reg.UnregisterWorker(a);
  reg.UnregisterWorker(b);
}

TEST(ProfilingThreadTest, EmitsHeaderAndTicksCsv) {
  MetricsRegistry reg;
  WorkerCounters* wc = reg.RegisterWorker();
  std::mutex mu;
  std::vector<std::string> lines;
  ProfilingOptions opts;
  opts.interval = std::chrono::microseconds(5'000);
  opts.sink = [&](const std::string& l) {
    std::lock_guard<std::mutex> g(mu);
    lines.push_back(l);
  };
  opts.prefix = "x ";
  ProfilingThread prof(&reg, opts);
  prof.Start();
  wc->Inc(Metric::kReads, 7);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  prof.Stop();
  reg.UnregisterWorker(wc);
  std::lock_guard<std::mutex> g(mu);
  ASSERT_GE(lines.size(), 2u);  // Header + at least the final tick.
  EXPECT_EQ(lines[0].rfind("x tick,elapsed_s,txn_begins", 0), 0u);
  EXPECT_EQ(lines.size() - 1, prof.ticks());
}

TEST(ProfilingThreadTest, JsonLinesFormat) {
  MetricsRegistry reg;
  WorkerCounters* wc = reg.RegisterWorker();
  std::mutex mu;
  std::vector<std::string> lines;
  ProfilingOptions opts;
  opts.interval = std::chrono::microseconds(100'000);
  opts.format = ProfilingOptions::Format::kJsonLines;
  opts.sink = [&](const std::string& l) {
    std::lock_guard<std::mutex> g(mu);
    lines.push_back(l);
  };
  ProfilingThread prof(&reg, opts);
  prof.Start();
  wc->Inc(Metric::kTxnCommits, 3);
  prof.Stop();  // Final tick carries the 3 commits.
  reg.UnregisterWorker(wc);
  std::lock_guard<std::mutex> g(mu);
  ASSERT_GE(lines.size(), 1u);
  const std::string& last = lines.back();
  EXPECT_EQ(last.front(), '{');
  EXPECT_EQ(last.back(), '}');
  EXPECT_NE(last.find("\"tick\":"), std::string::npos);
  EXPECT_NE(last.find("\"txn_commits\":3"), std::string::npos);
  EXPECT_NE(last.find("\"p999_ns\":"), std::string::npos);
}

/// The reconciliation invariant: the cumulative deltas the feed emitted
/// equal the registry totals at the final tick — even across worker
/// churn between ticks.
TEST(ProfilingThreadTest, EmittedDeltasReconcileWithTotals) {
  MetricsRegistry reg;
  ProfilingOptions opts;
  opts.interval = std::chrono::microseconds(2'000);
  opts.sink = [](const std::string&) {};  // Discard; emitted() is the API.
  ProfilingThread prof(&reg, opts);
  prof.Start();
  constexpr int kThreads = 4;
  constexpr int kRounds = 100;
  constexpr int kBumps = 25;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int r = 0; r < kRounds; ++r) {
        WorkerCounters* wc = reg.RegisterWorker();
        ASSERT_NE(wc, nullptr);
        for (int b = 0; b < kBumps; ++b) {
          wc->Inc(Metric::kTxnCommits);
          wc->RecordLatency(500);
        }
        reg.UnregisterWorker(wc);
      }
    });
  }
  for (auto& w : workers) w.join();
  prof.Stop();
  const uint64_t expected = uint64_t(kThreads) * kRounds * kBumps;
  MetricsSnapshot emitted = prof.emitted();
  EXPECT_EQ(emitted[Metric::kTxnCommits], expected);
  EXPECT_EQ(emitted.latency.count, expected);
  EXPECT_EQ(reg.Snapshot()[Metric::kTxnCommits], expected);
}

/// Start/stop/teardown races: ticking at a tiny interval while workers
/// bump and the controller stops mid-flight. Repeated so TSan gets many
/// interleavings; the invariant is no crash/race and ticks monotone.
TEST(ProfilingThreadTest, StartStopTeardownRace) {
  for (int round = 0; round < 20; ++round) {
    MetricsRegistry reg;
    ProfilingOptions opts;
    opts.interval = std::chrono::microseconds(500);
    opts.sink = [](const std::string&) {};
    ProfilingThread prof(&reg, opts);
    std::atomic<bool> stop{false};
    std::thread bumper([&] {
      WorkerCounters* wc = reg.RegisterWorker();
      while (!stop.load(std::memory_order_relaxed)) {
        wc->Inc(Metric::kReads);
        wc->RecordLatency(123);
      }
      reg.UnregisterWorker(wc);
    });
    prof.Start();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    prof.Stop();
    uint64_t after_stop = prof.ticks();
    EXPECT_GE(after_stop, 1u);
    stop = true;
    bumper.join();
    // Destructor's Stop must be a no-op now.
  }
}

/// End-to-end: a real StorageManager run through one session. The registry
/// is the only counter path, so its totals are exact counts of what the
/// session did, and the feed's cumulative account matches them.
TEST(ProfilingThreadTest, RegistryCountsEverySessionOperation) {
  io::MemVolume volume;
  log::LogStorage wal;
  auto opened = StorageManager::Open(
      StorageOptions::ForStage(sm::Stage::kFinal), &volume, &wal);
  ASSERT_TRUE(opened.ok());
  auto& db = *opened;

  ProfilingOptions opts;
  opts.interval = std::chrono::microseconds(5'000);
  opts.sink = [](const std::string&) {};
  ProfilingThread prof(db->metrics(), opts);
  prof.Start();

  {
    auto session = db->OpenSession();
    ASSERT_TRUE(session->Begin().ok());
    auto table = session->CreateTable("t");
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE(session->Commit().ok());
    std::vector<uint8_t> payload(32, 0xab);
    for (uint64_t k = 0; k < 200; ++k) {
      ASSERT_TRUE(session->Begin().ok());
      ASSERT_TRUE(session->Insert(*table, k, payload).ok());
      ASSERT_TRUE(session->Commit().ok());
    }
    for (uint64_t k = 0; k < 100; ++k) {
      ASSERT_TRUE(session->Begin().ok());
      ASSERT_TRUE(session->Read(*table, k).ok());
      ASSERT_TRUE(session->Commit().ok());
    }
  }  // Session closes: its worker block folds into the retired totals.

  prof.Stop();
  MetricsSnapshot live = db->metrics()->Snapshot();
  MetricsSnapshot emitted = prof.emitted();

  EXPECT_EQ(live[Metric::kTxnBegins], 301u);
  EXPECT_EQ(live[Metric::kTxnCommits], 301u);
  EXPECT_EQ(live[Metric::kTxnAborts], 0u);
  EXPECT_EQ(live[Metric::kInserts], 200u);
  EXPECT_EQ(live[Metric::kReads], 100u);
  EXPECT_EQ(live.latency.count, 301u);
  EXPECT_GT(live[Metric::kLogBytes], 0u);
  // The feed's cumulative deltas equal the live totals for every
  // worker-side metric (engine sources keep moving after Stop, so only
  // the worker side is exact).
  for (Metric m : {Metric::kTxnBegins, Metric::kTxnCommits, Metric::kInserts,
                   Metric::kReads, Metric::kLogBytes, Metric::kLockWaits,
                   Metric::kLockCacheHits, Metric::kCommitWaits,
                   Metric::kCommitWaitsAvoided}) {
    EXPECT_EQ(emitted[m], live[m]) << MetricName(m);
  }
  EXPECT_EQ(emitted.latency.count, live.latency.count);
  // Engine sources feed the registry too: the inserts touched the buffer
  // pool and the log.
  EXPECT_GT(live[Metric::kBufferHits], 0u);
  EXPECT_GT(live[Metric::kLogRecords], 0u);
  EXPECT_GT(live[Metric::kLockAcquired], 0u);
}

/// The registry's views of subsystem stats structs equal the structs: a
/// short TPC-C run through sessions over a pool small enough to evict.
TEST(ProfilingThreadTest, RegistrySourcesMatchSubsystemStats) {
  io::MemVolume volume;
  log::LogStorage wal;
  StorageOptions options = StorageOptions::ForStage(sm::Stage::kFinal);
  options.buffer.frame_count = 16;
  auto opened = StorageManager::Open(options, &volume, &wal);
  ASSERT_TRUE(opened.ok());
  auto& db = *opened;
  {
    auto session = db->OpenSession();
    workload::TpccConfig cfg;
    cfg.warehouses = 2;
    cfg.districts_per_warehouse = 2;
    cfg.customers_per_district = 60;
    cfg.items = 1000;
    auto tpcc = workload::LoadTpcc(session.get(), cfg);
    ASSERT_TRUE(tpcc.ok()) << tpcc.status().ToString();
    int committed = 0;
    for (int i = 0; i < 50; ++i) {
      committed += workload::RunPayment(session.get(), &*tpcc, 1 + i % 2);
      committed += workload::RunNewOrder(session.get(), &*tpcc, 1 + i % 2);
    }
    ASSERT_GT(committed, 0);
  }
  ASSERT_TRUE(db->pool()->CleanerSweep().ok());
  auto structs = [&] {
    return std::array<uint64_t, 4>{
        db->pool()->stats().evictions.load(),
        db->space()->stats().pages_allocated.load(),
        db->log()->stats().group_batch_txns.load(),
        db->pool()->stats().cleaner_writes.load()};
  };
  // The flush daemon books a batch just after waking its committers, and
  // the background cleaner may still be writing back: read the structs on
  // both sides of the snapshot until they agree.
  std::array<uint64_t, 4> before, after;
  MetricsSnapshot snap;
  for (int tries = 0; tries < 1000; ++tries) {
    before = structs();
    snap = db->metrics()->Snapshot();
    after = structs();
    if (before == after) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(before, after) << "subsystem counters never settled";
  EXPECT_GT(after[0], 0u) << "the pool never evicted";
  EXPECT_GT(after[1], 0u);
  EXPECT_GT(after[2], 0u);
  EXPECT_GT(after[3], 0u) << "the sweep wrote nothing back";
  EXPECT_EQ(snap[Metric::kEvictions], after[0]);
  EXPECT_EQ(snap[Metric::kPagesAllocated], after[1]);
  EXPECT_EQ(snap[Metric::kGroupBatchTxns], after[2]);
  EXPECT_EQ(snap[Metric::kCleanerWritebacks], after[3]);
}

}  // namespace
}  // namespace shoremt::obs
