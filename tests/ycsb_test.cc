#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "io/volume.h"
#include "log/log_storage.h"
#include "obs/metrics.h"
#include "obs/metrics_registry.h"
#include "sm/session.h"
#include "sm/storage_manager.h"
#include "workload/ycsb.h"

namespace shoremt::workload {
namespace {

using sm::StorageManager;
using sm::StorageOptions;

struct YcsbFixture {
  io::MemVolume volume;
  log::LogStorage wal;
  std::unique_ptr<StorageManager> db;
  YcsbDatabase ycsb;

  explicit YcsbFixture(YcsbConfig cfg) {
    auto opened = StorageManager::Open(
        StorageOptions::ForStage(sm::Stage::kFinal), &volume, &wal);
    EXPECT_TRUE(opened.ok());
    db = std::move(*opened);
    auto loader = db->OpenSession();
    EXPECT_TRUE(LoadYcsb(loader.get(), cfg, &ycsb).ok());
  }
};

TEST(YcsbPayloadTest, CounterRoundTripsAndSizeFloors) {
  std::vector<uint8_t> p;
  FillYcsbPayload(/*key=*/17, /*field_size=*/100, /*counter=*/7, &p);
  EXPECT_EQ(p.size(), 100u);
  EXPECT_EQ(ReadYcsbCounter(p), 7u);
  FillYcsbPayload(17, /*field_size=*/4, /*counter=*/0xdeadbeefULL, &p);
  EXPECT_EQ(p.size(), 8u);  // Floored to hold the counter.
  EXPECT_EQ(ReadYcsbCounter(p), 0xdeadbeefULL);
  // Deterministic per key, distinct across keys.
  std::vector<uint8_t> q, r;
  FillYcsbPayload(5, 64, 0, &q);
  FillYcsbPayload(5, 64, 0, &r);
  EXPECT_EQ(q, r);
  FillYcsbPayload(6, 64, 0, &r);
  EXPECT_NE(q, r);
}

TEST(YcsbTest, LoadPopulatesEveryKey) {
  YcsbConfig cfg;
  cfg.record_count = 500;
  cfg.field_size = 32;
  YcsbFixture f(cfg);
  EXPECT_EQ(f.ycsb.visible_count.load(), 500u);
  EXPECT_EQ(f.ycsb.next_insert_key.load(), 500u);
  auto session = f.db->OpenSession();
  for (uint64_t k : {uint64_t{0}, uint64_t{250}, uint64_t{499}}) {
    ASSERT_TRUE(session->Begin().ok());
    auto r = session->Read(f.ycsb.usertable, k);
    ASSERT_TRUE(r.ok()) << "key " << k;
    EXPECT_EQ(r->size(), 32u);
    EXPECT_EQ(ReadYcsbCounter(*r), 0u);
    ASSERT_TRUE(session->Commit().ok());
  }
}

TEST(YcsbTest, MixRatiosHonoredWithinTolerance) {
  YcsbConfig cfg;
  cfg.record_count = 1'000;
  cfg.field_size = 16;
  YcsbFixture f(cfg);
  auto session = f.db->OpenSession();
  auto count = [&](obs::Metric m) { return session->counters()->Value(m); };
  YcsbWorker worker(&f.ycsb, /*seed=*/42);
  const int kTxns = 4'000;
  // Workload A: 50% read / 50% update.
  for (int i = 0; i < kTxns; ++i) {
    ASSERT_TRUE(RunYcsbTxn(session.get(), &worker, YcsbWorkload::kA));
  }
  const uint64_t a_reads = count(obs::Metric::kReads);
  const uint64_t a_inserts = count(obs::Metric::kInserts);
  double read_frac = static_cast<double>(a_reads) / kTxns;
  EXPECT_NEAR(read_frac, 0.50, 0.05);
  // Workload B: 95% read / 5% update on top.
  for (int i = 0; i < kTxns; ++i) {
    ASSERT_TRUE(RunYcsbTxn(session.get(), &worker, YcsbWorkload::kB));
  }
  read_frac = static_cast<double>(count(obs::Metric::kReads) - a_reads) / kTxns;
  EXPECT_NEAR(read_frac, 0.95, 0.03);
  EXPECT_EQ(count(obs::Metric::kInserts), a_inserts);  // A and B never insert.
}

TEST(YcsbTest, ScanReturnsConsecutiveKeys) {
  YcsbConfig cfg;
  cfg.record_count = 200;
  cfg.field_size = 16;
  YcsbFixture f(cfg);
  auto session = f.db->OpenSession();
  ASSERT_TRUE(session->Begin().ok());
  sm::Cursor cur = session->OpenCursor(f.ycsb.usertable);
  ASSERT_TRUE(cur.Seek(50).ok());
  for (uint64_t expect = 50; expect < 60; ++expect) {
    ASSERT_TRUE(cur.Valid());
    EXPECT_EQ(cur.key(), expect);
    EXPECT_EQ(cur.value().size(), 16u);
    ASSERT_TRUE(cur.Next().ok());
  }
  ASSERT_TRUE(session->Commit().ok());
  // Workload E through the txn runner counts its rows in the session.
  YcsbWorker worker(&f.ycsb, /*seed=*/7);
  const uint64_t before = session->counters()->Value(obs::Metric::kScanRows);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(RunYcsbTxn(session.get(), &worker, YcsbWorkload::kE));
  }
  EXPECT_GT(session->counters()->Value(obs::Metric::kScanRows), before);
}

TEST(YcsbTest, RmwCountersPersistAndMatchMetric) {
  YcsbConfig cfg;
  cfg.record_count = 50;  // Small table: RMWs revisit rows.
  cfg.field_size = 24;
  cfg.zipf_theta = 0.9;
  YcsbFixture f(cfg);
  uint64_t rmws = 0;
  {
    auto session = f.db->OpenSession();
    YcsbWorker worker(&f.ycsb, /*seed=*/99);
    for (int i = 0; i < 1'000; ++i) {
      ASSERT_TRUE(RunYcsbTxn(session.get(), &worker, YcsbWorkload::kF));
    }
    rmws = session->counters()->Value(obs::Metric::kRmws);
  }
  EXPECT_GT(rmws, 0u);
  // Every RMW bumped exactly one row's embedded counter under its X lock:
  // the table-wide counter sum must equal the metric.
  auto session = f.db->OpenSession();
  ASSERT_TRUE(session->Begin().ok());
  uint64_t sum = 0;
  for (uint64_t k = 0; k < cfg.record_count; ++k) {
    auto r = session->Read(f.ycsb.usertable, k);
    ASSERT_TRUE(r.ok());
    sum += ReadYcsbCounter(*r);
  }
  ASSERT_TRUE(session->Commit().ok());
  EXPECT_EQ(sum, rmws);
  EXPECT_EQ(f.db->metrics()->Snapshot()[obs::Metric::kRmws], rmws);
}

TEST(YcsbTest, InsertWorkloadGrowsVisibleFrontier) {
  YcsbConfig cfg;
  cfg.record_count = 300;
  cfg.field_size = 16;
  YcsbFixture f(cfg);
  auto session = f.db->OpenSession();
  YcsbWorker worker(&f.ycsb, /*seed=*/1);
  for (int i = 0; i < 2'000; ++i) {
    ASSERT_TRUE(RunYcsbTxn(session.get(), &worker, YcsbWorkload::kD));
  }
  uint64_t visible = f.ycsb.visible_count.load();
  EXPECT_GT(visible, 300u);  // ~5% of 2000 inserts committed + published.
  EXPECT_GE(f.ycsb.next_insert_key.load(), visible);
  // Published keys are readable (D's read-latest draws from them).
  ASSERT_TRUE(session->Begin().ok());
  EXPECT_TRUE(session->Read(f.ycsb.usertable, visible - 1).ok());
  ASSERT_TRUE(session->Commit().ok());
}

TEST(YcsbTest, WorkerKeySequenceDeterministicForSeed) {
  YcsbConfig cfg;
  cfg.record_count = 1'000;
  cfg.zipf_theta = 0.9;
  YcsbFixture f(cfg);
  YcsbWorker a(&f.ycsb, /*seed=*/123), b(&f.ycsb, /*seed=*/123);
  YcsbWorker c(&f.ycsb, /*seed=*/456);
  bool diverged = false;
  for (int i = 0; i < 200; ++i) {
    uint64_t ka = a.NextKey();
    EXPECT_EQ(ka, b.NextKey());
    EXPECT_LT(ka, 1'000u);
    diverged |= ka != c.NextKey();
  }
  EXPECT_TRUE(diverged);
}

TEST(YcsbTest, ScrambledZipfSpreadsHotKeys) {
  // The Zipf generator's hot ranks are 0,1,2...; after scrambling, the
  // hottest request keys must not all cluster at the bottom of the key
  // space (YCSB's ScrambledZipfian property).
  YcsbConfig cfg;
  cfg.record_count = 10'000;
  cfg.zipf_theta = 0.99;
  YcsbFixture f(cfg);
  YcsbWorker worker(&f.ycsb, /*seed=*/5);
  int low_half = 0;
  const int kSamples = 4'000;
  for (int i = 0; i < kSamples; ++i) {
    if (worker.NextKey() < 5'000) ++low_half;
  }
  double low_frac = static_cast<double>(low_half) / kSamples;
  EXPECT_GT(low_frac, 0.3);
  EXPECT_LT(low_frac, 0.7);
}

}  // namespace
}  // namespace shoremt::workload
