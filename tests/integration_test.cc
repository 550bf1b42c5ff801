#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "io/volume.h"
#include "lock/lock_manager.h"
#include "log/log_storage.h"
#include "sm/options.h"
#include "sm/session.h"
#include "sm/storage_manager.h"
#include "workload/insert_workload.h"

namespace shoremt::sm {
namespace {

std::vector<uint8_t> Row(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

TEST(IntegrationTest, FileVolumeBackedDatabasePersists) {
  std::string path = ::testing::TempDir() + "/shoremt_integration.vol";
  ::unlink(path.c_str());
  log::LogStorage wal;
  {
    auto vol = io::FileVolume::Open(path);
    ASSERT_TRUE(vol.ok());
    auto db = std::move(*StorageManager::Open(
        StorageOptions::ForStage(Stage::kFinal), vol->get(), &wal));
    auto s = db->OpenSession();
    ASSERT_TRUE(s->Begin().ok());
    auto table = s->CreateTable("t");
    ASSERT_TRUE(table.ok());
    for (uint64_t k = 0; k < 100; ++k) {
      ASSERT_TRUE(s->Insert(*table, k, Row("disk" + std::to_string(k))).ok());
    }
    ASSERT_TRUE(s->Commit().ok());
    ASSERT_TRUE(db->Shutdown().ok());  // Clean shutdown: pages on disk.
  }
  {
    // Reopen the file; recovery replays whatever the file misses.
    auto vol = io::FileVolume::Open(path);
    ASSERT_TRUE(vol.ok());
    auto db = std::move(*StorageManager::Open(
        StorageOptions::ForStage(Stage::kFinal), vol->get(), &wal));
    auto check = db->OpenSession();
    auto table = check->OpenTable("t");
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE(check->Begin().ok());
    auto read = check->Read(*table, 57);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(std::string(read->begin(), read->end()), "disk57");
    ASSERT_TRUE(check->Commit().ok());
  }
  ::unlink(path.c_str());
}

TEST(IntegrationTest, LockEscalationEndToEnd) {
  io::MemVolume volume;
  log::LogStorage wal;
  StorageOptions opts = StorageOptions::ForStage(Stage::kFinal);
  opts.lock.escalation_threshold = 50;
  auto db = std::move(*StorageManager::Open(opts, &volume, &wal));
  auto s = db->OpenSession();
  ASSERT_TRUE(s->Begin().ok());
  auto table = s->CreateTable("bulk");
  ASSERT_TRUE(table.ok());
  for (uint64_t k = 0; k < 200; ++k) {
    ASSERT_TRUE(s->Insert(*table, k, Row("x")).ok());
  }
  EXPECT_GE(db->locks()->stats().escalations.load(), 1u)
      << "200 row locks past a threshold of 50 must escalate";
  // After escalation the store lock blocks other writers entirely.
  ASSERT_TRUE(s->Commit().ok());
  ASSERT_TRUE(s->Begin().ok());
  EXPECT_TRUE(s->Read(*table, 199).ok());
  ASSERT_TRUE(s->Commit().ok());
}

TEST(IntegrationTest, TinyPoolDirtyEvictionKeepsConsistency) {
  // A 16-frame pool forces constant dirty eviction + in-transit traffic
  // while 4 writers hammer it; everything must read back intact.
  io::MemVolume volume;
  log::LogStorage wal;
  StorageOptions opts = StorageOptions::ForStage(Stage::kFinal);
  opts.buffer.frame_count = 16;
  auto db = std::move(*StorageManager::Open(opts, &volume, &wal));
  constexpr int kThreads = 4;
  constexpr uint64_t kRows = 150;
  std::vector<TableInfo> tables(kThreads);
  auto check = db->OpenSession();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(check->Begin().ok());
    auto table = check->CreateTable("t" + std::to_string(t));
    ASSERT_TRUE(table.ok());
    tables[t] = *table;
    ASSERT_TRUE(check->Commit().ok());
  }
  std::vector<std::thread> workers;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      auto s = db->OpenSession();
      if (!s->Begin().ok()) failures.fetch_add(1);
      for (uint64_t k = 0; k < kRows; ++k) {
        // ~500-byte rows so 4 tables overflow the 16-frame pool and force
        // dirty evictions mid-run.
        std::string value = "v" + std::to_string(t) + "_" +
                            std::to_string(k) + std::string(500, 'p');
        if (!s->Insert(tables[t], k, Row(value)).ok()) failures.fetch_add(1);
      }
      if (!s->Commit().ok()) failures.fetch_add(1);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(db->pool()->stats().dirty_writebacks.load(), 0u)
      << "a 16-frame pool must have evicted dirty pages";
  ASSERT_TRUE(check->Begin().ok());
  Rng rng(5);
  for (int probe = 0; probe < 100; ++probe) {
    int t = static_cast<int>(rng.Uniform(kThreads));
    uint64_t k = rng.Uniform(kRows);
    auto read = check->Read(tables[t], k);
    ASSERT_TRUE(read.ok()) << "t" << t << " key " << k;
    EXPECT_EQ(std::string(read->begin(), read->end()),
              "v" + std::to_string(t) + "_" + std::to_string(k) +
                  std::string(500, 'p'));
  }
  ASSERT_TRUE(check->Commit().ok());
}

TEST(IntegrationTest, SlowVolumeStillCorrect) {
  // Latency-injected volume: misses and write-backs take real time, which
  // stretches the in-transit window the bpool-2 optimizations target.
  io::MemVolume volume(io::VolumeOptions{.read_latency_ns = 200'000,
                                         .write_latency_ns = 200'000});
  log::LogStorage wal;
  StorageOptions opts = StorageOptions::ForStage(Stage::kFinal);
  opts.buffer.frame_count = 8;
  auto db = std::move(*StorageManager::Open(opts, &volume, &wal));
  auto s = db->OpenSession();
  ASSERT_TRUE(s->Begin().ok());
  auto table = s->CreateTable("slow");
  ASSERT_TRUE(table.ok());
  for (uint64_t k = 0; k < 150; ++k) {
    ASSERT_TRUE(s->Insert(*table, k, Row(std::string(600, 's'))).ok());
  }
  ASSERT_TRUE(s->Commit().ok());
  ASSERT_TRUE(s->Begin().ok());
  for (uint64_t k = 0; k < 150; ++k) {
    ASSERT_TRUE(s->Read(*table, k).ok()) << k;
  }
  ASSERT_TRUE(s->Commit().ok());
  EXPECT_GT(volume.stats().reads.load(), 0u);
}

TEST(IntegrationTest, InsertBenchRunsAtEveryStage) {
  // The paper's primary workload must complete at every §7 snapshot (the
  // figure benches rely on this).
  for (Stage stage : kAllStages) {
    io::MemVolume volume;
    log::LogStorage wal;
    auto db = std::move(
        *StorageManager::Open(StorageOptions::ForStage(stage), &volume, &wal));
    workload::InsertBenchConfig cfg;
    cfg.clients = 2;
    cfg.records_per_commit = 50;
    cfg.warmup_ms = 10;
    cfg.duration_ms = 80;
    auto state = workload::SetupInsertBench(db.get(), cfg);
    ASSERT_TRUE(state.ok()) << StageName(stage);
    auto r = workload::RunInsertBench(cfg, &*state);
    // A stage that commits nothing in its window has stalled; lock timeouts
    // (500 ms each under ForStage) are the first suspect.
    const lock::LockStats& locks = db->locks()->stats();
    EXPECT_GT(r.txns, 0u) << StageName(stage)
                          << ": lock timeouts " << locks.timeouts.load()
                          << ", waits " << locks.waits.load()
                          << ", driver failures " << r.aborts;
  }
}

TEST(IntegrationTest, CheckpointShrinksRecoveryScanWindow) {
  // After a checkpoint, recovery must not need to redo from LSN 1: the
  // analysis pass reads the checkpoint's redo point. Indirect check: a
  // crash long after a checkpoint still recovers (covered elsewhere) AND
  // the checkpoint body carries a non-null redo LSN.
  io::MemVolume volume;
  log::LogStorage wal;
  auto db = std::move(*StorageManager::Open(
      StorageOptions::ForStage(Stage::kFinal), &volume, &wal));
  auto s = db->OpenSession();
  ASSERT_TRUE(s->Begin().ok());
  auto table = s->CreateTable("t");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(s->Insert(*table, 1, Row("x")).ok());
  ASSERT_TRUE(s->Commit().ok());
  auto ck = db->Checkpoint();
  ASSERT_TRUE(ck.ok());
  auto rec = db->log()->ReadRecord(*ck);
  ASSERT_TRUE(rec.ok());
  log::CheckpointBody body;
  ASSERT_TRUE(DeserializeCheckpoint(rec->after, &body).ok());
  EXPECT_FALSE(body.redo_lsn.IsNull());
}

}  // namespace
}  // namespace shoremt::sm
