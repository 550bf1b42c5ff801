#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "io/volume.h"
#include "log/log_storage.h"
#include "sm/options.h"
#include "sm/session.h"
#include "sm/storage_manager.h"

namespace shoremt::sm {
namespace {

/// Randomized ARIES torture test: run a random transactional workload,
/// crash at a random point (nothing flushed to the volume except what
/// eviction/cleaner wrote), recover, and verify the database equals the
/// reference model of *committed* state — no lost committed writes, no
/// leaked uncommitted ones.
struct CrashCase {
  uint64_t seed;
  Stage stage;
  bool checkpoint_midway;
};

class RecoveryProperty : public ::testing::TestWithParam<CrashCase> {};

TEST_P(RecoveryProperty, CommittedStateSurvivesRandomCrash) {
  auto [seed, stage, checkpoint_midway] = GetParam();
  Rng rng(seed);
  io::MemVolume volume;
  log::LogStorage wal;

  // Reference model of committed state only.
  std::map<uint64_t, std::vector<uint8_t>> committed;

  {
    auto opened =
        StorageManager::Open(StorageOptions::ForStage(stage), &volume, &wal);
    ASSERT_TRUE(opened.ok());
    auto& db = *opened;
    auto s = db->OpenSession();
    ASSERT_TRUE(s->Begin().ok());
    auto table = s->CreateTable("t");
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE(s->Commit().ok());

    int total_txns = 30 + static_cast<int>(rng.Uniform(30));
    int crash_after = static_cast<int>(rng.Uniform(total_txns));
    for (int i = 0; i < total_txns; ++i) {
      if (checkpoint_midway && i == crash_after / 2) {
        ASSERT_TRUE(db->Checkpoint().ok());
      }
      ASSERT_TRUE(s->Begin().ok());
      // Shadow of this transaction's effects.
      std::map<uint64_t, std::vector<uint8_t>> delta = committed;
      int ops = 1 + static_cast<int>(rng.Uniform(8));
      bool ok = true;
      for (int j = 0; j < ops && ok; ++j) {
        uint64_t key = rng.Uniform(200);
        int kind = static_cast<int>(rng.Uniform(100));
        if (kind < 55) {
          std::vector<uint8_t> payload(8 + rng.Uniform(120));
          for (auto& b : payload) b = static_cast<uint8_t>(rng.Next());
          if (delta.contains(key)) {
            ok = s->Update(*table, key, payload).ok();
          } else {
            ok = s->Insert(*table, key, payload).ok();
          }
          if (ok) delta[key] = payload;
        } else if (kind < 80) {
          if (delta.contains(key)) {
            ok = s->Delete(*table, key).ok();
            if (ok) delta.erase(key);
          }
        } else {
          auto read = s->Read(*table, key);
          if (delta.contains(key)) {
            ok = read.ok() && std::equal(read->begin(), read->end(),
                                         delta[key].begin(),
                                         delta[key].end());
          } else {
            ok = read.status().IsNotFound();
          }
        }
      }
      if (!ok) {
        ASSERT_TRUE(s->Abort().ok());
      } else if (rng.Bernoulli(0.25)) {
        // Deliberate rollback: delta discarded.
        ASSERT_TRUE(s->Abort().ok());
      } else {
        ASSERT_TRUE(s->Commit().ok());
        committed = std::move(delta);
      }
      if (i == crash_after) {
        // Leave one transaction in flight at the crash for extra spice:
        // the session stays open across it and closes without writing.
        ASSERT_TRUE(s->Begin().ok());
        (void)s->Insert(*table, 9999, std::vector<uint8_t>(16, 0xDE));
        break;
      }
    }
    db->SimulateCrash();
  }

  // Restart + recovery.
  auto reopened =
      StorageManager::Open(StorageOptions::ForStage(stage), &volume, &wal);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto& db = *reopened;
  auto check = db->OpenSession();
  auto table = check->OpenTable("t");
  ASSERT_TRUE(table.ok());

  ASSERT_TRUE(check->Begin().ok());
  // Every committed row present and intact.
  for (const auto& [key, payload] : committed) {
    auto read = check->Read(*table, key);
    ASSERT_TRUE(read.ok()) << "lost committed key " << key << " (seed "
                           << seed << ")";
    EXPECT_TRUE(std::equal(read->begin(), read->end(), payload.begin(),
                           payload.end()))
        << "corrupt committed key " << key << " (seed " << seed << ")";
  }
  // No extra rows (uncommitted leaks), checked via full scan.
  uint64_t rows = 0;
  Cursor cur = check->OpenCursor(*table);
  Status st;
  for (st = cur.Seek(0); st.ok() && cur.Valid(); st = cur.Next()) {
    EXPECT_TRUE(committed.contains(cur.key()))
        << "leaked uncommitted key " << cur.key() << " (seed " << seed << ")";
    ++rows;
  }
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(rows, committed.size());
  ASSERT_TRUE(check->Commit().ok());

  // And the recovered system remains fully usable.
  ASSERT_TRUE(check->Begin().ok());
  ASSERT_TRUE(
      check->Insert(*table, 777777, std::vector<uint8_t>(8, 0x42)).ok());
  ASSERT_TRUE(check->Commit().ok());
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndStages, RecoveryProperty,
    ::testing::Values(CrashCase{1001, Stage::kFinal, false},
                      CrashCase{1002, Stage::kFinal, true},
                      CrashCase{1003, Stage::kFinal, true},
                      CrashCase{1004, Stage::kFinal, false},
                      CrashCase{2001, Stage::kBaseline, false},
                      CrashCase{2002, Stage::kBaseline, true},
                      CrashCase{3001, Stage::kLog, true},
                      CrashCase{3002, Stage::kBufferPool2, true},
                      CrashCase{4001, Stage::kCaching, false},
                      CrashCase{4002, Stage::kLockManager, true}),
    [](const auto& info) {
      return "seed" + std::to_string(info.param.seed);
    });

/// Double-crash: crash during the post-recovery session too; recovery of
/// a recovered log (with CLRs in it) must be stable.
TEST(RecoveryProperty2, DoubleCrashWithClrsIsStable) {
  io::MemVolume volume;
  log::LogStorage wal;
  std::vector<uint8_t> payload(32, 0xAB);
  {
    auto db = std::move(*StorageManager::Open(
        StorageOptions::ForStage(Stage::kFinal), &volume, &wal));
    auto s = db->OpenSession();
    ASSERT_TRUE(s->Begin().ok());
    auto table = s->CreateTable("t");
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE(s->Commit().ok());
    ASSERT_TRUE(s->Begin().ok());
    ASSERT_TRUE(s->Insert(*table, 1, payload).ok());
    ASSERT_TRUE(s->Commit().ok());
    // Aborted txn → CLRs in the log.
    ASSERT_TRUE(s->Begin().ok());
    ASSERT_TRUE(s->Update(*table, 1, std::vector<uint8_t>(8, 1)).ok());
    ASSERT_TRUE(s->Insert(*table, 2, payload).ok());
    ASSERT_TRUE(s->Abort().ok());
    // In-flight txn at crash → restart undo writes more CLRs.
    ASSERT_TRUE(s->Begin().ok());
    ASSERT_TRUE(s->Update(*table, 1, std::vector<uint8_t>(8, 2)).ok());
    db->SimulateCrash();
  }
  for (int round = 0; round < 3; ++round) {
    auto db = std::move(*StorageManager::Open(
        StorageOptions::ForStage(Stage::kFinal), &volume, &wal));
    auto check = db->OpenSession();
    auto table = check->OpenTable("t");
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE(check->Begin().ok());
    auto read = check->Read(*table, 1);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read->size(), payload.size()) << "round " << round;
    EXPECT_TRUE(check->Read(*table, 2).status().IsNotFound());
    ASSERT_TRUE(check->Commit().ok());
    db->SimulateCrash();  // Crash again immediately after recovery.
  }
}

}  // namespace
}  // namespace shoremt::sm
