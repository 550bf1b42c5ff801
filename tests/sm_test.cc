#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "btree/btree_node.h"
#include "io/volume.h"
#include "log/log_storage.h"
#include "sm/options.h"
#include "sm/session.h"
#include "sm/storage_manager.h"

namespace shoremt::sm {
namespace {

std::vector<uint8_t> Row(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

std::string AsString(const std::vector<uint8_t>& v) {
  return std::string(v.begin(), v.end());
}

/// Durable state (volume + log) that outlives StorageManager instances, so
/// tests can crash and reopen.
struct Durable {
  io::MemVolume volume;
  log::LogStorage log;

  Result<std::unique_ptr<StorageManager>> Open(
      StorageOptions options = StorageOptions::ForStage(Stage::kFinal)) {
    return StorageManager::Open(options, &volume, &log);
  }
};

TEST(StorageManagerTest, CreateOpenTable) {
  Durable d;
  auto sm = d.Open();
  ASSERT_TRUE(sm.ok());
  auto* txn = (*sm)->Begin();
  auto table = (*sm)->CreateTable(txn, "users");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*sm)->CreateTable(txn, "users").status().code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE((*sm)->Commit(txn).ok());
  auto opened = (*sm)->OpenTable("users");
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened->heap_store, table->heap_store);
  EXPECT_TRUE((*sm)->OpenTable("ghosts").status().IsNotFound());
}

TEST(StorageManagerTest, InsertReadRoundtrip) {
  Durable d;
  auto sm = d.Open();
  ASSERT_TRUE(sm.ok());
  auto* txn = (*sm)->Begin();
  auto table = (*sm)->CreateTable(txn, "t");
  ASSERT_TRUE(table.ok());
  auto rid = (*sm)->Insert(txn, *table, 7, Row("hello"));
  ASSERT_TRUE(rid.ok());
  auto read = (*sm)->Read(txn, *table, 7);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(AsString(*read), "hello");
  EXPECT_TRUE((*sm)->Read(txn, *table, 8).status().IsNotFound());
  ASSERT_TRUE((*sm)->Commit(txn).ok());
}

TEST(StorageManagerTest, UpdateAndDelete) {
  Durable d;
  auto sm = d.Open();
  ASSERT_TRUE(sm.ok());
  auto* txn = (*sm)->Begin();
  auto table = (*sm)->CreateTable(txn, "t");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*sm)->Insert(txn, *table, 1, Row("v1")).ok());
  ASSERT_TRUE((*sm)->Update(txn, *table, 1, Row("v2-longer")).ok());
  EXPECT_EQ(AsString(*(*sm)->Read(txn, *table, 1)), "v2-longer");
  ASSERT_TRUE((*sm)->Delete(txn, *table, 1).ok());
  EXPECT_TRUE((*sm)->Read(txn, *table, 1).status().IsNotFound());
  EXPECT_TRUE((*sm)->Delete(txn, *table, 1).IsNotFound());
  ASSERT_TRUE((*sm)->Commit(txn).ok());
}

TEST(StorageManagerTest, ScanOrderedRange) {
  Durable d;
  auto sm = d.Open();
  ASSERT_TRUE(sm.ok());
  auto* txn = (*sm)->Begin();
  auto table = (*sm)->CreateTable(txn, "t");
  ASSERT_TRUE(table.ok());
  for (uint64_t k = 0; k < 50; ++k) {
    ASSERT_TRUE(
        (*sm)->Insert(txn, *table, k, Row("row" + std::to_string(k))).ok());
  }
  ASSERT_TRUE((*sm)->Commit(txn).ok());

  auto* txn2 = (*sm)->Begin();
  std::vector<uint64_t> keys;
  ASSERT_TRUE((*sm)->Scan(txn2, *table, 10, 20,
                          [&](uint64_t key, std::span<const uint8_t> row) {
                            keys.push_back(key);
                            EXPECT_EQ(std::string(row.begin(), row.end()),
                                      "row" + std::to_string(key));
                            return true;
                          }).ok());
  ASSERT_EQ(keys.size(), 11u);
  EXPECT_EQ(keys.front(), 10u);
  EXPECT_EQ(keys.back(), 20u);
  ASSERT_TRUE((*sm)->Commit(txn2).ok());
}

TEST(StorageManagerTest, AbortRollsBackHeapAndIndex) {
  Durable d;
  auto sm = d.Open();
  ASSERT_TRUE(sm.ok());
  auto* setup = (*sm)->Begin();
  auto table = (*sm)->CreateTable(setup, "t");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*sm)->Insert(setup, *table, 1, Row("keep")).ok());
  ASSERT_TRUE((*sm)->Commit(setup).ok());

  auto* txn = (*sm)->Begin();
  ASSERT_TRUE((*sm)->Insert(txn, *table, 2, Row("discard")).ok());
  ASSERT_TRUE((*sm)->Update(txn, *table, 1, Row("mutated")).ok());
  ASSERT_TRUE((*sm)->Abort(txn).ok());

  auto* check = (*sm)->Begin();
  EXPECT_TRUE((*sm)->Read(check, *table, 2).status().IsNotFound())
      << "aborted insert must vanish from the index";
  EXPECT_EQ(AsString(*(*sm)->Read(check, *table, 1)), "keep")
      << "aborted update must restore the old image";
  ASSERT_TRUE((*sm)->Commit(check).ok());
}

TEST(StorageManagerTest, AbortRestoresDeletedRow) {
  Durable d;
  auto sm = d.Open();
  ASSERT_TRUE(sm.ok());
  auto* setup = (*sm)->Begin();
  auto table = (*sm)->CreateTable(setup, "t");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*sm)->Insert(setup, *table, 5, Row("precious")).ok());
  ASSERT_TRUE((*sm)->Commit(setup).ok());

  auto* txn = (*sm)->Begin();
  ASSERT_TRUE((*sm)->Delete(txn, *table, 5).ok());
  ASSERT_TRUE((*sm)->Abort(txn).ok());

  auto* check = (*sm)->Begin();
  EXPECT_EQ(AsString(*(*sm)->Read(check, *table, 5)), "precious");
  ASSERT_TRUE((*sm)->Commit(check).ok());
}

TEST(StorageManagerTest, DuplicateKeyInsertFailsCleanly) {
  Durable d;
  auto sm = d.Open();
  ASSERT_TRUE(sm.ok());
  auto* txn = (*sm)->Begin();
  auto table = (*sm)->CreateTable(txn, "t");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*sm)->Insert(txn, *table, 1, Row("first")).ok());
  EXPECT_EQ((*sm)->Insert(txn, *table, 1, Row("second")).status().code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE((*sm)->Abort(txn).ok());
}

TEST(StorageManagerTest, CrashBeforeCommitLosesNothingDurable) {
  Durable d;
  TableInfo table;
  {
    auto sm = d.Open();
    ASSERT_TRUE(sm.ok());
    auto* setup = (*sm)->Begin();
    auto t = (*sm)->CreateTable(setup, "t");
    ASSERT_TRUE(t.ok());
    table = *t;
    ASSERT_TRUE((*sm)->Insert(setup, table, 1, Row("durable")).ok());
    ASSERT_TRUE((*sm)->Commit(setup).ok());

    auto* loser = (*sm)->Begin();
    ASSERT_TRUE((*sm)->Insert(loser, table, 2, Row("in-flight")).ok());
    ASSERT_TRUE((*sm)->Update(loser, table, 1, Row("tampered")).ok());
    // Crash: loser never commits; nothing was flushed to the volume.
    (*sm)->SimulateCrash();
  }
  auto sm = d.Open();
  ASSERT_TRUE(sm.ok()) << sm.status().ToString();
  auto* check = (*sm)->Begin();
  auto reopened = (*sm)->OpenTable("t");
  ASSERT_TRUE(reopened.ok()) << "catalog must survive via the log";
  EXPECT_EQ(AsString(*(*sm)->Read(check, *reopened, 1)), "durable");
  EXPECT_TRUE((*sm)->Read(check, *reopened, 2).status().IsNotFound());
  ASSERT_TRUE((*sm)->Commit(check).ok());
}

TEST(StorageManagerTest, CrashAfterCommitPreservesEverything) {
  Durable d;
  {
    auto sm = d.Open();
    ASSERT_TRUE(sm.ok());
    auto* txn = (*sm)->Begin();
    auto table = (*sm)->CreateTable(txn, "t");
    ASSERT_TRUE(table.ok());
    for (uint64_t k = 0; k < 200; ++k) {
      ASSERT_TRUE(
          (*sm)->Insert(txn, *table, k, Row("val" + std::to_string(k))).ok());
    }
    ASSERT_TRUE((*sm)->Commit(txn).ok());
    (*sm)->SimulateCrash();  // Volume never saw most of these pages.
  }
  auto sm = d.Open();
  ASSERT_TRUE(sm.ok()) << sm.status().ToString();
  auto table = (*sm)->OpenTable("t");
  ASSERT_TRUE(table.ok());
  auto* check = (*sm)->Begin();
  for (uint64_t k = 0; k < 200; ++k) {
    auto read = (*sm)->Read(check, *table, k);
    ASSERT_TRUE(read.ok()) << "key " << k << ": " << read.status().ToString();
    EXPECT_EQ(AsString(*read), "val" + std::to_string(k));
  }
  ASSERT_TRUE((*sm)->Commit(check).ok());
}

TEST(StorageManagerTest, RecoveredSplitRootIsInternal) {
  // A root split re-formats the root one level up in place and logs only
  // its new content; redo must restore the page type along with it.
  Durable d;
  StorageOptions options = StorageOptions::ForStage(Stage::kFinal);
  options.buffer.enable_cleaner = false;  // Crash before any write-back.
  {
    auto sm = d.Open(options);
    ASSERT_TRUE(sm.ok());
    auto session = (*sm)->OpenSession();
    ASSERT_TRUE(session->Begin().ok());
    auto table = session->CreateTable("t");
    ASSERT_TRUE(table.ok());
    for (uint64_t k = 0; k < 1000; ++k) {
      ASSERT_TRUE(session->Insert(*table, k, Row("v")).ok());
    }
    ASSERT_TRUE(session->Commit().ok());
    session.reset();
    (*sm)->SimulateCrash();
  }
  auto sm = d.Open(options);
  ASSERT_TRUE(sm.ok()) << sm.status().ToString();
  auto table = (*sm)->OpenTable("t");
  ASSERT_TRUE(table.ok());
  auto root =
      (*sm)->pool()->FixPage(table->index_root, sync::LatchMode::kShared);
  ASSERT_TRUE(root.ok());
  EXPECT_GT(btree::BTreeNode(root->data()).level(), 0) << "root never split";
  EXPECT_EQ(page::HeaderOf(root->data())->type,
            page::PageType::kBTreeInternal);
}

TEST(StorageManagerTest, RecoveryIsIdempotentAcrossDoubleCrash) {
  Durable d;
  {
    auto sm = d.Open();
    ASSERT_TRUE(sm.ok());
    auto* txn = (*sm)->Begin();
    auto table = (*sm)->CreateTable(txn, "t");
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE((*sm)->Insert(txn, *table, 1, Row("one")).ok());
    ASSERT_TRUE((*sm)->Commit(txn).ok());
    auto* loser = (*sm)->Begin();
    ASSERT_TRUE((*sm)->Insert(loser, *table, 2, Row("two")).ok());
    (*sm)->SimulateCrash();
  }
  {
    // First recovery, then crash again immediately.
    auto sm = d.Open();
    ASSERT_TRUE(sm.ok());
    (*sm)->SimulateCrash();
  }
  auto sm = d.Open();
  ASSERT_TRUE(sm.ok());
  auto table = (*sm)->OpenTable("t");
  ASSERT_TRUE(table.ok());
  auto* check = (*sm)->Begin();
  EXPECT_EQ(AsString(*(*sm)->Read(check, *table, 1)), "one");
  EXPECT_TRUE((*sm)->Read(check, *table, 2).status().IsNotFound());
  ASSERT_TRUE((*sm)->Commit(check).ok());
}

TEST(StorageManagerTest, CheckpointBoundsRecoveryWork) {
  Durable d;
  {
    auto sm = d.Open();
    ASSERT_TRUE(sm.ok());
    auto* txn = (*sm)->Begin();
    auto table = (*sm)->CreateTable(txn, "t");
    ASSERT_TRUE(table.ok());
    for (uint64_t k = 0; k < 100; ++k) {
      ASSERT_TRUE((*sm)->Insert(txn, *table, k, Row("x")).ok());
    }
    ASSERT_TRUE((*sm)->Commit(txn).ok());
    auto ck = (*sm)->Checkpoint();
    ASSERT_TRUE(ck.ok());
    auto* txn2 = (*sm)->Begin();
    ASSERT_TRUE((*sm)->Insert(txn2, *table, 1000, Row("tail")).ok());
    ASSERT_TRUE((*sm)->Commit(txn2).ok());
    (*sm)->SimulateCrash();
  }
  auto sm = d.Open();
  ASSERT_TRUE(sm.ok());
  auto table = (*sm)->OpenTable("t");
  ASSERT_TRUE(table.ok());
  auto* check = (*sm)->Begin();
  EXPECT_TRUE((*sm)->Read(check, *table, 50).ok());
  EXPECT_TRUE((*sm)->Read(check, *table, 1000).ok());
  ASSERT_TRUE((*sm)->Commit(check).ok());
}

TEST(StorageManagerTest, BlockingCheckpointVariantAlsoRecovers) {
  Durable d;
  StorageOptions opts = StorageOptions::ForStage(Stage::kFinal);
  opts.decoupled_checkpoint = false;
  {
    auto sm = d.Open(opts);
    ASSERT_TRUE(sm.ok());
    auto* txn = (*sm)->Begin();
    auto table = (*sm)->CreateTable(txn, "t");
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE((*sm)->Insert(txn, *table, 1, Row("v")).ok());
    ASSERT_TRUE((*sm)->Commit(txn).ok());
    ASSERT_TRUE((*sm)->Checkpoint().ok());
    (*sm)->SimulateCrash();
  }
  auto sm = d.Open(opts);
  ASSERT_TRUE(sm.ok());
  auto table = (*sm)->OpenTable("t");
  ASSERT_TRUE(table.ok());
  auto* check = (*sm)->Begin();
  EXPECT_TRUE((*sm)->Read(check, *table, 1).ok());
  ASSERT_TRUE((*sm)->Commit(check).ok());
}

TEST(StorageManagerTest, ConcurrentPrivateTables) {
  // The paper's Figure 1 setup in miniature: each client inserts into its
  // own table — no logical contention, only internal structures shared.
  Durable d;
  auto sm = d.Open();
  ASSERT_TRUE(sm.ok());
  constexpr int kClients = 4;
  constexpr uint64_t kRows = 300;
  std::vector<TableInfo> tables(kClients);
  for (int c = 0; c < kClients; ++c) {
    auto* txn = (*sm)->Begin();
    auto t = (*sm)->CreateTable(txn, "client" + std::to_string(c));
    ASSERT_TRUE(t.ok());
    tables[c] = *t;
    ASSERT_TRUE((*sm)->Commit(txn).ok());
  }
  std::vector<std::thread> workers;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    workers.emplace_back([&, c] {
      auto* txn = (*sm)->Begin();
      for (uint64_t k = 0; k < kRows; ++k) {
        if (!(*sm)->Insert(txn, tables[c], k, Row("r")).ok()) {
          failures.fetch_add(1);
        }
        if ((k + 1) % 100 == 0) {
          if (!(*sm)->Commit(txn).ok()) failures.fetch_add(1);
          txn = (*sm)->Begin();
        }
      }
      if (!(*sm)->Commit(txn).ok()) failures.fetch_add(1);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
  auto* check = (*sm)->Begin();
  for (int c = 0; c < kClients; ++c) {
    uint64_t seen = 0;
    ASSERT_TRUE((*sm)->Scan(check, tables[c], 0, UINT64_MAX,
                            [&](uint64_t, std::span<const uint8_t>) {
                              ++seen;
                              return true;
                            }).ok());
    EXPECT_EQ(seen, kRows) << "client " << c;
  }
  ASSERT_TRUE((*sm)->Commit(check).ok());
}

class StagePresetTest : public ::testing::TestWithParam<Stage> {};

TEST_P(StagePresetTest, FullWorkloadIsCorrectAtEveryStage) {
  // Every §7 stage must produce the same answers — the stages differ only
  // in scalability, never in semantics.
  Durable d;
  auto sm = d.Open(StorageOptions::ForStage(GetParam()));
  ASSERT_TRUE(sm.ok());
  auto* txn = (*sm)->Begin();
  auto table = (*sm)->CreateTable(txn, "t");
  ASSERT_TRUE(table.ok());
  for (uint64_t k = 0; k < 150; ++k) {
    ASSERT_TRUE(
        (*sm)->Insert(txn, *table, k, Row("v" + std::to_string(k))).ok());
  }
  ASSERT_TRUE((*sm)->Commit(txn).ok());

  auto* loser = (*sm)->Begin();
  ASSERT_TRUE((*sm)->Update(loser, *table, 3, Row("bad")).ok());
  ASSERT_TRUE((*sm)->Abort(loser).ok());

  auto* check = (*sm)->Begin();
  EXPECT_EQ(AsString(*(*sm)->Read(check, *table, 3)), "v3");
  EXPECT_EQ(AsString(*(*sm)->Read(check, *table, 149)), "v149");
  ASSERT_TRUE((*sm)->Commit(check).ok());
}

TEST_P(StagePresetTest, RecoversAfterCrash) {
  Durable d;
  {
    auto sm = d.Open(StorageOptions::ForStage(GetParam()));
    ASSERT_TRUE(sm.ok());
    auto* txn = (*sm)->Begin();
    auto table = (*sm)->CreateTable(txn, "t");
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE((*sm)->Insert(txn, *table, 42, Row("answer")).ok());
    ASSERT_TRUE((*sm)->Commit(txn).ok());
    (*sm)->SimulateCrash();
  }
  auto sm = d.Open(StorageOptions::ForStage(GetParam()));
  ASSERT_TRUE(sm.ok());
  auto table = (*sm)->OpenTable("t");
  ASSERT_TRUE(table.ok());
  auto* check = (*sm)->Begin();
  EXPECT_EQ(AsString(*(*sm)->Read(check, *table, 42)), "answer");
  ASSERT_TRUE((*sm)->Commit(check).ok());
}

INSTANTIATE_TEST_SUITE_P(AllStages, StagePresetTest,
                         ::testing::ValuesIn(kAllStages),
                         [](const auto& info) {
                           std::string name(StageName(info.param));
                           for (char& c : name) {
                             if (c == ' ') c = '_';
                           }
                           return name;
                         });

TEST(StorageManagerTest, LargeRowsRejected) {
  Durable d;
  auto sm = d.Open();
  ASSERT_TRUE(sm.ok());
  auto* txn = (*sm)->Begin();
  auto table = (*sm)->CreateTable(txn, "t");
  ASSERT_TRUE(table.ok());
  std::vector<uint8_t> huge(kPageSize, 0);
  EXPECT_EQ((*sm)->Insert(txn, *table, 1, huge).status().code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE((*sm)->Abort(txn).ok());
}

TEST(StorageManagerTest, RowConflictBetweenTxnsTimesOut) {
  Durable d;
  StorageOptions opts = StorageOptions::ForStage(Stage::kFinal);
  opts.lock.timeout_us = 30'000;
  auto sm = d.Open(opts);
  ASSERT_TRUE(sm.ok());
  auto* t1 = (*sm)->Begin();
  auto table = (*sm)->CreateTable(t1, "t");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*sm)->Insert(t1, *table, 1, Row("v")).ok());
  ASSERT_TRUE((*sm)->Commit(t1).ok());

  auto* writer = (*sm)->Begin();
  ASSERT_TRUE((*sm)->Update(writer, *table, 1, Row("w")).ok());
  auto* reader = (*sm)->Begin();
  EXPECT_TRUE((*sm)->Read(reader, *table, 1).status().IsDeadlock())
      << "reader must time out against the writer's X lock";
  ASSERT_TRUE((*sm)->Abort(reader).ok());
  ASSERT_TRUE((*sm)->Commit(writer).ok());
}

}  // namespace
}  // namespace shoremt::sm
