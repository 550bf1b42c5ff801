#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
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

std::string AsString(std::span<const uint8_t> v) {
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
  auto s = (*sm)->OpenSession();
  ASSERT_TRUE(s->Begin().ok());
  auto table = s->CreateTable("users");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(s->CreateTable("users").status().code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE(s->Commit().ok());
  auto opened = s->OpenTable("users");
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened->heap_store, table->heap_store);
  EXPECT_TRUE(s->OpenTable("ghosts").status().IsNotFound());
}

/// Catalog records come from the log device, the archive or a replication
/// socket: a name length that overruns its record is Corruption, never a
/// read past the bytes.
TEST(StorageManagerTest, CatalogNameLengthIsCheckedAgainstTheRecord) {
  Durable d;
  auto sm = d.Open();
  ASSERT_TRUE(sm.ok());
  auto catalog = [](uint32_t len, size_t bytes) {
    log::LogRecord rec;
    rec.type = log::LogRecordType::kCatalog;
    rec.after.assign(bytes, 0);
    std::memcpy(rec.after.data(), &len, sizeof(len));
    return rec;
  };
  // A name length that wraps 4 + len + 16 to 4 in 32-bit arithmetic.
  EXPECT_EQ((*sm)->ApplyMetadata(catalog(0xFFFFFFF0u, 20)).code(),
            StatusCode::kCorruption);
  // One byte short of a 5-byte name's entry.
  EXPECT_EQ((*sm)->ApplyMetadata(catalog(5, 24)).code(),
            StatusCode::kCorruption);
}

TEST(StorageManagerTest, InsertReadRoundtrip) {
  Durable d;
  auto sm = d.Open();
  ASSERT_TRUE(sm.ok());
  auto s = (*sm)->OpenSession();
  ASSERT_TRUE(s->Begin().ok());
  auto table = s->CreateTable("t");
  ASSERT_TRUE(table.ok());
  auto rid = s->Insert(*table, 7, Row("hello"));
  ASSERT_TRUE(rid.ok());
  auto read = s->Read(*table, 7);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(AsString(*read), "hello");
  EXPECT_TRUE(s->Read(*table, 8).status().IsNotFound());
  ASSERT_TRUE(s->Commit().ok());
}

TEST(StorageManagerTest, UpdateAndDelete) {
  Durable d;
  auto sm = d.Open();
  ASSERT_TRUE(sm.ok());
  auto s = (*sm)->OpenSession();
  ASSERT_TRUE(s->Begin().ok());
  auto table = s->CreateTable("t");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(s->Insert(*table, 1, Row("v1")).ok());
  ASSERT_TRUE(s->Update(*table, 1, Row("v2-longer")).ok());
  EXPECT_EQ(AsString(*s->Read(*table, 1)), "v2-longer");
  ASSERT_TRUE(s->Delete(*table, 1).ok());
  EXPECT_TRUE(s->Read(*table, 1).status().IsNotFound());
  EXPECT_TRUE(s->Delete(*table, 1).IsNotFound());
  ASSERT_TRUE(s->Commit().ok());
}

TEST(StorageManagerTest, ScanOrderedRange) {
  Durable d;
  auto sm = d.Open();
  ASSERT_TRUE(sm.ok());
  auto s = (*sm)->OpenSession();
  ASSERT_TRUE(s->Begin().ok());
  auto table = s->CreateTable("t");
  ASSERT_TRUE(table.ok());
  for (uint64_t k = 0; k < 50; ++k) {
    ASSERT_TRUE(s->Insert(*table, k, Row("row" + std::to_string(k))).ok());
  }
  ASSERT_TRUE(s->Commit().ok());

  ASSERT_TRUE(s->Begin().ok());
  std::vector<uint64_t> keys;
  Cursor cur = s->OpenCursor(*table);
  for (Status st = cur.Seek(10); cur.Valid() && cur.key() <= 20;
       st = cur.Next()) {
    ASSERT_TRUE(st.ok()) << st.ToString();
    keys.push_back(cur.key());
    EXPECT_EQ(AsString(cur.value()), "row" + std::to_string(cur.key()));
  }
  ASSERT_EQ(keys.size(), 11u);
  EXPECT_EQ(keys.front(), 10u);
  EXPECT_EQ(keys.back(), 20u);
  ASSERT_TRUE(s->Commit().ok());
}

TEST(StorageManagerTest, AbortRollsBackHeapAndIndex) {
  Durable d;
  auto sm = d.Open();
  ASSERT_TRUE(sm.ok());
  auto s = (*sm)->OpenSession();
  ASSERT_TRUE(s->Begin().ok());
  auto table = s->CreateTable("t");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(s->Insert(*table, 1, Row("keep")).ok());
  ASSERT_TRUE(s->Commit().ok());

  ASSERT_TRUE(s->Begin().ok());
  ASSERT_TRUE(s->Insert(*table, 2, Row("discard")).ok());
  ASSERT_TRUE(s->Update(*table, 1, Row("mutated")).ok());
  ASSERT_TRUE(s->Abort().ok());

  ASSERT_TRUE(s->Begin().ok());
  EXPECT_TRUE(s->Read(*table, 2).status().IsNotFound())
      << "aborted insert must vanish from the index";
  EXPECT_EQ(AsString(*s->Read(*table, 1)), "keep")
      << "aborted update must restore the old image";
  ASSERT_TRUE(s->Commit().ok());
}

TEST(StorageManagerTest, AbortRestoresDeletedRow) {
  Durable d;
  auto sm = d.Open();
  ASSERT_TRUE(sm.ok());
  auto s = (*sm)->OpenSession();
  ASSERT_TRUE(s->Begin().ok());
  auto table = s->CreateTable("t");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(s->Insert(*table, 5, Row("precious")).ok());
  ASSERT_TRUE(s->Commit().ok());

  ASSERT_TRUE(s->Begin().ok());
  ASSERT_TRUE(s->Delete(*table, 5).ok());
  ASSERT_TRUE(s->Abort().ok());

  ASSERT_TRUE(s->Begin().ok());
  EXPECT_EQ(AsString(*s->Read(*table, 5)), "precious");
  ASSERT_TRUE(s->Commit().ok());
}

/// A leaf split publishes its separator in the parent. The split is a
/// structure change that outlives the transaction that caused it: rolling
/// the transaction back must not treat the separator as one of its own
/// keys, or undo removes the committed row whose key the separator copies.
TEST(StorageManagerTest, AbortAfterLeafSplitKeepsCommittedRows) {
  Durable d;
  {
    auto sm = d.Open();
    ASSERT_TRUE(sm.ok());
    auto s = (*sm)->OpenSession();
    ASSERT_TRUE(s->Begin().ok());
    auto table = s->CreateTable("t");
    ASSERT_TRUE(table.ok());
    for (uint64_t k = 0; k < 2000; ++k) {
      ASSERT_TRUE(s->Insert(*table, k, Row("c")).ok());
    }
    ASSERT_TRUE(s->Commit().ok());
    // Appends past the last key: each full leaf splits under this
    // transaction, then it rolls back — once by Abort, once by restart
    // undo as a loser.
    for (bool crash : {false, true}) {
      ASSERT_TRUE(s->Begin().ok());
      for (uint64_t k = 2000; k < 4000; ++k) {
        ASSERT_TRUE(s->Insert(*table, k, Row("u")).ok());
      }
      if (crash) break;
      ASSERT_TRUE(s->Abort().ok());
    }
    (*sm)->SimulateCrash();
  }
  auto sm = d.Open();
  ASSERT_TRUE(sm.ok()) << sm.status().ToString();
  auto s = (*sm)->OpenSession();
  auto table = s->OpenTable("t");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(s->Begin().ok());
  uint64_t rows = 0;
  auto cur = s->OpenCursor(*table);
  for (auto st = cur.Seek(0); cur.Valid(); st = cur.Next()) {
    ASSERT_EQ(cur.key(), rows) << "committed row missing";
    ++rows;
  }
  EXPECT_EQ(rows, 2000u);
  ASSERT_TRUE(s->Commit().ok());
}

TEST(StorageManagerTest, DuplicateKeyInsertFailsCleanly) {
  Durable d;
  auto sm = d.Open();
  ASSERT_TRUE(sm.ok());
  auto s = (*sm)->OpenSession();
  ASSERT_TRUE(s->Begin().ok());
  auto table = s->CreateTable("t");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(s->Insert(*table, 1, Row("first")).ok());
  EXPECT_EQ(s->Insert(*table, 1, Row("second")).status().code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE(s->Abort().ok());
}

TEST(StorageManagerTest, CrashBeforeCommitLosesNothingDurable) {
  Durable d;
  {
    auto sm = d.Open();
    ASSERT_TRUE(sm.ok());
    auto setup = (*sm)->OpenSession();
    ASSERT_TRUE(setup->Begin().ok());
    auto table = setup->CreateTable("t");
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE(setup->Insert(*table, 1, Row("durable")).ok());
    ASSERT_TRUE(setup->Commit().ok());

    auto loser = (*sm)->OpenSession();
    ASSERT_TRUE(loser->Begin().ok());
    ASSERT_TRUE(loser->Insert(*table, 2, Row("in-flight")).ok());
    ASSERT_TRUE(loser->Update(*table, 1, Row("tampered")).ok());
    // Crash: loser never commits; nothing was flushed to the volume.
    (*sm)->SimulateCrash();
  }
  auto sm = d.Open();
  ASSERT_TRUE(sm.ok()) << sm.status().ToString();
  auto check = (*sm)->OpenSession();
  ASSERT_TRUE(check->Begin().ok());
  auto reopened = check->OpenTable("t");
  ASSERT_TRUE(reopened.ok()) << "catalog must survive via the log";
  EXPECT_EQ(AsString(*check->Read(*reopened, 1)), "durable");
  EXPECT_TRUE(check->Read(*reopened, 2).status().IsNotFound());
  ASSERT_TRUE(check->Commit().ok());
}

TEST(StorageManagerTest, CrashAfterCommitPreservesEverything) {
  Durable d;
  {
    auto sm = d.Open();
    ASSERT_TRUE(sm.ok());
    auto s = (*sm)->OpenSession();
    ASSERT_TRUE(s->Begin().ok());
    auto table = s->CreateTable("t");
    ASSERT_TRUE(table.ok());
    for (uint64_t k = 0; k < 200; ++k) {
      ASSERT_TRUE(s->Insert(*table, k, Row("val" + std::to_string(k))).ok());
    }
    ASSERT_TRUE(s->Commit().ok());
    (*sm)->SimulateCrash();  // Volume never saw most of these pages.
  }
  auto sm = d.Open();
  ASSERT_TRUE(sm.ok()) << sm.status().ToString();
  auto check = (*sm)->OpenSession();
  auto table = check->OpenTable("t");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(check->Begin().ok());
  for (uint64_t k = 0; k < 200; ++k) {
    auto read = check->Read(*table, k);
    ASSERT_TRUE(read.ok()) << "key " << k << ": " << read.status().ToString();
    EXPECT_EQ(AsString(*read), "val" + std::to_string(k));
  }
  ASSERT_TRUE(check->Commit().ok());
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
  auto table = (*sm)->OpenSession()->OpenTable("t");
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
    auto s = (*sm)->OpenSession();
    ASSERT_TRUE(s->Begin().ok());
    auto table = s->CreateTable("t");
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE(s->Insert(*table, 1, Row("one")).ok());
    ASSERT_TRUE(s->Commit().ok());
    auto loser = (*sm)->OpenSession();
    ASSERT_TRUE(loser->Begin().ok());
    ASSERT_TRUE(loser->Insert(*table, 2, Row("two")).ok());
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
  auto check = (*sm)->OpenSession();
  auto table = check->OpenTable("t");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(check->Begin().ok());
  EXPECT_EQ(AsString(*check->Read(*table, 1)), "one");
  EXPECT_TRUE(check->Read(*table, 2).status().IsNotFound());
  ASSERT_TRUE(check->Commit().ok());
}

TEST(StorageManagerTest, CheckpointBoundsRecoveryWork) {
  Durable d;
  {
    auto sm = d.Open();
    ASSERT_TRUE(sm.ok());
    auto s = (*sm)->OpenSession();
    ASSERT_TRUE(s->Begin().ok());
    auto table = s->CreateTable("t");
    ASSERT_TRUE(table.ok());
    for (uint64_t k = 0; k < 100; ++k) {
      ASSERT_TRUE(s->Insert(*table, k, Row("x")).ok());
    }
    ASSERT_TRUE(s->Commit().ok());
    auto ck = (*sm)->Checkpoint();
    ASSERT_TRUE(ck.ok());
    ASSERT_TRUE(s->Begin().ok());
    ASSERT_TRUE(s->Insert(*table, 1000, Row("tail")).ok());
    ASSERT_TRUE(s->Commit().ok());
    (*sm)->SimulateCrash();
  }
  auto sm = d.Open();
  ASSERT_TRUE(sm.ok());
  auto check = (*sm)->OpenSession();
  auto table = check->OpenTable("t");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(check->Begin().ok());
  EXPECT_TRUE(check->Read(*table, 50).ok());
  EXPECT_TRUE(check->Read(*table, 1000).ok());
  ASSERT_TRUE(check->Commit().ok());
}

TEST(StorageManagerTest, BlockingCheckpointVariantAlsoRecovers) {
  Durable d;
  StorageOptions opts = StorageOptions::ForStage(Stage::kFinal);
  opts.decoupled_checkpoint = false;
  {
    auto sm = d.Open(opts);
    ASSERT_TRUE(sm.ok());
    auto s = (*sm)->OpenSession();
    ASSERT_TRUE(s->Begin().ok());
    auto table = s->CreateTable("t");
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE(s->Insert(*table, 1, Row("v")).ok());
    ASSERT_TRUE(s->Commit().ok());
    ASSERT_TRUE((*sm)->Checkpoint().ok());
    (*sm)->SimulateCrash();
  }
  auto sm = d.Open(opts);
  ASSERT_TRUE(sm.ok());
  auto check = (*sm)->OpenSession();
  auto table = check->OpenTable("t");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(check->Begin().ok());
  EXPECT_TRUE(check->Read(*table, 1).ok());
  ASSERT_TRUE(check->Commit().ok());
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
  auto setup = (*sm)->OpenSession();
  for (int c = 0; c < kClients; ++c) {
    ASSERT_TRUE(setup->Begin().ok());
    auto t = setup->CreateTable("client" + std::to_string(c));
    ASSERT_TRUE(t.ok());
    tables[c] = *t;
    ASSERT_TRUE(setup->Commit().ok());
  }
  std::vector<std::thread> workers;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    workers.emplace_back([&, c] {
      auto s = (*sm)->OpenSession();
      if (!s->Begin().ok()) failures.fetch_add(1);
      for (uint64_t k = 0; k < kRows; ++k) {
        if (!s->Insert(tables[c], k, Row("r")).ok()) failures.fetch_add(1);
        if ((k + 1) % 100 == 0) {
          if (!s->Commit().ok()) failures.fetch_add(1);
          if (!s->Begin().ok()) failures.fetch_add(1);
        }
      }
      if (!s->Commit().ok()) failures.fetch_add(1);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
  ASSERT_TRUE(setup->Begin().ok());
  for (int c = 0; c < kClients; ++c) {
    uint64_t seen = 0;
    Cursor cur = setup->OpenCursor(tables[c]);
    Status st;
    for (st = cur.Seek(0); st.ok() && cur.Valid(); st = cur.Next()) ++seen;
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(seen, kRows) << "client " << c;
  }
  ASSERT_TRUE(setup->Commit().ok());
}

class StagePresetTest : public ::testing::TestWithParam<Stage> {};

TEST_P(StagePresetTest, FullWorkloadIsCorrectAtEveryStage) {
  // Every §7 stage must produce the same answers — the stages differ only
  // in scalability, never in semantics.
  Durable d;
  auto sm = d.Open(StorageOptions::ForStage(GetParam()));
  ASSERT_TRUE(sm.ok());
  auto s = (*sm)->OpenSession();
  ASSERT_TRUE(s->Begin().ok());
  auto table = s->CreateTable("t");
  ASSERT_TRUE(table.ok());
  for (uint64_t k = 0; k < 150; ++k) {
    ASSERT_TRUE(s->Insert(*table, k, Row("v" + std::to_string(k))).ok());
  }
  ASSERT_TRUE(s->Commit().ok());

  ASSERT_TRUE(s->Begin().ok());
  ASSERT_TRUE(s->Update(*table, 3, Row("bad")).ok());
  ASSERT_TRUE(s->Abort().ok());

  ASSERT_TRUE(s->Begin().ok());
  EXPECT_EQ(AsString(*s->Read(*table, 3)), "v3");
  EXPECT_EQ(AsString(*s->Read(*table, 149)), "v149");
  ASSERT_TRUE(s->Commit().ok());
}

TEST_P(StagePresetTest, RecoversAfterCrash) {
  Durable d;
  {
    auto sm = d.Open(StorageOptions::ForStage(GetParam()));
    ASSERT_TRUE(sm.ok());
    auto s = (*sm)->OpenSession();
    ASSERT_TRUE(s->Begin().ok());
    auto table = s->CreateTable("t");
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE(s->Insert(*table, 42, Row("answer")).ok());
    ASSERT_TRUE(s->Commit().ok());
    (*sm)->SimulateCrash();
  }
  auto sm = d.Open(StorageOptions::ForStage(GetParam()));
  ASSERT_TRUE(sm.ok());
  auto check = (*sm)->OpenSession();
  auto table = check->OpenTable("t");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(check->Begin().ok());
  EXPECT_EQ(AsString(*check->Read(*table, 42)), "answer");
  ASSERT_TRUE(check->Commit().ok());
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
  auto s = (*sm)->OpenSession();
  ASSERT_TRUE(s->Begin().ok());
  auto table = s->CreateTable("t");
  ASSERT_TRUE(table.ok());
  std::vector<uint8_t> huge(kPageSize, 0);
  EXPECT_EQ(s->Insert(*table, 1, huge).status().code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(s->Abort().ok());
}

TEST(StorageManagerTest, RowConflictBetweenTxnsTimesOut) {
  Durable d;
  StorageOptions opts = StorageOptions::ForStage(Stage::kFinal);
  opts.lock.timeout_us = 30'000;
  auto sm = d.Open(opts);
  ASSERT_TRUE(sm.ok());
  auto writer = (*sm)->OpenSession();
  ASSERT_TRUE(writer->Begin().ok());
  auto table = writer->CreateTable("t");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(writer->Insert(*table, 1, Row("v")).ok());
  ASSERT_TRUE(writer->Commit().ok());

  ASSERT_TRUE(writer->Begin().ok());
  ASSERT_TRUE(writer->Update(*table, 1, Row("w")).ok());
  auto reader = (*sm)->OpenSession();
  ASSERT_TRUE(reader->Begin().ok());
  EXPECT_TRUE(reader->Read(*table, 1).status().IsDeadlock())
      << "reader must time out against the writer's X lock";
  ASSERT_TRUE(reader->Abort().ok());
  ASSERT_TRUE(writer->Commit().ok());
}

}  // namespace
}  // namespace shoremt::sm
